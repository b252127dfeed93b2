"""Reference PageRank vs. networkx and stochastic invariants."""

import hashlib
import warnings

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.incremental import pagerank_warm
from repro.algorithms.pagerank import pagerank
from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.systems import create_system

#: ``pagerank(kron10_csr)`` as computed by the per-arc ``np.add.at``
#: sweep, pinned at commit 45ef066 before the sweep body was rewritten.
KRON10_RANKS_SHA256 = (
    "f79c5746a6f9ce8272f760a1d13082e90e63523b7f8d5a05862de8b1bce2c99e")
KRON10_ITERATIONS = 23


def test_sums_to_one(kron10_csr):
    rank, _ = pagerank(kron10_csr)
    assert rank.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(rank > 0)


def test_matches_networkx_on_simple_graph():
    """Compare on a dedup'd graph (networkx collapses multi-edges)."""
    rng = np.random.default_rng(0)
    n, m = 64, 300
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    key = src * n + dst
    _, keep = np.unique(key, return_index=True)
    csr = CSRGraph.from_arrays(src[keep], dst[keep], n)
    rank, _ = pagerank(csr, epsilon=1e-12)

    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(zip(src[keep].tolist(), dst[keep].tolist()))
    want = nx.pagerank(g, alpha=0.85, tol=1e-14, max_iter=1000)
    ref = np.array([want[i] for i in range(n)])
    assert np.abs(rank - ref).sum() < 1e-8


def test_dangling_mass_conserved():
    """A sink vertex must not leak rank."""
    csr = CSRGraph.from_arrays(np.array([0, 1]), np.array([1, 2]), 3)
    rank, _ = pagerank(csr)
    assert rank.sum() == pytest.approx(1.0, abs=1e-9)
    assert rank[2] > rank[0]  # sink accumulates


def test_uniform_on_cycle():
    n = 8
    src = np.arange(n)
    dst = (src + 1) % n
    csr = CSRGraph.from_arrays(src, dst, n)
    rank, _ = pagerank(csr)
    assert np.allclose(rank, 1.0 / n, atol=1e-9)


def test_epsilon_controls_iterations(kron10_csr):
    _, it_loose = pagerank(kron10_csr, epsilon=1e-3)
    _, it_tight = pagerank(kron10_csr, epsilon=1e-10)
    assert it_tight > it_loose


def test_max_iterations_cap(kron10_csr):
    rank, it = pagerank(kron10_csr, epsilon=1e-300, max_iterations=5)
    assert it == 5


BAD_PARAMS = [{"damping": 1.5}, {"damping": 1.0}, {"damping": -0.2},
              {"damping": float("nan")}, {"epsilon": float("nan")},
              {"epsilon": -1e-9}, {"max_iterations": 0},
              {"max_iterations": -3}]
PAGERANK_SYSTEMS = ["gap", "graphbig", "graphmat", "powergraph"]


@pytest.mark.parametrize("params", BAD_PARAMS, ids=repr)
@pytest.mark.parametrize("system", ["reference"] + PAGERANK_SYSTEMS)
def test_bad_parameters_are_config_errors(system, params, kron10_csr,
                                          kron10_dataset):
    # At 3cce08a these returned negative "ranks", ran NaN thresholds
    # to the cap, or reported ``iterations == -3``.
    with pytest.raises(ConfigError, match=next(iter(params))):
        if system == "reference":
            pagerank(kron10_csr, **params)
        else:
            s = create_system(system)
            s.run(s.load(kron10_dataset), "pagerank", **params)


@pytest.mark.parametrize("system", ["reference"] + PAGERANK_SYSTEMS)
def test_graphalytics_parameters_stay_legal(system, kron10_csr,
                                            kron10_dataset):
    params = {"damping": 0.0, "epsilon": 0.0, "max_iterations": 1}
    if system == "reference":
        _, iterations = pagerank(kron10_csr, **params)
    else:
        s = create_system(system)
        iterations = s.run(s.load(kron10_dataset), "pagerank",
                           **params).iterations
    # PowerGraph counts its quiescence superstep.
    assert iterations == (2 if system == "powergraph" else 1)


def test_empty_graph():
    rank, it = pagerank(CSRGraph(row_ptr=np.array([0]),
                                 col_idx=np.array([], dtype=np.int64)))
    assert rank.size == 0
    assert it == 0


def test_higher_in_degree_higher_rank():
    """A hub with many in-links outranks leaves."""
    src = np.array([1, 2, 3, 4, 0])
    dst = np.array([0, 0, 0, 0, 1])
    csr = CSRGraph.from_arrays(src, dst, 5)
    rank, _ = pagerank(csr)
    assert rank[0] == rank.max()


def test_kron10_golden_bytes(kron10_csr):
    """The sweep rewrite changed no bit: 132 dangling vertices, parallel
    arcs and self-loops all flow through this fixture."""
    rank, it = pagerank(kron10_csr)
    assert it == KRON10_ITERATIONS
    assert hashlib.sha256(rank.tobytes()).hexdigest() == KRON10_RANKS_SHA256


def test_warm_from_uniform_is_cold(kron10_csr):
    n = kron10_csr.n_vertices
    cold, it_cold = pagerank(kron10_csr)
    start = np.full(n, 1.0 / n)
    warm, it_warm = pagerank_warm(kron10_csr, start)
    assert it_warm == it_cold
    assert warm.tobytes() == cold.tobytes()
    assert start.tobytes() == np.full(n, 1.0 / n).tobytes()  # not mutated


def test_dangling_vertices_raise_no_divide_warning():
    """Sinks and isolated vertices have out-degree 0; the per-vertex
    share must not compute (or warn about) ``rank / 0`` for them."""
    csr = CSRGraph.from_arrays(np.array([0, 1, 1]), np.array([1, 2, 2]), 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rank, _ = pagerank(csr)
        warm, _ = pagerank_warm(csr, rank)
    assert np.isfinite(rank).all() and np.isfinite(warm).all()
    assert rank.sum() == pytest.approx(1.0, abs=1e-9)


_doubles = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False, width=64))


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), _doubles), max_size=60))))
@settings(max_examples=300, deadline=None)
def test_ordered_sum_is_add_at_into_zeros(case):
    """The sweep's ``bincount(weights=)`` adds the same doubles in the
    same left-to-right order as ``np.add.at`` into zeros -- bit for bit,
    duplicates, cancellation and signed zeros included."""
    n, pairs = case
    idx = np.array([i for i, _ in pairs], dtype=np.int64)
    values = np.array([v for _, v in pairs], dtype=np.float64)
    want = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):  # huge draws
        np.add.at(want, idx, values)
        got = np.bincount(idx, weights=values, minlength=n)
    assert got.tobytes() == want.tobytes()
