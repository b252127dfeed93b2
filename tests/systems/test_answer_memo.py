"""The answer memo of the shared bodies changes no reported byte.

``GraphSystem._answer`` keeps what ``peel_cores``, ``luby_rounds``,
``propagate_labels``, ``clustering_blocks`` and the simple view return
in the ``answers`` map of the ``DatasetSession`` the graph was loaded
in (``LoadedGraph.answers``), keyed by
the body, its parameters, ``n`` and a digest of the arcs in canonical
order.  Every platform storing the same arcs then shares one answer
and still prices it itself, so whichever platform runs first must not
matter: each one's output, iterations, profile, ``time_s`` and
counters are the bytes it gets with no memo.
"""

import dataclasses
import itertools
import types

import numpy as np
import pytest

import repro.systems.base as base
from repro.core.config import ExperimentConfig
from repro.core.experiment import Experiment
from repro.datasets.homogenize import homogenize
from repro.graph.edgelist import EdgeList
from repro.graphalytics.harness import GraphalyticsHarness
from repro.systems import create_system
from tests.systems.test_structural_goldens import (
    GRAPHS,
    MULTI10,
    RUNS,
    SYSTEMS,
    _load_edgeless,
    run_digest,
)

MEMOIZED = ("kcore", "mis", "cdlp", "lcc")
MEMO_RUNS = [(s, a, p) for s, a, p in RUNS if a in MEMOIZED]


@pytest.fixture(scope="module")
def plain(kron10_dataset, patents_dataset, tmp_path_factory):
    """``(graph, system) -> LoadedGraph``, each in its own session."""
    datasets = {"kron10": kron10_dataset, "patents_small": patents_dataset}
    src, dst = MULTI10
    el = EdgeList(np.array(src), np.array(dst), 10, directed=True,
                  name="multi10")
    datasets["multi10"] = homogenize(el, tmp_path_factory.mktemp("multi10"))
    out = {}
    for system in SYSTEMS:
        for graph, dataset in datasets.items():
            out[graph, system] = create_system(system).load(dataset)
        out["edgeless", system] = _load_edgeless(system)
    return out


@pytest.fixture(scope="module")
def unmemoized(plain):
    """The digest of every memoized cell run on an empty memo."""
    return {(graph, s, a, repr(p)):
            run_digest(s, a, p, with_memo(plain[graph, s], {}))
            for graph in GRAPHS for s, a, p in MEMO_RUNS}


def with_memo(loaded, memo: dict):
    """``loaded`` sharing ``memo``, as if loaded in a session whose
    ``answers`` map is ``memo``."""
    return dataclasses.replace(loaded, answers=memo)


@pytest.mark.parametrize("order", list(itertools.permutations(SYSTEMS)),
                         ids="-".join)
def test_every_platform_order_reports_the_unmemoized_bytes(
        order, plain, unmemoized):
    for graph in GRAPHS:
        memo: dict = {}
        for system in order:
            graph_view = with_memo(plain[graph, system], memo)
            for s, a, p in MEMO_RUNS:
                if s == system:
                    assert run_digest(s, a, p, graph_view) == \
                        unmemoized[graph, s, a, repr(p)], (graph, s, a, p)
        # One entry per (body, parameters): every platform hit.
        assert len(memo) == len({(a, repr(p)) for _, a, p in MEMO_RUNS}) + 1


def test_hit_arrays_are_read_only(plain):
    memo: dict = {}
    for system in ("graphbig", "graphmat"):     # graphmat's runs all hit
        loaded = with_memo(plain["kron10", system], memo)
        results = [create_system(system).run(loaded, a)
                   for a in ("kcore", "mis", "cdlp", "lcc")]
    for result in results:
        for array in result.output.values():
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
    for answer in memo.values():
        for item in answer if isinstance(answer, tuple) else (answer,):
            if isinstance(item, np.ndarray):
                assert not item.flags.writeable


def _loaded_arcs(system: str, src, dst, n: int, memo: dict):
    """``system`` built straight from the arcs, sharing ``memo``."""
    s = create_system(system)
    el = EdgeList(np.array(src), np.array(dst), n, weights=np.ones(len(src)),
                  directed=True, name="arcs")
    arrays, meta, _ = s._build(el, types.SimpleNamespace(directed=True))
    data = s._assemble(arrays, meta)
    return base.LoadedGraph(system=system, name="arcs", n_vertices=n,
                            n_arcs=s._n_arcs(data), directed=True,
                            weighted=True, read_s=0.0, build_s=0.0,
                            data=data, answers=memo)


def _output(system, loaded, algorithm, **params):
    return create_system(system).run(loaded, algorithm, **params).output


@pytest.mark.parametrize("algorithm", MEMOIZED)
def test_a_graph_one_arc_apart_misses(algorithm):
    src, dst = MULTI10
    moved = (src[:-1] + [9], dst[:-1] + [0])     # 8->6 becomes 9->0
    memo: dict = {}
    _output("graphbig", _loaded_arcs("graphbig", src, dst, 10, memo),
            algorithm)
    other = _output("graphmat",
                    _loaded_arcs("graphmat", *moved, 10, memo), algorithm)
    alone = _output("graphmat", _loaded_arcs("graphmat", *moved, 10, {}),
                    algorithm)
    for key in alone:
        assert np.array_equal(other[key], alone[key])
    assert len({digest for *_, digest in memo}) == 2


@pytest.mark.parametrize("algorithm,params", [
    ("cdlp", ({"iterations": 1}, {"iterations": 3})),
    ("mis", ({"seed": 1}, {"seed": 5})),
])
def test_other_parameters_miss(algorithm, params):
    memo: dict = {}
    loaded = _loaded_arcs("graphbig", *MULTI10, 10, memo)
    for knobs in params:
        want = _output("graphbig", _loaded_arcs("graphbig", *MULTI10, 10,
                                                {}), algorithm, **knobs)
        got = _output("graphbig", loaded, algorithm, **knobs)
        for key in want:
            assert np.array_equal(got[key], want[key])
    assert len([k for k in memo if k[0] != "simple_undirected_view"]) == 2


def _count_calls(monkeypatch, name: str) -> list:
    calls = []
    body = getattr(base, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return body(*args, **kwargs)

    monkeypatch.setattr(base, name, counted)
    return calls


def test_runner_shares_one_answer_across_systems(tmp_path, monkeypatch):
    peels = _count_calls(monkeypatch, "peel_cores")
    views = _count_calls(monkeypatch, "simple_undirected_view")
    cfg = ExperimentConfig(output_dir=tmp_path, scale=6, n_roots=1,
                           systems=SYSTEMS, algorithms=("kcore", "mis"),
                           jobs=1)
    Experiment(cfg).run_all()
    assert len(peels) == 1 and len(views) == 1


def test_harness_shares_one_answer_per_dataset(kron10_dataset,
                                               patents_dataset, monkeypatch):
    lccs = _count_calls(monkeypatch, "clustering_blocks")
    harness = GraphalyticsHarness()
    for dataset in (kron10_dataset, patents_dataset):
        harness.run_matrix(dataset, algorithms=("lcc",))
    assert len(lccs) == 2

