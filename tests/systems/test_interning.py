"""Loads that share a ``built`` dict hold each distinct array once.

``GraphSystem.load(dataset, built=...)`` interns every array ``_build``
returns (``repro.systems.base._interned``): an array whose dtype, shape
and raw bytes equal those of one already in the dict is replaced by
that read-only canonical array.  On one dataset the five systems store
the same symmetrized CSR several times over, so most arrays meet an
equal one.  Interning is an execution detail: every kernel of every
system must report the bytes it reports on a load without ``built``.
"""

import itertools
from dataclasses import dataclass

import numpy as np
import pytest

import repro.systems.base as base
from repro.systems import create_system
from repro.systems.base import ROOTED_ALGORITHMS, LoadedGraph
from tests.systems.test_structural_goldens import run_digest

#: (label, system, constructor knobs).  GAP's int32 build shares its
#: CSR with the float64 one but not its truncated weights.
LOADERS = (("gap", "gap", {}),
           ("gap-int32", "gap", {"weight_dtype": "int32"}),
           ("graph500", "graph500", {}), ("graphbig", "graphbig", {}),
           ("graphmat", "graphmat", {}), ("powergraph", "powergraph", {}))
GRAPHS = ("kron10", "dota_small", "patents_small")


@dataclass
class Load:
    """One system's load with the shared ``built`` and one without."""

    system: str
    shared: LoadedGraph
    shared_arrays: dict
    plain: LoadedGraph
    plain_arrays: dict


@pytest.fixture(scope="module")
def loads(kron10_dataset, dota_dataset, patents_dataset):
    """``graph -> (label -> Load, built, two roots)``: every system on
    one dataset loaded with one ``built`` dict, each array map
    ``_assemble`` got recorded."""
    datasets = {"kron10": kron10_dataset, "dota_small": dota_dataset,
                "patents_small": patents_dataset}
    intern, seen = base._interned, []

    def recorded(arrays, built):
        seen.append(intern(arrays, built))
        return seen[-1]

    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(base, "_interned", recorded)
        for graph, dataset in datasets.items():
            built: dict = {}
            by_label = {}
            for label, system, knobs in LOADERS:
                if system == "graph500" and graph != "kron10":
                    continue    # it runs only its own Kronecker graphs
                shared = create_system(system, **knobs).load(dataset,
                                                             built=built)
                shared_arrays = seen[-1]
                plain = create_system(system, **knobs).load(dataset)
                by_label[label] = Load(system, shared, shared_arrays,
                                       plain, seen[-1])
            out[graph] = by_label, built, [int(r) for r in
                                           dataset.roots[:2]]
    return out


def _shared_arrays(by_label):
    return [a for load in by_label.values()
            for a in load.shared_arrays.values()]


def _same(a, b) -> bool:
    return (a.dtype.str == b.dtype.str and a.shape == b.shape
            and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("graph", GRAPHS)
def test_equal_bytes_are_one_object(graph, loads):
    by_label, built, _ = loads[graph]
    arrays = _shared_arrays(by_label)
    for a, b in itertools.combinations(arrays, 2):
        assert (a is b) == _same(a, b)
    canonical = [a for key, bucket in built.items()
                 if key[0] == "interned" for a in bucket]
    assert {id(a) for a in arrays} == {id(a) for a in canonical}
    assert len(canonical) < len(arrays)       # something was shared


def test_gap_undirected_transpose_is_its_own_csr(loads):
    """Undirected input: GAP's in-arcs are the out-arcs' own pattern.
    Their weights are too unless parallel arcs carry distinct weights,
    which the transpose lists in another order (Kronecker, not dota)."""
    for graph in ("kron10", "dota_small"):
        data = loads[graph][0]["gap"].shared.data
        assert data.inn.row_ptr is data.out.row_ptr
        assert data.inn.col_idx is data.out.col_idx
    data = loads["dota_small"][0]["gap"].shared.data
    assert data.inn.weights is data.out.weights
    data = loads["patents_small"][0]["gap"].shared.data
    assert data.inn.col_idx is not data.out.col_idx


@pytest.mark.parametrize("graph", GRAPHS)
def test_interned_arrays_are_read_only_and_equal_the_plain_ones(graph,
                                                                loads):
    by_label, *_ = loads[graph]
    for load in by_label.values():
        assert load.shared_arrays.keys() == load.plain_arrays.keys()
        for name, array in load.shared_arrays.items():
            assert _same(array, load.plain_arrays[name])
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0
        assert any(a.flags.writeable for a in load.plain_arrays.values())


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("label", [label for label, *_ in LOADERS])
def test_every_kernel_reports_the_plain_bytes(graph, label, loads):
    by_label, _, roots = loads[graph]
    if label not in by_label:
        pytest.skip(f"{label} does not load {graph}")
    load = by_label[label]
    for algorithm in sorted(create_system(load.system).provides):
        for params in ([{"root": r} for r in roots]
                       if algorithm in ROOTED_ALGORITHMS else [{}]):
            assert (run_digest(load.system, algorithm, params, load.shared)
                    == run_digest(load.system, algorithm, params,
                                  load.plain)), (algorithm, params)


def test_interning_compares_bytes_not_values():
    built: dict = {}
    pos, neg = np.array([0.0, 1.0]), np.array([-0.0, 1.0])
    got = base._interned({"pos": pos, "neg": neg}, built)
    assert got["pos"] is pos and got["neg"] is neg     # 0.0 == -0.0
    nan = np.array([np.nan, 2.0])
    got = base._interned({"a": nan, "b": nan.copy()}, built)
    assert got["a"] is nan and got["b"] is nan         # nan != nan
    zeros = np.zeros(4)
    got = base._interned({"f8": zeros, "i8": np.zeros(4, np.int64),
                          "2x2": np.zeros((2, 2)), "again": zeros.copy()},
                         built)
    assert got["i8"] is not zeros and got["2x2"] is not zeros
    assert got["again"] is zeros


def test_a_difference_past_the_first_chunk_keeps_arrays_apart(monkeypatch):
    monkeypatch.setattr(base, "_COMPARE_CHUNK", 8)
    first = np.arange(10, dtype=np.int64)
    last = first.copy()
    last[-1] = 0
    got = base._interned({"first": first, "last": last,
                          "same": first.copy()}, {})
    assert got["last"] is last and got["same"] is first


def test_no_built_dict_interns_nothing():
    arrays = {"a": np.zeros(3), "b": np.zeros(3)}
    assert base._interned(arrays, None) is arrays
    assert arrays["a"].flags.writeable and arrays["b"] is not arrays["a"]
