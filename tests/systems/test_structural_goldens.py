"""Every structural kernel of every system, pinned before one body served them.

k-core, MIS, Shiloach-Vishkin, Afforest and LCC were once typed two to
four times, one copy per system, differing only in how each system
priced a round.  The digests in ``structural_goldens.json`` were pinned
at commit f1f6d1b, the last one with those copies, before each
algorithm moved to one body under :mod:`repro.algorithms` with the
systems keeping only their pricing.  Which body computes an answer must
change nothing a run reports, so each digest covers the output bytes,
the iteration count, the ``WorkProfile`` arrays and ``serial_units``,
the simulated ``time_s`` and the stats counters of one
``(graph, system, algorithm, params)`` cell.

Every provided cell of {kcore, mis, cc, wcc, lcc, cdlp} x {gap,
graphbig, graphmat, powergraph} is pinned -- the ones that kept their
own algorithm (GraphMat's SpMV kernels, the hash-min and GAS WCCs) too,
so these prove they did not move.  The CDLP cells and the reference
:func:`~repro.algorithms.cdlp.cdlp` were added at commit fef6672, before
GraphMat's k-core, MIS and WCC and GraphBIG's WCC moved onto the shared
bodies and the four CDLP loops became one.  Beside the two generated datasets
(undirected ``kron10``, directed ``patents_small``) sit a hand-built
directed multigraph and an edgeless graph, for the corners a generated
graph may not reach.
"""

import hashlib
import json
import types
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.cdlp import cdlp
from repro.datasets.homogenize import homogenize
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.systems import create_system
from repro.systems.base import LoadedGraph

#: 10 vertices, directed: parallel 0->1 twice, anti-parallel 1->0 and
#: 3 <-> 5, self-loops 2->2, 4->4 and 7->7, a 4-clique on 0-3 (core 3),
#: the triangle 3-4-5, a tail 5->6->7->6 with parallel 8->6, and the
#: isolated max-id vertex 9.
MULTI10 = ([0, 0, 1, 1, 2, 2, 2, 0, 1, 3, 4, 5, 3, 4, 5, 6, 7, 7, 8, 8],
           [1, 1, 0, 2, 0, 2, 3, 3, 3, 4, 5, 3, 5, 4, 6, 7, 6, 7, 6, 6])
EDGELESS_N = 5

SYSTEMS = ("gap", "graphbig", "graphmat", "powergraph")
ALGORITHMS = ("kcore", "mis", "cc", "wcc", "lcc", "cdlp")

#: (system, algorithm, params) cells: every provided pair at its
#: defaults, plus the knobs the shared bodies resolve themselves.
RUNS = [(s, a, {}) for s in SYSTEMS for a in ALGORITHMS
        if a in create_system(s).provides]
RUNS += [(s, "mis", {"seed": 5}) for s in SYSTEMS]
RUNS += [("gap", "cc", {"neighbor_rounds": 1})]
RUNS += [(s, "cdlp", {"iterations": 3}) for s in SYSTEMS
         if "cdlp" in create_system(s).provides]

GRAPHS = ("kron10", "patents_small", "multi10", "edgeless")

GOLDENS = json.loads((Path(__file__).parent / "structural_goldens.json")
                     .read_text())


def cell_key(graph: str, system: str, algorithm: str, params: dict) -> str:
    knobs = "".join(f",{k}={v}" for k, v in sorted(params.items()))
    return f"{graph}/{system}/{algorithm}{knobs}"


def _load_edgeless(system: str) -> LoadedGraph:
    """Homogenization refuses a graph with no root to pick, so the
    edgeless graph goes straight through the system's build."""
    s = create_system(system)
    el = EdgeList(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                  EDGELESS_N, weights=np.empty(0), directed=False,
                  name="edgeless")
    arrays, meta, _ = s._build(el, types.SimpleNamespace(directed=False))
    data = s._assemble(arrays, meta)
    return LoadedGraph(system=system, name="edgeless",
                       n_vertices=EDGELESS_N, n_arcs=s._n_arcs(data),
                       directed=False, weighted=True, read_s=0.0,
                       build_s=0.0, data=data)


@pytest.fixture(scope="module")
def loaded(kron10_dataset, patents_dataset, tmp_path_factory):
    """``(graph, system) -> LoadedGraph``, each built once."""
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


def run_digest(system: str, algorithm: str, params: dict,
               loaded_graph: LoadedGraph) -> str:
    """sha256 over one run's outputs, profile, time and stats."""
    res = create_system(system).run(loaded_graph, algorithm, **params)
    h = hashlib.sha256()
    for key in sorted(res.output):
        h.update(key.encode())
        h.update(np.ascontiguousarray(res.output[key]).tobytes())
    h.update(repr(res.iterations).encode())
    for _, a in sorted(res.profile.to_arrays().items()):
        h.update(a.tobytes())
    h.update(repr(res.profile.serial_units).encode())
    h.update(repr(res.time_s).encode())
    h.update(repr(sorted(res.counters.items())).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "system,algorithm,params", RUNS,
    ids=[f"{s}-{a}" + "".join(f"-{k}{v}" for k, v in sorted(p.items()))
         for s, a, p in RUNS])
@pytest.mark.parametrize("graph", GRAPHS)
def test_run_pinned(graph, system, algorithm, params, loaded):
    assert run_digest(system, algorithm, params, loaded[graph, system]) == \
        GOLDENS[cell_key(graph, system, algorithm, params)]


@pytest.mark.parametrize("iterations", [10, 3])
@pytest.mark.parametrize("graph", GRAPHS)
def test_reference_cdlp_pinned(graph, iterations, loaded):
    """The reference CDLP over the arcs GraphBIG stores (its CSR is the
    reference view: symmetrized on undirected input)."""
    out = loaded[graph, "graphbig"].data.out
    csr = CSRGraph(row_ptr=out.row_ptr, col_idx=out.col_idx)
    labels = cdlp(csr, iterations)
    assert hashlib.sha256(labels.tobytes()).hexdigest() == \
        GOLDENS[cell_key(graph, "reference", "cdlp",
                         {"iterations": iterations})]


def test_multigraph_reaches_the_system_intact(loaded):
    """The parallel arcs and self-loops survive homogenization, so the
    goldens above really run over them."""
    assert loaded["multi10", "graphbig"].n_arcs == len(MULTI10[0])
    assert loaded["edgeless", "graphbig"].n_arcs == 0
