"""The three system PageRanks sum in arc order, whatever sums them.

GAP's block Gauss-Seidel, GraphBIG's Jacobi and the PowerGraph toolkit
sweep accumulated with ``np.add.at`` until they moved to the ordered
``np.bincount(..., weights=...)`` the reference PageRank already used.
The digests below -- sha256 of the rank vector's bytes and the iteration
count -- were pinned at commit f305889, before that edit; a sum that
associates differently changes low-order bits and fails here.

``FULL_GOLDENS`` were pinned at commit 3cce08a, the last one whose
sweeps were gathers and a ``bincount``, before they moved to
:func:`repro.graph.frontier.arc_sum_operator`.  Each covers the rank
bytes, the iteration count, the ``WorkProfile`` arrays and the
simulated ``time_s``, for the default stop and for the Graphalytics
fixed-iteration path, on the two datasets above and on two hand-built
multigraphs that reach the corners a generated graph may not.
"""

import hashlib
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.homogenize import homogenize
from repro.graph.edgelist import EdgeList
from repro.systems import create_system

GOLDENS = {
    "kron10/gap":
        "599ebb9468a33d7808b69eca7a9334c783cc2841fda8345a592b1472d7d4f345",
    "kron10/graphbig":
        "33c9292c9ced38f9f700012b4e7585a28b29b4330f4f73d8bf3d7f430663a5c6",
    "kron10/powergraph":
        "4f2f85736321ce07cfab577e8028ea14cc371596dadc03521aa6e94131dcb35f",
    "patents_small/gap":
        "6c74b14e9a9e790a78ae2b4f90c2599206bc4adcbb1b42b144172ba3741cecfb",
    "patents_small/graphbig":
        "f80e5b7b7e567234ce772d189358bb50e670a8f53f7707693197c59f3844d011",
    "patents_small/powergraph":
        "a75bb8645d6d0088e66a4d85cce1aaaad197487be434c164dc99e3414148b4dd",
}


@pytest.mark.parametrize("system", ["gap", "graphbig", "powergraph"])
@pytest.mark.parametrize("graph", ["kron10", "patents_small"])
def test_pagerank_bytes_pinned(graph, system, kron10_dataset,
                               patents_dataset):
    dataset = {"kron10": kron10_dataset,
               "patents_small": patents_dataset}[graph]
    s = create_system(system)
    res = s.run(s.load(dataset), "pagerank")
    h = hashlib.sha256(np.ascontiguousarray(res.output["rank"]).tobytes())
    h.update(repr(res.iterations).encode())
    assert h.hexdigest() == GOLDENS[f"{graph}/{system}"]


# ----------------------------------------------------------------------
# Ranks + iterations + WorkProfile + time_s, two stopping rules
# ----------------------------------------------------------------------
#: 11 vertices (not a multiple of GAP's 8 blocks): parallel arcs 0->1
#: and 6->7, self-loop 2->2, dangling 4 (in-arcs only), isolated 8.
MULTI11 = ([0, 0, 0, 1, 2, 2, 3, 3, 3, 6, 6, 7, 9, 9, 10, 0, 5],
           [1, 1, 2, 2, 2, 0, 0, 1, 4, 7, 7, 6, 10, 0, 9, 10, 0])
#: 5 vertices: three of GAP's eight blocks are empty.
MULTI5 = ([0, 0, 1, 3, 3, 3], [1, 1, 3, 3, 0, 4])

VARIANTS = {"default": {},
            "graphalytics": {"epsilon": 0.0, "max_iterations": 10}}

FULL_GOLDENS = json.loads(
    (Path(__file__).parent / "pagerank_goldens.json").read_text())


@pytest.fixture(scope="module")
def datasets(kron10_dataset, patents_dataset, tmp_path_factory):
    out = {"kron10": kron10_dataset, "patents_small": patents_dataset}
    for name, n, (src, dst) in (("multi11", 11, MULTI11),
                                ("multi5", 5, MULTI5)):
        el = EdgeList(np.array(src), np.array(dst), n, directed=True,
                      name=name)
        out[name] = homogenize(el, tmp_path_factory.mktemp(name))
    return out


def full_digest(res) -> str:
    h = hashlib.sha256(np.ascontiguousarray(res.output["rank"]).tobytes())
    h.update(repr(res.iterations).encode())
    for _, a in sorted(res.profile.to_arrays().items()):
        h.update(a.tobytes())
    h.update(repr(res.profile.serial_units).encode())
    h.update(repr(res.time_s).encode())
    return h.hexdigest()


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("system",
                         ["gap", "graphbig", "powergraph", "graphmat"])
@pytest.mark.parametrize(
    "graph", ["kron10", "patents_small", "multi11", "multi5"])
def test_pagerank_run_pinned(graph, system, variant, datasets):
    s = create_system(system)
    loaded = s.load(datasets[graph])
    if graph == "multi11":  # parallel arcs and the self-loop survive
        assert loaded.n_arcs == len(MULTI11[0])
    res = s.run(loaded, "pagerank", **VARIANTS[variant])
    assert full_digest(res) == FULL_GOLDENS[f"{graph}/{system}/{variant}"]


@pytest.mark.parametrize("system", ["gap", "graphbig", "powergraph"])
def test_two_threads_one_resident_graph(system, datasets):
    """Two threads sweep one ``LoadedGraph`` at once -- the daemon's
    ``--workers 2`` shape, which once raced on ``KernelScratch`` -- and
    both get the single-thread bytes.  It holds because the sum operator
    is built per call and dropped on return: a sweep shares nothing with
    its neighbour but the read-only CSR.
    """
    s = create_system(system)
    loaded = s.load(datasets["kron10"])
    start = threading.Barrier(2)
    digests = []

    def sweep():
        start.wait(timeout=60)
        for _ in range(3):
            digests.append(full_digest(s.run(loaded, "pagerank")))

    threads = [threading.Thread(target=sweep) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert digests == [FULL_GOLDENS[f"kron10/{system}/default"]] * 6
