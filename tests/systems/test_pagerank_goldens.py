"""The three system PageRanks sum in arc order, whatever sums them.

GAP's block Gauss-Seidel, GraphBIG's Jacobi and the PowerGraph toolkit
sweep accumulated with ``np.add.at`` until they moved to the ordered
``np.bincount(..., weights=...)`` the reference PageRank already used.
The digests below -- sha256 of the rank vector's bytes and the iteration
count -- were pinned at commit f305889, before that edit; a sum that
associates differently changes low-order bits and fails here.
"""

import hashlib

import numpy as np
import pytest

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
