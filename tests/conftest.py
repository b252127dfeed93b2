"""Shared fixtures.

Session-scoped graph/dataset fixtures keep the suite fast: the scale-10
Kronecker graph and its homogenized directory are built once and shared
by every system test.

Every test module runs under a leak guard: a module that leaves a new
``/dev/shm`` entry or a live ``epg-shard-*`` worker behind, once the
collector has run, fails and names what it left.
"""

from __future__ import annotations

import gc
import multiprocessing
import os

import numpy as np
import pytest

from repro.datasets.homogenize import homogenize
from repro.datasets.kronecker import KroneckerSpec, generate_kronecker
from repro.datasets.realworld import cit_patents, dota_league
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList

SHM = "/dev/shm"


def _shm_entries() -> set[str]:
    return set(os.listdir(SHM)) if os.path.isdir(SHM) else set()


@pytest.fixture(scope="module", autouse=True)
def leak_guard():
    """Fail the module if it leaves shard-engine state behind: a new
    ``/dev/shm`` entry or a live ``epg-shard-*`` child process."""
    before = _shm_entries()
    yield
    gc.collect()
    shm = sorted(_shm_entries() - before)
    workers = sorted(p.name for p in multiprocessing.active_children()
                     if p.name.startswith("epg-shard-"))
    if shm or workers:
        pytest.fail(f"module left behind: /dev/shm entries {shm}, "
                    f"shard workers {workers}", pytrace=False)


@pytest.fixture(scope="session")
def kron10():
    """Weighted scale-10 Kronecker edge list (1024 vertices)."""
    return generate_kronecker(KroneckerSpec(scale=10, weighted=True))


@pytest.fixture(scope="session")
def kron10_unweighted():
    """Unweighted paper-seed scale-10 Kronecker edge list."""
    return generate_kronecker(KroneckerSpec(scale=10))


@pytest.fixture(scope="session")
def kron10_csr(kron10):
    """Symmetrized CSR of the scale-10 graph (the reference view)."""
    return CSRGraph.from_edge_list(kron10, symmetrize=True)


@pytest.fixture(scope="session")
def kron10_dataset(kron10, tmp_path_factory):
    """Homogenized dataset directory for the scale-10 graph."""
    out = tmp_path_factory.mktemp("homog")
    return homogenize(kron10, out)


@pytest.fixture(scope="session")
def patents_small():
    """Small synthetic cit-Patents (directed, unweighted)."""
    return cit_patents(1.0 / 1024.0)


@pytest.fixture(scope="session")
def dota_small():
    """Small synthetic dota-league (undirected, weighted, dense)."""
    return dota_league(1.0 / 512.0)


@pytest.fixture(scope="session")
def patents_dataset(patents_small, tmp_path_factory):
    return homogenize(patents_small, tmp_path_factory.mktemp("patents"))


@pytest.fixture(scope="session")
def dota_dataset(dota_small, tmp_path_factory):
    return homogenize(dota_small, tmp_path_factory.mktemp("dota"))


@pytest.fixture
def tiny_edges():
    """A 6-vertex hand-checkable weighted graph.

    0-1, 0-2, 1-2, 2-3, 3-4 (undirected); 5 isolated.
    """
    src = np.array([0, 0, 1, 2, 3])
    dst = np.array([1, 2, 2, 3, 4])
    w = np.array([1.0, 4.0, 1.0, 1.0, 2.0])
    return EdgeList(src, dst, 6, weights=w, directed=False, name="tiny")


@pytest.fixture
def tiny_csr(tiny_edges):
    return CSRGraph.from_edge_list(tiny_edges, symmetrize=True)
