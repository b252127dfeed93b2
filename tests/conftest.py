"""Shared fixtures.

Session-scoped graph/dataset fixtures keep the suite fast: the scale-10
Kronecker graph and its homogenized directory are built once and shared
by every system test.

Every test module runs under a leak guard: a module that leaves a shard
segment of this process or of an exited one in ``/dev/shm``, or a live
``epg-shard-*`` worker, once the collector has run, fails and names
what it left.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import re

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


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:         # alive, another user's
        pass
    return True


def leaked_segments(before: set[str]) -> list[str]:
    """The shard segments (``epg-<creator pid>-<token>``) made since
    ``before`` that are still there although their creator is this
    process or has exited.  A live process other than this one may be
    using its segments (a sharded run beside this one), so they are not
    this process's leaks."""
    leaked = []
    for name in sorted(_shm_entries() - before):
        match = re.fullmatch(r"epg-(\d+)-.+", name)
        if match and (int(match[1]) == os.getpid()
                      or not _alive(int(match[1]))):
            leaked.append(name)
    return leaked


@pytest.fixture(scope="module", autouse=True)
def leak_guard():
    """Fail the module if it leaves shard-engine state behind: a
    leaked ``/dev/shm`` segment (:func:`leaked_segments`) or a live
    ``epg-shard-*`` child process."""
    before = _shm_entries()
    yield
    gc.collect()
    shm = leaked_segments(before)
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
