"""Regression tests for the SpGEMM row-block (``batch_rows``) guards.

Before the guard, a non-positive ``batch_rows`` silently produced an
empty ``range`` -- the kernels returned all-zero clustering / triangle
counts instead of failing -- and a width past ``n`` silently clamped.
Both are configuration errors now (:func:`resolve_batch_rows`), in
both batched kernels: ``triangle_count`` and ``clustering_blocks``, the
one LCC body every system runs at its default width.
"""

import numpy as np
import pytest

from repro.algorithms.lcc import clustering_blocks
from repro.algorithms.tc import triangle_count
from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.graph.frontier import resolve_batch_rows


@pytest.fixture(scope="module")
def small_csr():
    src = np.array([0, 0, 1, 2, 3], dtype=np.int64)
    dst = np.array([1, 2, 2, 3, 0], dtype=np.int64)
    return CSRGraph.from_arrays(src, dst, 5)


BAD_WIDTHS = (0, -1, -2048)


def local_clustering(csr, batch_rows=None):
    return clustering_blocks(csr.source_ids(), csr.col_idx,
                             csr.n_vertices, batch_rows)[0]


def test_resolve_batch_rows_contract():
    assert resolve_batch_rows(None, 10) == 10
    assert resolve_batch_rows(None, 10_000) == 2048
    assert resolve_batch_rows(None, 0) == 1  # empty graphs stay iterable
    assert resolve_batch_rows(7, 10) == 7
    assert resolve_batch_rows(10, 10) == 10
    for bad in (*BAD_WIDTHS, 11):
        with pytest.raises(ConfigError):
            resolve_batch_rows(bad, 10)


@pytest.mark.parametrize("bad", BAD_WIDTHS)
def test_reference_kernels_reject_bad_widths(small_csr, bad):
    with pytest.raises(ConfigError):
        triangle_count(small_csr, batch_rows=bad)
    with pytest.raises(ConfigError):
        local_clustering(small_csr, batch_rows=bad)


def test_reference_kernels_reject_width_past_n(small_csr):
    n = small_csr.n_vertices
    with pytest.raises(ConfigError):
        triangle_count(small_csr, batch_rows=n + 1)
    with pytest.raises(ConfigError):
        local_clustering(small_csr, batch_rows=n + 1)


def test_reference_kernels_accept_explicit_valid_width(small_csr):
    want_tc = triangle_count(small_csr)
    want_lcc = local_clustering(small_csr)
    for width in (1, 2, small_csr.n_vertices):
        assert triangle_count(small_csr, batch_rows=width) == want_tc
        assert np.array_equal(local_clustering(small_csr,
                                               batch_rows=width),
                              want_lcc)
