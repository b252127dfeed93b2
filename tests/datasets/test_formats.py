"""Round-trip tests of every per-system file format."""

import numpy as np
import pytest

from repro.datasets import formats
from repro.errors import GraphFormatError
from tests.datasets import text_formats


def _assert_same_edges(a, b, check_weights=True, f32=False):
    assert b.n_vertices == a.n_vertices
    assert b.n_edges == a.n_edges
    assert np.array_equal(b.src, a.src)
    assert np.array_equal(b.dst, a.dst)
    if check_weights and a.weighted:
        if f32:
            assert np.allclose(b.weights, a.weights, rtol=1e-6, atol=1e-6)
        else:
            assert np.array_equal(b.weights, a.weights)


def test_el_roundtrip(tmp_path, kron10):
    weighted = kron10  # kron10 fixture is weighted
    p = formats.write_el(weighted, tmp_path / "g.wel")
    back = text_formats.read_el(p, n_vertices=weighted.n_vertices)
    _assert_same_edges(weighted, back)


def test_el_unweighted(tmp_path, patents_small):
    p = formats.write_el(patents_small, tmp_path / "g.el")
    back = text_formats.read_el(p, n_vertices=patents_small.n_vertices)
    _assert_same_edges(patents_small, back)
    assert not back.weighted


def test_el_infers_vertex_count(tmp_path, tiny_edges):
    p = formats.write_el(tiny_edges, tmp_path / "t.el")
    back = text_formats.read_el(p)  # no n_vertices: max id + 1 = 5
    assert back.n_vertices == 5


def test_g500_roundtrip(tmp_path, kron10):
    p = formats.write_g500(kron10, tmp_path / "g.g500")
    back = formats.read_g500(p)
    _assert_same_edges(kron10, back)
    assert not back.directed  # generator dumps are undirected tuples


def test_g500_magic_check(tmp_path):
    p = tmp_path / "bad.g500"
    p.write_bytes(b"XXXXXXXXXX")
    with pytest.raises(GraphFormatError):
        formats.read_g500(p)


def test_graphbig_csv_roundtrip(tmp_path, kron10, recwarn):
    d = formats.write_graphbig_csv(kron10, tmp_path / "gbig")
    back = text_formats.read_graphbig_csv(d, directed=False)
    _assert_same_edges(kron10, back)
    assert (d / "vertex.csv").exists()
    assert (d / "edge.csv").exists()
    # The reader used to count vertex.csv's lines on a handle it never
    # closed: one leaked descriptor per GraphBIG load.
    assert not [w for w in recwarn if w.category is ResourceWarning]


def test_graphbig_missing_files(tmp_path):
    with pytest.raises(GraphFormatError):
        text_formats.read_graphbig_csv(tmp_path / "nope")


def test_graphmat_bin_roundtrip(tmp_path, kron10):
    p = formats.write_graphmat_bin(kron10, tmp_path / "g.mtxbin")
    back = formats.read_graphmat_bin(p, directed=False)
    # GraphMat stores float32 values: weights round to f32.
    _assert_same_edges(kron10, back, f32=True)


def test_graphmat_one_based_on_disk(tmp_path, tiny_edges):
    """The binary stores 1-based indices (Matrix Market convention)."""
    p = formats.write_graphmat_bin(tiny_edges, tmp_path / "t.mtxbin")
    raw = np.frombuffer(
        p.read_bytes()[8 + 17:],
        dtype=[("src", "<i4"), ("dst", "<i4"), ("val", "<f4")])
    assert raw["src"].min() >= 1
    back = formats.read_graphmat_bin(p)
    assert back.src.min() == 0


def test_graphmat_magic_check(tmp_path):
    p = tmp_path / "bad.mtxbin"
    p.write_bytes(b"ZZZZZZZZZZZZ")
    with pytest.raises(GraphFormatError):
        formats.read_graphmat_bin(p)


def test_powergraph_tsv_roundtrip(tmp_path, dota_small):
    p = formats.write_powergraph_tsv(dota_small, tmp_path / "g.tsv")
    back = text_formats.read_powergraph_tsv(
        p, n_vertices=dota_small.n_vertices)
    _assert_same_edges(dota_small, back)


def test_unweighted_graphmat_records_weight_one(tmp_path, patents_small):
    p = formats.write_graphmat_bin(patents_small, tmp_path / "p.mtxbin")
    back = formats.read_graphmat_bin(p)
    assert not back.weighted  # flag preserved
