"""Tests for the SNAP text format reader/writer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.formats import write_edge_rows
from repro.datasets.snap import read_snap, sniff_snap
from repro.errors import GraphFormatError
from repro.graph.edgelist import EdgeList


def write_snap(edges, path, comments=()):
    """Write ``edges`` as a SNAP-format text file, counts in the header."""
    path.parent.mkdir(parents=True, exist_ok=True)
    header = [f"# {c}" for c in (
        f"Nodes: {edges.n_vertices} Edges: {edges.n_edges}",
        "Directed" if edges.directed else "Undirected",
        *comments,
    )]
    with path.open("wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("utf-8"))
        write_edge_rows(fh, edges, "\t")
    return path


def test_roundtrip_unweighted(tmp_path, patents_small):
    p = write_snap(patents_small, tmp_path / "g.txt")
    back = read_snap(p, directed=True)
    assert back.n_edges == patents_small.n_edges
    # ids are compacted but may not span [0, n) in the original.
    assert back.n_vertices <= patents_small.n_vertices
    assert not back.weighted


def test_roundtrip_weighted(tmp_path, dota_small):
    p = write_snap(dota_small, tmp_path / "dota.txt")
    back = read_snap(p, directed=False)
    assert back.weighted
    assert back.n_edges == dota_small.n_edges
    assert np.allclose(np.sort(back.weights), np.sort(dota_small.weights))


def test_comments_ignored(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("# comment\n# Nodes: 3\n0 1\n1 2\n")
    el = read_snap(p)
    assert el.n_edges == 2


def test_id_compaction(tmp_path):
    p = tmp_path / "gap_ids.txt"
    p.write_text("10 500\n500 9000\n")
    el = read_snap(p)
    assert el.n_vertices == 3
    assert sorted(set(el.src.tolist() + el.dst.tolist())) == [0, 1, 2]


def test_compaction_preserves_order(tmp_path):
    p = tmp_path / "o.txt"
    p.write_text("7 3\n3 7\n")
    el = read_snap(p)
    # 3 -> 0, 7 -> 1 (numeric order preserved).
    assert el.src.tolist() == [1, 0]
    assert el.dst.tolist() == [0, 1]


def test_empty_file(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("# nothing\n")
    el = read_snap(p)
    assert el.n_edges == 0
    assert el.n_vertices == 0


def test_rejects_bad_columns(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 2 3 4\n")
    with pytest.raises(GraphFormatError):
        read_snap(p)

    p2 = tmp_path / "bad2.txt"
    p2.write_text("1\n")
    with pytest.raises(GraphFormatError):
        read_snap(p2)


def test_rejects_negative_ids(tmp_path):
    p = tmp_path / "neg.txt"
    p.write_text("0 1\n-1 2\n")
    with pytest.raises(GraphFormatError):
        read_snap(p)


def test_rejects_fractional_ids(tmp_path):
    p = tmp_path / "frac.txt"
    p.write_text("0.5 1\n")
    with pytest.raises(GraphFormatError):
        read_snap(p)


def test_sniff(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("# hello\n0 1 2.5\n")
    info = sniff_snap(p)
    assert info["weighted"]
    assert info["comments"] == ["hello"]


@given(n=st.integers(2, 30), seed=st.integers(0, 2**31))
@settings(max_examples=15, deadline=None)
def test_roundtrip_property(tmp_path_factory, n, seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 50))
    el = EdgeList(rng.integers(0, n, m), rng.integers(0, n, m), n,
                  weights=rng.uniform(0.1, 5.0, m), directed=True)
    p = tmp_path_factory.mktemp("snap") / "g.txt"
    write_snap(el, p)
    back = read_snap(p)
    assert back.n_edges == el.n_edges
    # Weights survive a text roundtrip exactly (%.17g).
    assert np.allclose(np.sort(back.weights), np.sort(el.weights),
                       rtol=0, atol=0)
