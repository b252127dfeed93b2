"""Tests for phase 2 (dataset homogenization) and root selection."""

import json

import numpy as np
import pytest

from repro.datasets import formats
from repro.datasets.homogenize import (
    HomogenizedDataset,
    homogenize,
    load_manifest,
    select_roots,
)
from repro.errors import DatasetError
from repro.graph.edgelist import EdgeList
from tests.datasets import text_formats


class TestRootSelection:
    def test_32_roots_default(self, kron10):
        roots = select_roots(kron10)
        assert roots.size == 32

    def test_roots_have_degree_greater_than_one(self, kron10):
        """The Graph500 rule the paper adopts (Sec. III-B)."""
        deg = kron10.degrees()
        roots = select_roots(kron10)
        assert np.all(deg[roots] > 1)

    def test_deterministic(self, kron10):
        assert np.array_equal(select_roots(kron10, seed=9),
                              select_roots(kron10, seed=9))

    def test_no_replacement_when_possible(self, kron10):
        roots = select_roots(kron10)
        assert np.unique(roots).size == roots.size

    def test_replacement_fallback_tiny_graph(self):
        el = EdgeList(np.array([0, 1]), np.array([1, 0]), 2,
                      directed=False)
        roots = select_roots(el, n_roots=8)
        assert roots.size == 8

    def test_error_when_no_eligible_vertex(self):
        el = EdgeList(np.array([0]), np.array([1]), 3, directed=True)
        with pytest.raises(DatasetError):
            select_roots(el)


class TestHomogenize:
    def test_all_formats_written(self, kron10_dataset):
        assert list(kron10_dataset.files) == [
            "wel", "g500", "mtxbin", "tsv", "graphbig", "roots"]
        for key in kron10_dataset.files:
            assert kron10_dataset.path(key).exists(), key
        assert not list(kron10_dataset.directory.glob("*.el"))
        assert not list(kron10_dataset.directory.glob("*.sg"))
        assert not list(kron10_dataset.directory.glob("*.wsg"))

    def test_manifest_roundtrip(self, kron10_dataset):
        back = load_manifest(kron10_dataset.directory)
        assert back.name == kron10_dataset.name
        assert back.n_vertices == kron10_dataset.n_vertices
        assert np.array_equal(back.roots, kron10_dataset.roots)
        assert back.files == kron10_dataset.files

    def test_manifest_is_json(self, kron10_dataset):
        m = json.loads(
            (kron10_dataset.directory / "manifest.json").read_text())
        assert m["n_vertices"] == kron10_dataset.n_vertices

    def test_unknown_key_raises(self, kron10_dataset):
        with pytest.raises(DatasetError):
            kron10_dataset.path("nope")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError):
            load_manifest(tmp_path)

    def test_unweighted_input_gets_generated_weights(self, patents_small,
                                                     tmp_path):
        """SSSP on unweighted datasets uses generated uniform weights
        (the Graph500 convention) -- unlike Graphalytics' N/A."""
        h = homogenize(patents_small, tmp_path)
        wel = text_formats.read_el(h.path("wel"), n_vertices=h.n_vertices)
        assert wel.weighted
        assert np.all((wel.weights >= 0) & (wel.weights < 1))

    def test_weighted_input_weights_preserved(self, dota_small, tmp_path):
        h = homogenize(dota_small, tmp_path)
        wel = text_formats.read_el(h.path("wel"), n_vertices=h.n_vertices)
        assert np.array_equal(np.sort(wel.weights),
                              np.sort(dota_small.weights))

    def test_load_edges(self, kron10_dataset, kron10):
        el = kron10_dataset.load_edges()
        assert el.n_edges == kron10.n_edges

    def test_all_systems_see_identical_edges(self, kron10_dataset):
        """The point of homogenization: every format holds the same
        (weighted) edge multiset."""
        wel = text_formats.read_el(kron10_dataset.path("wel"),
                              n_vertices=kron10_dataset.n_vertices)
        gm = formats.read_graphmat_bin(kron10_dataset.path("mtxbin"))
        g5 = formats.read_g500(kron10_dataset.path("g500"))
        gb = text_formats.read_graphbig_csv(kron10_dataset.path("graphbig"))
        tsv = text_formats.read_el(kron10_dataset.path("tsv"),
                              n_vertices=kron10_dataset.n_vertices)
        base = sorted(zip(wel.src.tolist(), wel.dst.tolist()))
        for other in (gm, g5, gb, tsv):
            assert sorted(zip(other.src.tolist(),
                              other.dst.tolist())) == base

    def test_dataclass_type(self, kron10_dataset):
        assert isinstance(kron10_dataset, HomogenizedDataset)
