"""GraphMat-specific behaviour: SpMV over the DCSR row index, phases,
f32 PageRank."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.systems import create_system


@pytest.fixture(scope="module")
def gmat(kron10_dataset):
    s = create_system("graphmat", n_threads=32)
    return s, s.load(kron10_dataset)


class TestStructure:
    def test_uses_dcsr(self, gmat):
        """The DCSR row index is the transpose's non-empty rows."""
        _, loaded = gmat
        at = loaded.data.at
        assert isinstance(at, CSRGraph) and loaded.data.at_sym is at
        rows, starts = at.pull_rows()
        assert np.array_equal(rows, np.flatnonzero(at.out_degrees()))
        assert np.array_equal(starts, at.row_ptr[rows])

    def test_transpose_stored(self, gmat, kron10_csr):
        """GraphMat pulls along in-edges: the matrix is A^T."""
        _, loaded = gmat
        at = loaded.data.at
        in_degrees = np.bincount(kron10_csr.col_idx,
                                 minlength=kron10_csr.n_vertices)
        assert np.array_equal(np.sort(at.out_degrees()),
                              np.sort(in_degrees))


class TestPagerankCriterion:
    def test_most_iterations_of_all_systems(self, kron10_dataset):
        """Fig 4: GraphMat's no-change criterion needs the most sweeps;
        GAP's Gauss-Seidel the fewest."""
        iters = {}
        for name in ("gap", "graphbig", "graphmat", "powergraph"):
            s = create_system(name)
            loaded = s.load(kron10_dataset)
            iters[name] = s.run(loaded, "pagerank").iterations
        assert iters["graphmat"] == max(iters.values())
        assert iters["gap"] == min(iters.values())
        assert iters["graphmat"] > 1.3 * iters["graphbig"]

    def test_float32_limit_cycle_stops_the_run(self, tmp_path):
        """Kronecker scale 13, seed 7 never reaches a fixpoint: a few
        ranks toggle by more than an ulp, and sweep 35 stores the
        vector sweep 33 stored.  The run stops there, not at the cap."""
        from repro.datasets.homogenize import homogenize
        from repro.datasets.kronecker import (KroneckerSpec,
                                              generate_kronecker)

        ds = homogenize(generate_kronecker(
            KroneckerSpec(scale=13, seed=7, weighted=True)), tmp_path,
            n_roots=4)
        s = create_system("graphmat")
        loaded = s.load(ds)
        full = s.run(loaded, "pagerank", max_iterations=1000)
        assert full.iterations == 35 < 1000
        at_33, at_34 = (s.run(loaded, "pagerank", max_iterations=k)
                        for k in (33, 34))
        assert at_33.iterations == 33
        assert np.array_equal(full.output["rank"], at_33.output["rank"])
        assert not np.array_equal(at_34.output["rank"],
                                  at_33.output["rank"])

    def test_epsilon_parameter_ignored(self, gmat):
        """Sec. IV-A: 'with GraphMat there is no computation of
        |p_k - p_k'|' -- the homogenized epsilon cannot be applied."""
        s, loaded = gmat
        a = s.run(loaded, "pagerank", epsilon=0.5)
        b = s.run(loaded, "pagerank", epsilon=1e-300)
        assert a.iterations == b.iterations

    def test_float32_output(self, gmat):
        """Ranks pass through float32: they carry at most f32 precision
        but are still a probability vector."""
        s, loaded = gmat
        r = s.run(loaded, "pagerank").output["rank"]
        assert r.sum() == pytest.approx(1.0, abs=1e-4)


class TestPhases:
    def test_log_block_matches_excerpt_shape(self, gmat, tmp_path):
        from repro.core.logs import LogWriter, parse_log

        s, loaded = gmat
        res = s.run(loaded, "pagerank")
        phases = s.untimed_phases(loaded, loaded.build_s)
        assert phases["init"] < 1e-3
        assert phases["degree"] == pytest.approx(0.05 * loaded.build_s)
        w = LogWriter("graphmat", "kron", 32, "pagerank")
        w.native(read=loaded.read_s, load=loaded.read_s + loaded.build_s,
                 time=res.time_s, **phases)
        assert w.lines[5].startswith("run algorithm 2 (compute PageRank)")
        records = {r.metric: r.value
                   for r in parse_log(w.write(tmp_path / "gm.log"))}
        # "load graph" includes the file read (the Table I flaw source).
        assert records["load"] >= records["read"]
        assert records["time"] == pytest.approx(res.time_s, rel=1e-5)

    def test_binary_read_faster_than_text(self, kron10_dataset):
        """The homogenizer writes GraphMat's binary format precisely so
        file I/O is fast (Sec. III-B)."""
        gm = create_system("graphmat").load(kron10_dataset)
        gap = create_system("gap").load(kron10_dataset)
        gm_rate = gm.input_bytes / gm.read_s
        gap_rate = gap.input_bytes / gap.read_s
        assert gm_rate > gap_rate


class TestSpmvKernels:
    def test_bfs_counts_masked_nnz(self, gmat, kron10_dataset):
        """Masked SpMV: total touched entries ~ one pass over nnz."""
        s, loaded = gmat
        res = s.run(loaded, "bfs", root=int(kron10_dataset.roots[0]))
        nnz = loaded.data.at.n_edges
        n = loaded.data.n
        depth = res.counters["depth"]
        assert res.profile.total_units <= nnz + (depth + 1) * n + n

    def test_sssp_iterations_recorded(self, gmat, kron10_dataset):
        s, loaded = gmat
        res = s.run(loaded, "sssp", root=int(kron10_dataset.roots[0]))
        assert res.counters["iterations"] >= 1
