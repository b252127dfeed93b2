"""Replay an event stream through the incremental kernels.

:class:`StreamReplay` owns the dynamic graph and one incremental kernel
per requested algorithm, applies each batch, repairs, and (optionally)
checks every post-batch answer against the from-scratch oracle --
bit-identity for BFS/SSSP, the contraction bound for PageRank (see
``repro.algorithms.incremental``).  Every batch is a ``stream``-category
span in the run trace, and the replay maintains the ``epg_stream_*``
metric family:

=================================  =====================================
``epg_stream_batches_total``       batches applied
``epg_stream_arcs_inserted_total`` arcs newly present after a batch
``epg_stream_arcs_removed_total``  arcs actually deleted by a batch
``epg_stream_resettled_total``     vertices re-settled, labelled by
                                   ``algorithm`` (PageRank reports
                                   sweeps, its unit of repair work)
``epg_stream_checks_total``        oracle checks that passed
=================================  =====================================

All :class:`BatchResult` fields are deterministic counters -- no wall
times -- so the report section built from them stays byte-identical
across ``--jobs`` settings and hosts.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, fields

import numpy as np

from repro.algorithms.bfs import bfs_parents
from repro.algorithms.incremental import (
    IncrementalBFS,
    IncrementalPageRank,
    IncrementalSSSP,
    pagerank_l1_bound,
)
from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import sssp_dijkstra
from repro.errors import ConfigError, ValidationError
from repro.observability.tracer import Tracer
from repro.streaming.scenario import StreamScenario

__all__ = ["BatchResult", "StreamReplay", "write_results_csv",
           "ALGORITHMS"]

#: Algorithms the replay knows how to keep incrementally repaired.
ALGORITHMS = ("bfs", "sssp", "pagerank")


@dataclass(frozen=True)
class BatchResult:
    """Deterministic per-batch counters (CSV row of the stream report).

    ``-1`` marks counters of algorithms the replay was not asked to
    run, so rows always have the full column set.
    """

    batch: int
    n_inserted: int          #: arcs newly present (post-dedup)
    n_updated: int           #: existing arcs whose weight changed
    n_removed: int           #: arcs the delete phase removed
    n_arcs: int              #: live arc count after the batch
    bfs_cut: int = -1
    bfs_orphaned: int = -1
    bfs_resettled: int = -1
    bfs_reached: int = -1
    sssp_cut: int = -1
    sssp_orphaned: int = -1
    sssp_resettled: int = -1
    sssp_reached: int = -1
    pagerank_sweeps: int = -1
    checked: int = 0         #: oracle checks that passed for this batch


class StreamReplay:
    """Drive one scenario end to end.

    Parameters
    ----------
    scenario:
        A :class:`~repro.streaming.scenario.StreamScenario`.
    algorithms:
        Subset of :data:`ALGORITHMS` to keep repaired.  ``sssp``
        requires a weighted scenario.
    tracer:
        Optional :class:`~repro.observability.tracer.Tracer`; the null
        tracer is used when omitted.
    check:
        Recompute the from-scratch oracle after every batch and raise
        :class:`~repro.errors.ValidationError` on any divergence.
    """

    def __init__(self, scenario: StreamScenario, *,
                 algorithms=ALGORITHMS, tracer: Tracer | None = None,
                 check: bool = False):
        unknown = [a for a in algorithms if a not in ALGORITHMS]
        if unknown:
            raise ConfigError(
                f"unknown stream algorithms {unknown}; "
                f"choose from {list(ALGORITHMS)}")
        if len(set(algorithms)) != len(algorithms):
            raise ConfigError(f"repeated stream algorithm in {algorithms}")
        if not algorithms:
            raise ConfigError("stream replay needs at least one algorithm")
        if "sssp" in algorithms and not scenario.spec.weighted:
            raise ConfigError(
                "sssp needs a weighted stream (pass weighted=True)")
        self.scenario = scenario
        self.algorithms = tuple(algorithms)
        self.tracer = tracer if tracer is not None else Tracer()
        self.check = bool(check)
        self.results: list[BatchResult] = []
        self._graph = None
        self._kernels: dict[str, object] = {}

    # ------------------------------------------------------------------
    def _init_base(self) -> None:
        from repro.graph.dynamic import DynamicGraph

        sc = self.scenario
        with self.tracer.span("stream:init", category="stream",
                              scale=sc.spec.scale, root=sc.root) as sp:
            self._graph = DynamicGraph(sc.n_vertices,
                                       weighted=sc.spec.weighted)
            self._graph.apply(sc.base)
            snap = self._graph.snapshot()
            if "bfs" in self.algorithms:
                self._kernels["bfs"] = IncrementalBFS(snap, sc.root)
            if "sssp" in self.algorithms:
                self._kernels["sssp"] = IncrementalSSSP(snap, sc.root)
            if "pagerank" in self.algorithms:
                self._kernels["pagerank"] = IncrementalPageRank(snap)
            sp.set(n_arcs=self._graph.n_arcs)

    def _check_batch(self, snap, index: int) -> int:
        """Oracle-check every kernel; returns the number of checks."""
        checked = 0
        if "bfs" in self._kernels:
            k = self._kernels["bfs"]
            p_ref, l_ref = bfs_parents(snap, self.scenario.root)
            if (k.level.tobytes() != l_ref.tobytes()
                    or k.parent.tobytes() != p_ref.tobytes()):
                raise ValidationError(
                    f"batch[{index}]: incremental BFS diverged from "
                    f"the from-scratch oracle")
            checked += 1
        if "sssp" in self._kernels:
            k = self._kernels["sssp"]
            d_ref = sssp_dijkstra(snap, self.scenario.root)
            if k.dist.tobytes() != d_ref.tobytes():
                raise ValidationError(
                    f"batch[{index}]: incremental SSSP diverged from "
                    f"the from-scratch oracle")
            checked += 1
        if "pagerank" in self._kernels:
            k = self._kernels["pagerank"]
            r_ref, _ = pagerank(snap, damping=k.damping,
                                epsilon=k.epsilon,
                                max_iterations=k.max_iterations)
            l1 = float(np.abs(k.rank - r_ref).sum())
            bound = pagerank_l1_bound(k.damping, k.epsilon)
            if l1 > bound:
                raise ValidationError(
                    f"batch[{index}]: warm PageRank is {l1:.3e} (L1) "
                    f"from the cold result, beyond the contraction "
                    f"bound {bound:.3e}")
            checked += 1
        if checked:
            self.tracer.counter("epg_stream_checks_total", checked)
        return checked

    def run(self) -> list[BatchResult]:
        """Replay every batch; returns (and stores) the per-batch rows."""
        sc = self.scenario
        t = self.tracer
        with t.span("stream", category="stream", scale=sc.spec.scale,
                    n_batches=len(sc.batches),
                    algorithms=",".join(self.algorithms)):
            self._init_base()
            for i, batch in enumerate(sc.batches):
                with t.span(f"batch[{i}]", category="stream",
                            n_inserts=batch.n_inserts,
                            n_deletes=batch.n_deletes) as sp:
                    applied = self._graph.apply(batch)
                    snap = self._graph.snapshot()
                    counters: dict[str, int] = {}
                    for name in self.algorithms:
                        kernel = self._kernels[name]
                        if name == "pagerank":
                            sweeps = kernel.update(snap, applied)
                            counters["pagerank_sweeps"] = sweeps
                            t.counter("epg_stream_resettled_total",
                                      sweeps, algorithm=name)
                            continue
                        stats = kernel.update(snap, applied)
                        counters[f"{name}_cut"] = stats.n_cut
                        counters[f"{name}_orphaned"] = stats.n_orphaned
                        counters[f"{name}_resettled"] = stats.n_resettled
                        reached = (int((kernel.level >= 0).sum())
                                   if name == "bfs" else
                                   int(np.isfinite(kernel.dist).sum()))
                        counters[f"{name}_reached"] = reached
                        t.counter("epg_stream_resettled_total",
                                  stats.n_resettled, algorithm=name)
                    checked = self._check_batch(snap, i) if self.check \
                        else 0
                    t.counter("epg_stream_batches_total")
                    t.counter("epg_stream_arcs_inserted_total",
                              applied.n_new)
                    t.counter("epg_stream_arcs_removed_total",
                              applied.n_deleted)
                    row = BatchResult(
                        batch=i, n_inserted=applied.n_new,
                        n_updated=applied.n_updated,
                        n_removed=applied.n_deleted,
                        n_arcs=self._graph.n_arcs,
                        checked=checked, **counters)
                    sp.set(n_arcs=row.n_arcs, checked=checked)
                    self.results.append(row)
        return self.results


def write_results_csv(results, path) -> None:
    """Write the per-batch counter rows as CSV.

    Named ``stream_results.csv`` by its callers -- deliberately not
    ``results.csv``, which the cache-equivalence CI glob treats as a
    priced-timeline artifact (stream rows are counters, not timings).
    """
    cols = [f.name for f in fields(BatchResult)]
    buf = io.StringIO()
    buf.write(",".join(cols) + "\n")
    for row in results:
        buf.write(",".join(str(getattr(row, c)) for c in cols) + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
