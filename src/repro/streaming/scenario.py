"""Seeded event-stream scenarios over Kronecker graphs.

A scenario is one Graph500 Kronecker tuple list split into a *base*
graph (the first ``base_fraction`` of the generated tuples) plus a
sequence of mutation batches: each batch inserts the next
``batch_edges`` unseen tuples from the generator's tail and deletes a
seeded sample of *base* tuples.  Everything is a pure function of
:class:`StreamSpec`, so two runs of the same spec produce identical
streams -- the property the oracle checks, the suite section, and CI
smoke all rely on.

Deletes are drawn from the base tuples with replacement, so later
batches routinely re-delete an arc an earlier batch already removed:
the delete-of-absent no-op path is exercised by construction, not just
by unit tests.  Batches are symmetrized
(:meth:`~repro.graph.dynamic.MutationBatch.symmetrized`) because the
Kronecker list is undirected: both arcs of an edge carry the weight of
the last tuple that touched it, so every snapshot of the replay is its
own transpose and repair reads in-arcs without transposing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.kronecker import KroneckerSpec, generate_kronecker
from repro.errors import ConfigError
from repro.graph.dynamic import MutationBatch

__all__ = ["StreamSpec", "StreamScenario", "build_scenario"]

#: Mixed into ``spec.seed`` for the delete sampler so delete positions
#: are independent of the generator's own draws.
_DELETE_SEED_SALT = 0x5EED


@dataclass(frozen=True)
class StreamSpec:
    """Parameters of one deterministic event stream."""

    scale: int
    n_batches: int = 8
    batch_edges: int = 64
    delete_fraction: float = 0.25
    base_fraction: float = 0.85
    seed: int = 20170402
    weighted: bool = False

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise ConfigError("stream scale must be >= 1")
        if self.n_batches < 1:
            raise ConfigError("n_batches must be >= 1")
        if self.batch_edges < 1:
            raise ConfigError("batch_edges must be >= 1")
        if not 0.0 <= self.delete_fraction <= 1.0:
            raise ConfigError(
                f"delete_fraction must be in [0, 1], got "
                f"{self.delete_fraction}")
        if not 0.0 < self.base_fraction < 1.0:
            raise ConfigError(
                f"base_fraction must be in (0, 1), got "
                f"{self.base_fraction}")

    @property
    def deletes_per_batch(self) -> int:
        return int(round(self.batch_edges * self.delete_fraction))

    @property
    def name(self) -> str:
        return (f"stream-scale{self.scale}-b{self.n_batches}"
                f"x{self.batch_edges}")


@dataclass(frozen=True)
class StreamScenario:
    """One materialized stream: base batch + mutation batches.

    ``base`` and every entry of ``batches`` are already symmetrized;
    ``root`` is the highest-degree base vertex (deterministic argmax,
    so BFS/SSSP start inside the giant component).
    """

    spec: StreamSpec
    n_vertices: int
    root: int
    base: MutationBatch
    batches: tuple[MutationBatch, ...]


def build_scenario(spec: StreamSpec, cache=None) -> StreamScenario:
    """Materialize the event stream for ``spec``.

    Raises :class:`~repro.errors.ConfigError` when the generator's tail
    cannot supply ``n_batches * batch_edges`` insert tuples after the
    base split -- the spec asks for a longer stream than the scale
    yields, and silently shortening it would break determinism between
    differently-capable hosts.
    """
    kron = KroneckerSpec(scale=spec.scale, seed=spec.seed,
                         weighted=spec.weighted)
    edges = generate_kronecker(kron, cache=cache)
    m = edges.src.size
    n_base = int(m * spec.base_fraction)
    need = spec.n_batches * spec.batch_edges
    if m - n_base < need:
        raise ConfigError(
            f"stream needs {need} insert tuples after the base split "
            f"but scale {spec.scale} leaves only {m - n_base}; lower "
            f"n_batches/batch_edges or raise the scale")

    w = edges.weights
    base = MutationBatch(
        insert_src=edges.src[:n_base],
        insert_dst=edges.dst[:n_base],
        insert_weights=None if w is None else w[:n_base],
    ).symmetrized()

    rng = np.random.default_rng(spec.seed + _DELETE_SEED_SALT)
    batches = []
    for i in range(spec.n_batches):
        lo = n_base + i * spec.batch_edges
        hi = lo + spec.batch_edges
        pick = rng.integers(0, n_base, spec.deletes_per_batch)
        batches.append(MutationBatch(
            insert_src=edges.src[lo:hi],
            insert_dst=edges.dst[lo:hi],
            insert_weights=None if w is None else w[lo:hi],
            delete_src=edges.src[pick],
            delete_dst=edges.dst[pick],
        ).symmetrized())

    root = int(np.argmax(np.bincount(base.insert_src,
                                     minlength=edges.n_vertices)))
    return StreamScenario(spec=spec, n_vertices=edges.n_vertices,
                          root=root, base=base,
                          batches=tuple(batches))
