"""Unordered edge lists: the common input to every system's builder.

The Graph500 benchmark defines its first timed kernel as the
construction of a graph data structure *from an unsorted edge list
stored in RAM*.  ``EdgeList`` is that artifact: a pair of vertex index
arrays (plus optional weights) with no ordering or dedup guarantees,
exactly like the tuple list the Kronecker generator emits.

All arrays are NumPy; operations are vectorized (no Python-level loops
over edges) per the HPC-Python idioms this repo follows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphFormatError

__all__ = ["EdgeList"]


@dataclass
class EdgeList:
    """An unordered list of ``(src, dst[, weight])`` tuples.

    Parameters
    ----------
    src, dst:
        1-D integer arrays of equal length holding edge endpoints.
    n_vertices:
        Number of vertices; vertex ids must lie in ``[0, n_vertices)``.
    weights:
        Optional float array of per-edge weights (same length).
    directed:
        Whether the edges are directed.  Undirected edge lists store each
        edge once; builders symmetrize them.
    """

    src: np.ndarray
    dst: np.ndarray
    n_vertices: int
    weights: np.ndarray | None = None
    directed: bool = True
    name: str = field(default="graph")

    def __post_init__(self) -> None:
        self.src = np.ascontiguousarray(self.src, dtype=np.int64)
        self.dst = np.ascontiguousarray(self.dst, dtype=np.int64)
        if self.src.ndim != 1 or self.dst.ndim != 1:
            raise GraphFormatError("edge endpoint arrays must be 1-D")
        if self.src.shape != self.dst.shape:
            raise GraphFormatError(
                f"src/dst length mismatch: {self.src.shape} vs {self.dst.shape}"
            )
        if self.weights is not None:
            self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
            if self.weights.shape != self.src.shape:
                raise GraphFormatError("weights length must match edge count")
        self.n_vertices = int(self.n_vertices)
        if self.n_vertices < 0:
            raise GraphFormatError("n_vertices must be non-negative")
        if self.src.size:
            lo = min(self.src.min(), self.dst.min())
            hi = max(self.src.max(), self.dst.max())
            if lo < 0 or hi >= self.n_vertices:
                raise GraphFormatError(
                    f"vertex ids [{lo}, {hi}] out of range [0, {self.n_vertices})"
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        """Number of stored edge tuples (each undirected edge counts once)."""
        return int(self.src.size)

    @property
    def weighted(self) -> bool:
        return self.weights is not None

    def nbytes(self) -> int:
        """In-RAM footprint of the tuple list (what builders must scan)."""
        total = self.src.nbytes + self.dst.nbytes
        if self.weights is not None:
            total += self.weights.nbytes
        return total

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex counting stored tuples only."""
        return np.bincount(self.src, minlength=self.n_vertices)

    def degrees(self) -> np.ndarray:
        """Undirected degree: number of tuple slots touching each vertex."""
        deg = np.bincount(self.src, minlength=self.n_vertices)
        deg += np.bincount(self.dst, minlength=self.n_vertices)
        return deg

    # ------------------------------------------------------------------
    # Transformations (all return new EdgeLists; inputs are never mutated)
    # ------------------------------------------------------------------
    def symmetrized(self) -> "EdgeList":
        """Return a directed edge list containing both edge directions.

        Self-loops are kept single (they already point both ways).  This
        is the step every shared-memory system performs when handed an
        undirected graph.
        """
        loops = self.src == self.dst
        rev_src = self.dst[~loops]
        rev_dst = self.src[~loops]
        src = np.concatenate([self.src, rev_src])
        dst = np.concatenate([self.dst, rev_dst])
        weights = None
        if self.weights is not None:
            weights = np.concatenate([self.weights, self.weights[~loops]])
        return EdgeList(
            src, dst, self.n_vertices, weights=weights, directed=True,
            name=self.name,
        )

    def deduplicated(self) -> "EdgeList":
        """Remove duplicate ``(src, dst)`` pairs, keeping the first weight."""
        key = self.src * np.int64(self.n_vertices) + self.dst
        _, first = np.unique(key, return_index=True)
        first.sort()
        weights = self.weights[first] if self.weights is not None else None
        return EdgeList(
            self.src[first], self.dst[first], self.n_vertices,
            weights=weights, directed=self.directed, name=self.name,
        )

    def with_random_weights(self, seed: int, low: float = 0.0,
                            high: float = 1.0) -> "EdgeList":
        """Attach uniform ``(low, high]`` random weights, as the
        Graph500 SSSP spec does (weights are never exactly ``low``, so
        shortest paths stay strictly monotone in hop count)."""
        rng = np.random.default_rng(seed)
        # random() draws [0, 1); reflecting it yields (low, high].
        w = high - rng.random(self.n_edges) * (high - low)
        return EdgeList(
            self.src, self.dst, self.n_vertices, weights=w,
            directed=self.directed, name=self.name,
        )

    def copy(self) -> "EdgeList":
        return EdgeList(
            self.src.copy(), self.dst.copy(), self.n_vertices,
            weights=None if self.weights is None else self.weights.copy(),
            directed=self.directed, name=self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "directed" if self.directed else "undirected"
        w = "weighted" if self.weighted else "unweighted"
        return (
            f"EdgeList(name={self.name!r}, n={self.n_vertices}, "
            f"m={self.n_edges}, {kind}, {w})"
        )
