"""Result validation in the style of the Graph500 specification.

The Graph500 spec requires every reported BFS to pass five structural
checks on its parent array; EPG* applies the same rules to every
system's output so a "fast" system cannot win by returning garbage.
SSSP and PageRank verifiers follow the same spirit (the paper notes
PageRank verification is out of scope for *its* experiments, but the
test suite here uses these to certify the reimplementations).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.graph.csr import CSRGraph

__all__ = [
    "validate_bfs_parents",
    "validate_sssp_distances",
    "validate_pagerank",
]


def _bfs_levels_from_parents(parent: np.ndarray, root: int) -> np.ndarray:
    """Depth of each reached vertex in the parent tree, or -1.

    Raises :class:`ValidationError` on cycles (a vertex whose parent
    chain never reaches the root).
    """
    n = parent.size
    level = np.full(n, -1, dtype=np.int64)
    level[root] = 0
    # Pointer-jumping: resolve all depths in O(log n) passes.
    reached = parent >= 0
    cur = np.arange(n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    active = reached.copy()
    active[root] = False
    for _ in range(n + 1):
        if not active.any():
            break
        nxt = parent[cur[active]]
        depth[active] += 1
        cur[active] = nxt
        done = active & (cur == root)
        level[done] = depth[done]
        active &= cur != root
        if depth.max(initial=0) > n:
            raise ValidationError("parent chain exceeds n: cycle in BFS tree")
    else:  # pragma: no cover - defensive
        raise ValidationError("parent chains did not terminate")
    if np.any(active):
        raise ValidationError("parent chain does not reach the root")
    return level


def validate_bfs_parents(graph: CSRGraph, root: int,
                         parent: np.ndarray,
                         directed: bool = False) -> np.ndarray:
    """Run the Graph500 BFS validation; return the implied level array.

    Checks (numbered as in the spec):

    1. the tree is cycle-free and rooted at ``root``;
    2. tree edges connect vertices whose BFS levels differ by exactly one;
    3. every edge of the graph connects vertices whose levels differ by
       at most one, *or* connects to an unreached vertex on both sides;
    4. the tree spans exactly the connected component containing the root;
    5. every tree edge is an edge of the graph.

    With ``directed=True`` (EPG* runs BFS on directed real-world graphs
    too) checks 3 and 4 relax to the directed forms: an arc out of a
    reached vertex may only *lower* the target's level bound
    (``level[dst] <= level[src] + 1``) and arcs into the reached set from
    unreached vertices are legal.
    """
    parent = np.asarray(parent, dtype=np.int64)
    n = graph.n_vertices
    if parent.shape != (n,):
        raise ValidationError("parent array has wrong length")
    if parent[root] != root:
        raise ValidationError("root must be its own parent")

    level = _bfs_levels_from_parents(parent, root)  # checks 1
    reached = level >= 0

    # Check 5 + 2: each non-root reached vertex's (parent -> child) must be
    # a graph arc and drop exactly one level.
    children = np.flatnonzero(reached & (np.arange(n) != root))
    if children.size:
        pars = parent[children]
        if np.any(level[children] != level[pars] + 1):
            raise ValidationError("tree edge does not drop exactly one level")
        # Arc existence: binary search each child in its parent's list.
        starts = graph.row_ptr[pars]
        ends = graph.row_ptr[pars + 1]
        ok = np.empty(children.size, dtype=bool)
        for i, (c, s, e) in enumerate(zip(children, starts, ends)):
            nbrs = graph.col_idx[s:e]
            j = np.searchsorted(nbrs, c)
            ok[i] = j < nbrs.size and nbrs[j] == c
        if not ok.all():
            bad = children[~ok][0]
            raise ValidationError(
                f"tree edge ({parent[bad]} -> {bad}) is not a graph arc")

    # Check 3 (+4): level consistency of every graph arc.
    src = graph.source_ids()
    dst = graph.col_idx
    if directed:
        out = reached[src]
        if np.any(out & ~reached[dst]):
            raise ValidationError(
                "arc leaves the reached set: BFS missed a vertex")
        if out.any():
            gap = level[dst[out]] - level[src[out]]
            if gap.max(initial=0) > 1:
                raise ValidationError(
                    "arc skips more than one BFS level forward")
    else:
        both = reached[src] & reached[dst]
        if np.any(reached[src] != reached[dst]):
            raise ValidationError("an edge crosses the reached/unreached cut")
        if both.any():
            gap = np.abs(level[src[both]] - level[dst[both]])
            if gap.max(initial=0) > 1:
                raise ValidationError(
                    "graph edge spans more than one BFS level")

    return level


def validate_sssp_distances(dist: np.ndarray, reference: np.ndarray,
                            rtol: float = 1e-5, atol: float = 1e-5) -> None:
    """Distances must match the reference (Dijkstra) up to FP noise,
    including the +inf pattern for unreachable vertices.

    Default tolerances admit single-precision edge weights (GraphMat
    stores float32 values in its binary matrix format) while still
    rejecting any wrong-path result, which differs by whole weight
    magnitudes."""
    dist = np.asarray(dist, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if dist.shape != reference.shape:
        raise ValidationError("distance array has wrong length")
    finite = np.isfinite(reference)
    if not np.array_equal(np.isfinite(dist), finite):
        raise ValidationError("reachability pattern differs from reference")
    if finite.any() and not np.allclose(
            dist[finite], reference[finite], rtol=rtol, atol=atol):
        worst = np.abs(dist[finite] - reference[finite]).max()
        raise ValidationError(f"distances deviate from Dijkstra by {worst:g}")


def validate_pagerank(rank: np.ndarray, reference: np.ndarray,
                      tol: float = 1e-4) -> None:
    """Ranks must be a probability vector close to the reference.

    Tolerance is loose on purpose: the paper's systems legitimately differ
    in stopping criteria, so only gross disagreement is an error.
    """
    rank = np.asarray(rank, dtype=np.float64)
    if rank.shape != np.asarray(reference).shape:
        raise ValidationError("rank array has wrong length")
    if np.any(rank < -1e-12):
        raise ValidationError("negative PageRank value")
    total = rank.sum()
    if not np.isclose(total, 1.0, atol=1e-3):
        raise ValidationError(f"PageRank mass {total:g} is not ~1")
    err = np.abs(rank - reference).sum()
    if err > tol:
        raise ValidationError(f"PageRank L1 error {err:g} exceeds {tol:g}")
