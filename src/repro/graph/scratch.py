"""Preallocated per-graph scratch buffers for the frontier kernels.

Every per-round frontier primitive in :mod:`repro.graph.frontier` needs
working memory proportional to either the gathered edge count or the
vertex count.  Allocating those temporaries fresh each round -- what the
five systems did independently before the shared library -- costs a
page-faulting ``malloc`` per array per round on large graphs.  A
:class:`KernelScratch` owns one growable edge-sized integer arena plus a
set of named vertex-sized arrays and hands out views, so steady-state
rounds perform zero allocations.

Scratch is *per graph object*: :func:`scratch_for` memoizes one
:class:`KernelScratch` per structure (CSR, GAP graph pair, GAS engine,
...) in a dict keyed by the structure's ``id``, and a
:func:`weakref.finalize` on the structure drops the entry, so buffers
die with the graph and two graphs never share (or race on) an arena.

Bit-identity note: scratch only changes *where* intermediates live,
never their values.  Mask buffers are handed out all-``False`` and the
frontier primitives reset exactly the entries they touched, keeping the
clear cost proportional to the round's work instead of ``n``.

The module-level :data:`COUNTERS` aggregate gathered edges and buffer
reuse; :meth:`~repro.systems.base.GraphSystem.run` drains them into the
live :class:`~repro.observability.metrics.MetricsRegistry` with
``log=False`` after each kernel (the cache-counter rule: in-process
visibility without perturbing ``events.jsonl``).
"""

from __future__ import annotations

import weakref

import numpy as np

__all__ = ["KernelScratch", "scratch_for", "consume_counters", "COUNTERS"]

#: Live kernel counters, drained by ``GraphSystem.run`` after each
#: kernel execution (see :func:`consume_counters`).
COUNTERS = {"gather_edges": 0.0, "scratch_reuse": 0.0}


def consume_counters() -> dict:
    """Return the counters accumulated since the last call and reset.

    Returns a plain ``{name: float}`` dict; the caller decides where the
    numbers go (the systems layer feeds them to the tracer registry).
    """
    out = dict(COUNTERS)
    for k in COUNTERS:
        COUNTERS[k] = 0.0
    return out


class KernelScratch:
    """Reusable working memory for one graph's frontier kernels.

    Parameters
    ----------
    n_vertices:
        Sizes the named vertex arrays (claim buffer, dedup masks).
    n_edges:
        Initial capacity of the edge arena (it grows geometrically if a
        gather ever exceeds it, e.g. on a symmetrized view).
    """

    def __init__(self, n_vertices: int, n_edges: int = 0):
        self.n = int(n_vertices)
        self._edge_buf = np.empty(max(int(n_edges), 1), dtype=np.int64)
        self._seg_buf = np.empty(self.n + 1, dtype=np.int64)
        self._vertex_i64: dict[str, np.ndarray] = {}
        self._vertex_bool: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    def edge_i64(self, size: int) -> np.ndarray:
        """An ``int64[size]`` view of the edge arena (contents garbage)."""
        if size > self._edge_buf.size:
            cap = max(size, 2 * self._edge_buf.size)
            self._edge_buf = np.empty(cap, dtype=np.int64)
        else:
            COUNTERS["scratch_reuse"] += 1.0
        return self._edge_buf[:size]

    def seg_i64(self, size: int) -> np.ndarray:
        """An ``int64[size]`` view for per-segment offsets (``size`` is
        bounded by the frontier length, itself bounded by ``n + 1``)."""
        if size > self._seg_buf.size:
            self._seg_buf = np.empty(size, dtype=np.int64)
        else:
            COUNTERS["scratch_reuse"] += 1.0
        return self._seg_buf[:size]

    def vertex_i64(self, name: str = "claim") -> np.ndarray:
        """A named ``int64[n]`` array (contents garbage)."""
        buf = self._vertex_i64.get(name)
        if buf is None:
            buf = np.empty(self.n, dtype=np.int64)
            self._vertex_i64[name] = buf
        else:
            COUNTERS["scratch_reuse"] += 1.0
        return buf

    def mask(self, name: str = "dedup") -> np.ndarray:
        """A named ``bool[n]`` array, guaranteed all-``False``.

        Callers (the frontier primitives) must reset every entry they
        set before returning, which keeps the clear proportional to the
        touched set.
        """
        buf = self._vertex_bool.get(name)
        if buf is None:
            buf = np.zeros(self.n, dtype=bool)
            self._vertex_bool[name] = buf
        else:
            COUNTERS["scratch_reuse"] += 1.0
        return buf


#: One scratch per live graph structure, keyed by ``id`` (the graph
#: dataclasses hold ndarrays, so they are unhashable and cannot key a
#: ``WeakKeyDictionary``); a finalizer evicts the entry when the graph
#: dies, before its id can be recycled.
_SCRATCHES: dict[int, KernelScratch] = {}


def scratch_for(obj: object, n_vertices: int,
                n_edges: int = 0) -> KernelScratch:
    """The memoized :class:`KernelScratch` for ``obj``.

    ``obj`` is any weakref-able structure whose lifetime should bound
    the buffers' (a :class:`~repro.graph.csr.CSRGraph`, a GAP graph
    pair, a GAS engine...).  Repeated kernels on the same graph share
    one arena; the first call sizes it.
    """
    key = id(obj)
    scratch = _SCRATCHES.get(key)
    if scratch is None or scratch.n != int(n_vertices):
        scratch = KernelScratch(n_vertices, n_edges)
        try:
            weakref.finalize(obj, _SCRATCHES.pop, key, None)
        except TypeError:
            # Un-weakref-able host (e.g. a SimpleNamespace test shim):
            # hand back a fresh scratch without memoizing -- caching it
            # with no finalizer would outlive the host and could collide
            # with a recycled id.
            return scratch
        _SCRATCHES[key] = scratch
    return scratch
