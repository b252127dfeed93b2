"""Bit-identity of the sharded drivers against the serial kernels.

Small adversarial graphs (hubs, chains, disconnected pieces,
self-loops, duplicates) at every shard count 1-4 --
outputs, WorkProfile arrays, serial_units, and stats dicts must match
the serial kernels exactly, in both inline and process-backed modes.
"""

import numpy as np
import pytest

from repro.algorithms.pagerank import pagerank
from repro.errors import SystemCapabilityError
from repro.graph.csr import CSRGraph
from repro.shard.drivers import (
    shard_bfs_bitmap,
    shard_delta_stepping,
    shard_dobfs,
    shard_pagerank,
)
import repro.shard.engine as engine_mod
from repro.shard.engine import ShardEngine
from repro.systems.gap.bfs import dobfs
from repro.systems.gap.graph import GapGraph
from repro.systems.gap.sssp import delta_stepping
from repro.systems.graph500.bfs import bfs_bitmap


def _gap_graph(src, dst, n, weights=None):
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    out = CSRGraph.from_arrays(src, dst, n, weights=weights)
    out.attach_transpose(CSRGraph.from_arrays(dst, src, n, weights=weights))
    return GapGraph(out=out, n=n, directed=True)


def _random_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    return _gap_graph(rng.integers(0, n, m), rng.integers(0, n, m), n,
                      weights=rng.uniform(0.001, 1.0, m))


GRAPHS = {
    "random": _random_graph(180, 900, 7),
    "hub": _gap_graph([0] * 50 + list(range(1, 51)),
                      list(range(1, 51)) + [0] * 50, 60,
                      weights=np.linspace(0.01, 1.0, 100)),
    "chain": _gap_graph(np.arange(39), np.arange(1, 40), 40,
                        weights=np.full(39, 0.25)),
    "disconnected": _gap_graph([0, 1, 10, 11], [1, 0, 11, 10], 20,
                               weights=np.array([1.0, 2.0, 3.0, 4.0])),
    "self-loops": _gap_graph([0, 0, 1, 2, 2], [0, 1, 2, 2, 0], 5,
                             weights=np.array([1.0, 0.5, 0.5, 1.0,
                                               0.25])),
}


def _profiles_equal(a, b):
    pa, pb = a.to_arrays(), b.to_arrays()
    return (all(np.array_equal(pa[k], pb[k]) for k in pa)
            and a.serial_units == b.serial_units)


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("shards", [1, 2, 3, 4])
def test_inline_bit_identity(name, shards):
    g = GRAPHS[name]
    root = 0
    p0, l0, prof0, st0 = dobfs(g, root)
    d0, dprof0, dst0 = delta_stepping(g, root)
    bp0, bl0, bprof0, bst0 = bfs_bitmap(g.out, root)
    r0, it0 = pagerank(g.out)
    with ShardEngine(g.out, g.inn, n_shards=shards, inline=True) as engine:
        p1, l1, prof1, st1 = shard_dobfs(g, root, engine)
        assert p0.tobytes() == p1.tobytes()
        assert l0.tobytes() == l1.tobytes()
        assert _profiles_equal(prof0, prof1)
        assert st0 == st1

        d1, dprof1, dst1 = shard_delta_stepping(g, root, engine)
        assert d0.tobytes() == d1.tobytes()
        assert _profiles_equal(dprof0, dprof1)
        assert dst0 == dst1

        bp1, bl1, bprof1, bst1 = shard_bfs_bitmap(g.out, root, engine)
        assert bp0.tobytes() == bp1.tobytes()
        assert bl0.tobytes() == bl1.tobytes()
        assert _profiles_equal(bprof0, bprof1)
        assert bst0 == bst1

        r1, it1 = shard_pagerank(g.out, engine)
        assert r0.tobytes() == r1.tobytes()
        assert it0 == it1


def test_process_backed_bit_identity_and_pool_reuse():
    """One process pool serving all four kernels back to back -- the
    resident-engine pattern the systems layer relies on."""
    g = GRAPHS["random"]
    with ShardEngine(g.out, g.inn, n_shards=2) as engine:
        assert not engine.inline
        for root in (0, 17, 93):
            p0, l0, prof0, st0 = dobfs(g, root)
            p1, l1, prof1, st1 = shard_dobfs(g, root, engine)
            assert p0.tobytes() == p1.tobytes()
            assert l0.tobytes() == l1.tobytes()
            assert _profiles_equal(prof0, prof1)
            assert st0 == st1

            d0, dprof0, dst0 = delta_stepping(g, root)
            d1, dprof1, dst1 = shard_delta_stepping(g, root, engine)
            assert d0.tobytes() == d1.tobytes()
            assert _profiles_equal(dprof0, dprof1)
            assert dst0 == dst1

        r0, it0 = pagerank(g.out)
        r1, it1 = shard_pagerank(g.out, engine)
        assert r0.tobytes() == r1.tobytes()
        assert it0 == it1


def test_exchange_accounting_resets_per_kernel(monkeypatch):
    g = GRAPHS["random"]
    with ShardEngine(g.out, g.inn, n_shards=2, inline=True) as engine:
        def accounting():
            shard_dobfs(g, 0, engine)
            return (engine.rounds, engine.bytes_exchanged,
                    engine.local_rounds)

        # A graph this small is served in the parent...
        first = accounting()
        assert first[:2] == (0, 0) and first[2] > 0
        assert accounting() == first
        # ...unless every round is made to cross.
        monkeypatch.setattr(engine_mod, "_INLINE_ARCS", 0)
        crossing = accounting()
        assert crossing[0] == first[2] and crossing[1] > 0
        assert crossing[2] == 0
        assert accounting() == crossing


def test_sssp_capability_errors():
    g = GRAPHS["random"]
    unweighted = _gap_graph([0, 1], [1, 0], 2)
    with ShardEngine(unweighted.out, unweighted.inn, n_shards=2,
                     inline=True) as engine:
        with pytest.raises(SystemCapabilityError):
            shard_delta_stepping(unweighted, 0, engine)
    with ShardEngine(g.out, g.inn, n_shards=2, inline=True) as engine:
        with pytest.raises(SystemCapabilityError):
            shard_delta_stepping(g, 0, engine, delta=0.0)
