"""The four control loops and their two sweep executors.

``tests/shard/test_drivers.py`` compares a serial run with a sharded one,
and both now execute the same loop: a loop bug moves both sides together
and that file stays green.  Three things are checked here instead: the
serial kernels against sha256 goldens pinned at commit 44fc2e0 (the last
one with separately typed serial and sharded loops), each loop against a
recording fake executor (it may touch the interface and nothing else),
and every :class:`LocalSweeps` call against the inline engine's.
"""

import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.pagerank import pagerank
from repro.graph.scratch import KernelScratch
from repro.graph.sweeps import (
    RELAX_HEAVY,
    RELAX_LIGHT,
    LocalSweeps,
    SweepExecutor,
)
import repro.shard.engine as engine_mod
from repro.shard.engine import ShardEngine
from repro.systems.gap.bfs import dobfs
from repro.systems.gap.graph import GapGraph
from repro.systems.gap.sssp import delta_stepping
from repro.systems.graph500.bfs import bfs_bitmap
from tests.shard.test_drivers import GRAPHS
from tests.shard.test_partition import csr_graphs


def _digest(arrays, profile=None, stats=None) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    if profile is not None:
        for _, a in sorted(profile.to_arrays().items()):
            h.update(np.ascontiguousarray(a).tobytes())
        h.update(repr(profile.serial_units).encode())
    h.update(json.dumps(stats, sort_keys=True).encode())
    return h.hexdigest()


def kernel_digests(g: GapGraph, root: int) -> dict[str, str]:
    """sha256 of outputs + WorkProfile arrays + stats per serial kernel."""
    parent, level, profile, stats = dobfs(g, root)
    out = {"dobfs": _digest([parent, level], profile, stats)}
    parent, level, profile, stats = bfs_bitmap(g.out, root)
    out["bfs_bitmap"] = _digest([parent, level], profile, stats)
    dist, profile, stats = delta_stepping(g, root)
    out["delta_stepping"] = _digest([dist], profile, stats)
    rank, iterations = pagerank(g.out)
    out["pagerank"] = _digest([rank], stats=iterations)
    return out


#: ``kernel_digests`` at commit 44fc2e0, keyed ``graph/root``.
GOLDENS = json.loads("""
{
 "chain/0": {
  "dobfs": "acd2983e7760819a41b82abc39126904bb9cd16151f266fd1c510fe2d180a580",
  "bfs_bitmap": "ec3541a0b0df7a6c7ef1ae073fcff7be44141b011bda5aeecada74fb2ef69077",
  "delta_stepping": "e205e46aed4eb153adb9e3fb4708da5943786c3bfbe5e1549310fb0005b0eb9f",
  "pagerank": "2c3b809939beff5f3002c501f475cd87a92761d2e1e6d1dfe9564decc000dfa4"
 },
 "disconnected/0": {
  "dobfs": "9dc60755d3431572038ba1052f91eee1a3c5bb87cef52b01c086f1ebc513817f",
  "bfs_bitmap": "0cf27aa72cc4989c29128ec7427a2c6c38efef9615fcc8c1f1878b95349f346a",
  "delta_stepping": "7528f90011b59517a1cf106d6f66d0b701fefba566a00732c071609639a9c3c2",
  "pagerank": "5c14f2af4e5a8fea695bbd0dbea535dc20bbb19b59e26a23ff2d5a74099ee1f6"
 },
 "hub/0": {
  "dobfs": "10396e1fc546bf16a4c3916ffea88ba5f76c2f668677a634178f7dbf913ce387",
  "bfs_bitmap": "74f3a08c96a8cf61343eb22c7493c9aed640b203256b85642792f4b2addcf587",
  "delta_stepping": "f62d6a478cc80bc5e9697ce8dacc7b0527e140d956f735cc2207f5a0e3106228",
  "pagerank": "43e5be76dc4c517f4d6b43d32911de4e3a06eceb22f2d493c048eac3234c3e4d"
 },
 "random/0": {
  "dobfs": "d7016bc13643654008eb4e46f7667e82c0d5f32925d3d668efda32f4063bb4ae",
  "bfs_bitmap": "686b61a508722cdd7b641177f6bfb0728a39bf903e48e00419bda1353bf8056b",
  "delta_stepping": "3016093fe59c33f4394b9fae452130390a6aa2e2ad9f45c53e6807418e3976ef",
  "pagerank": "7797a562fde95240e64c82ef316334d6a372083ffe4e539f70495512715d6926"
 },
 "random/17": {
  "dobfs": "c622b4b30c165ed1ac27b256d2a676db15f536362bc9be817036cf9b3e7ac5fe",
  "bfs_bitmap": "05a014b36e312729f1771e5a20b16ad506b389c38a4985878ceb09ab47331039",
  "delta_stepping": "c1de1920ab2318ffc0e8becdc9d1ae250a671c7745216c2c32d72c641ab681c7",
  "pagerank": "7797a562fde95240e64c82ef316334d6a372083ffe4e539f70495512715d6926"
 },
 "self-loops/0": {
  "dobfs": "e4b6b9fb8ac06de4606731ea1e12adb5a3f9dba103e4c7b747c449bba1a082a9",
  "bfs_bitmap": "9c54cf81e3be23a3d3afb4f2bf8f8e13301ac3ff37ac3e5c07713913b782bb91",
  "delta_stepping": "3b02c143f1e551fbe74357c2280723d2e96b86b9d0bf1cf1eda47554344ccde3",
  "pagerank": "5d6376872728b5243670ca8991769907e0feb07c711cf4ce2aea45063c350812"
 },
 "kron10/0": {
  "dobfs": "380c2477781be3785069d0cb28a0c6e231173e34e66f70f9c05a937002ba9dd1",
  "bfs_bitmap": "b28a5d52ca8accc1f0846dbc2806ce943bfe153cc640be9b0b37dcc50fd4defb",
  "delta_stepping": "61e1046943c250be15dbf6d4c5675fa82479b4a1bf7cd4ce04b6f81f705125a5",
  "pagerank": "33c9292c9ced38f9f700012b4e7585a28b29b4330f4f73d8bf3d7f430663a5c6"
 },
 "kron10/277": {
  "dobfs": "fa0149b560ab29c85bd19ae045385a8d10d299c354707c1843740b70b9bd244d",
  "bfs_bitmap": "d16fd7dab991341a216e5da9ab200546b7b097ea512221c48d22f474fb6a8a48",
  "delta_stepping": "3614eab1ad095dfe9250a81844c3512542342141ec16f89b775131af790c3488",
  "pagerank": "33c9292c9ced38f9f700012b4e7585a28b29b4330f4f73d8bf3d7f430663a5c6"
 }
}
""")


@pytest.fixture(scope="module")
def kron10_gap(kron10):
    from repro.systems.gap.graph import build_gap_graph

    return build_gap_graph(kron10, directed=False)[0]


@pytest.mark.parametrize("key", sorted(GOLDENS))
def test_serial_kernels_match_pinned_goldens(key, kron10_gap):
    name, root = key.split("/")
    g = kron10_gap if name == "kron10" else GRAPHS[name]
    assert kernel_digests(g, int(root)) == GOLDENS[key]


# ----------------------------------------------------------------------
# The loops touch the interface and nothing else
# ----------------------------------------------------------------------
INTERFACE = {name for name in vars(SweepExecutor)
             if not name.startswith("_")}


class Recording:
    """Forwards the interface to a real executor, refuses the rest."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = []

    def __getattr__(self, name):
        assert name in INTERFACE, (
            f"a control loop touched {name!r}, which is not part of "
            "the sweep interface")
        self.calls.append(name)
        return getattr(self._inner, name)


def _local(g: GapGraph) -> Recording:
    return Recording(LocalSweeps(g.out, KernelScratch(g.n, g.out.n_edges)))


def _same(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return a.tobytes() == b.tobytes()
    if hasattr(a, "to_arrays"):
        return _digest([], a) == _digest([], b)
    return a == b


def test_interface_is_the_seven_calls():
    assert INTERFACE == {"begin_bfs", "top_down", "bottom_up",
                         "begin_sssp", "relax", "begin_pagerank",
                         "pagerank_sweep"}


@pytest.mark.parametrize("kernel, touched", [
    (lambda g, s: dobfs(g, 0, sweeps=s),
     {"begin_bfs", "top_down", "bottom_up"}),
    (lambda g, s: bfs_bitmap(g.out, 0, s), {"begin_bfs", "top_down"}),
    (lambda g, s: delta_stepping(g, 0, sweeps=s), {"begin_sssp", "relax"}),
    (lambda g, s: pagerank(g.out, sweeps=s),
     {"begin_pagerank", "pagerank_sweep"}),
], ids=["dobfs", "bfs_bitmap", "delta_stepping", "pagerank"])
def test_loop_touches_only_the_interface(kron10_gap, kernel, touched):
    fake = _local(kron10_gap)
    got = kernel(kron10_gap, fake)
    assert set(fake.calls) == touched
    assert fake.calls[0].startswith("begin_")
    assert fake.calls.count(fake.calls[0]) == 1
    assert _same(got, kernel(kron10_gap, None))


# ----------------------------------------------------------------------
# LocalSweeps == inline engine, call by call
# ----------------------------------------------------------------------
# Every round crosses: left to itself the engine would serve graphs
# this small with a LocalSweeps of its own.
@mock.patch.object(engine_mod, "_INLINE_ARCS", 0)
@given(csr_graphs(max_n=40, max_m=160), st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_local_sweeps_match_inline_engine(out, n_shards, data):
    n = out.n_vertices
    inn = out.transposed()
    root = data.draw(st.integers(0, n - 1))
    local = LocalSweeps(out, KernelScratch(n, out.n_edges))
    with ShardEngine(out, inn, n_shards=n_shards, inline=True) as engine:
        both = (local, engine)

        for ex in both:
            ex.begin_bfs(root)
        parents = [np.full(n, -1, dtype=np.int64) for _ in both]
        frontier = np.array([root], dtype=np.int64)
        while frontier.size:
            step = data.draw(st.sampled_from(["top_down", "bottom_up"]))
            got = [getattr(ex, step)(frontier, p)
                   for ex, p in zip(both, parents)]
            assert got[0][0].tobytes() == got[1][0].tobytes()
            assert got[0][1] == got[1][1]
            assert parents[0].tobytes() == parents[1].tobytes()
            frontier = got[0][0]
        assert not local.scratch.mask("frontier").any()  # handed back clean

        if out.weights is not None:
            delta = data.draw(st.sampled_from([0.01, 0.25, 5.0, 1000.0]))
            dists = [ex.begin_sssp(root, delta) for ex in both]
            members = np.array([root], dtype=np.int64)
            for _ in range(8):
                mode = data.draw(st.sampled_from([RELAX_LIGHT,
                                                  RELAX_HEAVY]))
                got = [ex.relax(members, mode) for ex in both]
                assert got[0][0].tobytes() == got[1][0].tobytes()
                assert got[0][1] == got[1][1]
                assert dists[0].tobytes() == dists[1].tobytes()
                if got[0][0].size:
                    members = got[0][0]

        start = np.full(n, 1.0 / n)
        ranks = [ex.begin_pagerank(start) for ex in both]
        for k in range(3):
            ranks = [ex.pagerank_sweep(r, 0.01 * k, 0.15 / n, 0.85)
                     for ex, r in zip(both, ranks)]
            assert ranks[0].tobytes() == ranks[1].tobytes()
        assert start.tobytes() == np.full(n, 1.0 / n).tobytes()


# ----------------------------------------------------------------------
# LocalSweeps.pagerank_sweep adds in arc order
# ----------------------------------------------------------------------
@given(csr_graphs(max_n=30, max_m=200), st.data())
@settings(max_examples=100, deadline=None)
def test_pagerank_sweep_is_the_ordered_add_at(out, data):
    # Parallel arcs, self-loops, dangling and isolated vertices all come
    # out of ``csr_graphs``; shares ten orders of magnitude apart make a
    # re-associated sum land on other low-order bits.
    n = out.n_vertices
    rank = np.array(data.draw(st.lists(
        st.floats(1e-10, 1.0), min_size=n, max_size=n)))
    dangling_mass, base, damping = 0.03, 0.15 / n, 0.85
    local = LocalSweeps(out)
    got = local.pagerank_sweep(local.begin_pagerank(rank), dangling_mass,
                               base, damping)

    src = out.source_ids()
    share = rank / np.maximum(out.out_degrees(), 1)
    contrib = np.zeros(n)
    np.add.at(contrib, out.col_idx, share[src])
    want = base + damping * (contrib + dangling_mass)
    assert got.tobytes() == want.tobytes()
