"""Which rounds cross to the shards, and which way they relax, never
shows in a result.

``ShardEngine`` serves a round in the parent when it would gather fewer
than ``_INLINE_ARCS`` arcs, so on the small graphs tests use every round
stays local and ``repro.shard.ops`` would go unexercised.  This pins the
constant to 0 (every round crosses), leaves it alone, and pins it to
infinity (none does).  Across that it pins ``PULL_SHARE`` to 0 (every
relax round pulls, serial and crossing alike), leaves it alone, and
pins it to infinity (every one pushes, and so stays in the parent).
Each combination is held to the serial kernels: output arrays,
``WorkProfile`` arrays, examined counts and iteration counts, byte for
byte, at every shard count and execution mode.
"""

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.frontier as frontier_mod
import repro.shard.engine as engine_mod
from repro.algorithms.pagerank import pagerank
from repro.graph.csr import CSRGraph
from repro.shard.engine import ShardEngine
from repro.systems.gap.bfs import dobfs
from repro.systems.gap.graph import GapGraph
from repro.systems.gap.sssp import delta_stepping
from repro.systems.graph500.bfs import bfs_bitmap
from tests.graph.test_sweeps import _same


@st.composite
def multigraphs(draw, max_n=24, max_m=72):
    """Weighted directed multigraphs: parallel arcs, self-loops and
    zero-weight arcs are added on purpose, isolated vertices come with
    ``n`` outrunning ``m``."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(vertex, vertex), max_size=max_m))
    arcs += draw(st.lists(st.sampled_from(arcs), max_size=8)) if arcs else []
    arcs += [(v, v) for v in draw(st.lists(vertex, max_size=3))]
    weights = draw(st.lists(
        st.sampled_from([0.0, 0.0, 0.001, 0.1, 0.25, 0.3, 1.0, 7.5]),
        min_size=len(arcs), max_size=len(arcs)))
    src = np.array([a for a, _ in arcs], dtype=np.int64)
    dst = np.array([b for _, b in arcs], dtype=np.int64)
    out = CSRGraph.from_arrays(src, dst, n,
                               weights=np.array(weights, dtype=np.float64))
    return GapGraph(out=out, n=n, directed=True)


def _check_against_serial(inline_arcs, pull_share, shards, inline):
    @given(multigraphs(), st.data())
    @settings(max_examples=12 if inline else 4, deadline=None)
    def check(g, data):
        root = data.draw(st.integers(0, g.n - 1))
        # A high alpha sends dobfs bottom-up early, beta 1 keeps it there.
        alpha, beta = data.draw(st.sampled_from(
            [(15.0, 18.0), (1e6, 1.0), (1e6, 18.0)]))
        delta = data.draw(st.sampled_from([0.01, 0.25, 5.0]))
        with ShardEngine(g.out, g.inn, n_shards=shards,
                         inline=inline) as engine:
            assert _same(dobfs(g, root, alpha, beta, engine),
                         dobfs(g, root, alpha, beta))
            rounds = engine.rounds, engine.local_rounds
            assert _same(bfs_bitmap(g.out, root, engine),
                         bfs_bitmap(g.out, root))
            assert _same(delta_stepping(g, root, delta, engine),
                         delta_stepping(g, root, delta))
            relax_rounds = engine.rounds, engine.local_rounds
            assert _same(pagerank(g.out, sweeps=engine), pagerank(g.out))
        if inline_arcs == 0:
            assert rounds[0] > 0 and rounds[1] == 0
            # Only pulled relax rounds cross; the root's round always
            # relaxes something.
            if pull_share == 0:
                assert relax_rounds[0] > 0 and relax_rounds[1] == 0
            elif pull_share is not None:
                assert relax_rounds[0] == 0 and relax_rounds[1] > 0
        elif inline_arcs is not None:
            assert rounds[0] == 0 and rounds[1] > 0
            assert relax_rounds[0] == 0

    with ExitStack() as pinned:
        for module, name, value in (
                (engine_mod, "_INLINE_ARCS", inline_arcs),
                (frontier_mod, "PULL_SHARE", pull_share)):
            if value is not None:
                pinned.enter_context(mock.patch.object(module, name, value))
        check()


cases = pytest.mark.parametrize
modes = cases("inline", [True, False], ids=["inline", "process"])
shard_counts = cases("shards", [1, 2, 3])
crossings = cases("inline_arcs", [0, None, float("inf")],
                  ids=["all-cross", "default", "none-cross"])


@modes
@shard_counts
@crossings
def test_results_do_not_depend_on_which_rounds_cross(inline_arcs, shards,
                                                     inline):
    _check_against_serial(inline_arcs, None, shards, inline)


@modes
@shard_counts
@crossings
@cases("pull_share", [0.0, float("inf")], ids=["all-pull", "all-push"])
def test_results_do_not_depend_on_which_way_rounds_relax(
        pull_share, inline_arcs, shards, inline):
    """``PULL_SHARE`` pinned to 0 and to infinity: every relax round
    pulls, or every one pushes, serial and crossing alike (its default
    is the test above)."""
    _check_against_serial(inline_arcs, pull_share, shards, inline)
