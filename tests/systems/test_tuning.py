"""Tests for the alpha/beta/delta heuristic tuner (paper Sec. V)."""

import pytest

from repro.systems import create_system
from repro.systems.gap.graph import build_gap_graph
from repro.systems.gap.tuning import heuristic_parameters


def test_dense_graph_gets_aggressive_bottom_up(dota_small):
    g, _ = build_gap_graph(dota_small, directed=False)
    p = heuristic_parameters(g)
    assert p.alpha > 15.0
    assert p.beta > 18.0
    assert "dense" in p.rationale


def test_scale_free_gets_beamer_defaults(kron10):
    g, _ = build_gap_graph(kron10, directed=False)
    p = heuristic_parameters(g)
    assert (p.alpha, p.beta) == (15.0, 18.0)


def test_sparse_low_skew_avoids_bottom_up():
    import numpy as np

    from repro.graph.edgelist import EdgeList

    # A long path: maximal diameter, no skew.
    n = 512
    src = np.arange(n - 1)
    dst = src + 1
    el = EdgeList(src, dst, n, directed=False,
                  weights=np.ones(n - 1))
    g, _ = build_gap_graph(el, directed=False)
    p = heuristic_parameters(g)
    assert p.alpha < 1.0


def test_delta_scales_with_weights(dota_small):
    g, _ = build_gap_graph(dota_small, directed=False)
    p = heuristic_parameters(g)
    avg_w = float(g.out.weights.mean())
    assert p.delta >= avg_w


def test_sweep_shows_direction_optimization_wins_on_kron(kron10_dataset):
    """On a low-diameter Kronecker graph, some bottom-up beats none."""
    system = create_system("gap")
    loaded = system.load(kron10_dataset)
    root = int(kron10_dataset.roots[0])
    time_s = {alpha: system.run(loaded, "bfs", root=root, alpha=alpha,
                                beta=18.0).time_s
              for alpha in (1e-9, 15.0)}
    assert time_s[15.0] < time_s[1e-9]
