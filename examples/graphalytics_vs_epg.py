"""Reproduce the paper's Sec. II argument: Graphalytics vs EPG*.

Runs the same PageRank workload on dota-league through both harnesses
and shows the timing inconsistency the paper exposes: Graphalytics'
GraphMat number silently includes reading the input file and building
the matrix, while its GraphBIG number does not.

Usage::

    python examples/graphalytics_vs_epg.py
"""

import tempfile

from repro.datasets.homogenize import homogenize
from repro.datasets.realworld import dota_league
from repro.graphalytics import GraphalyticsHarness, render_table
from repro.systems import create_system


def main() -> None:
    out = tempfile.mkdtemp(prefix="epg-vs-graphalytics-")
    dataset = homogenize(dota_league(), out)
    print(f"dota-league stand-in: {dataset.n_vertices} vertices, "
          f"{dataset.n_edges} edges\n")

    harness = GraphalyticsHarness(n_threads=32, seed=7)
    results = harness.run_matrix(
        dataset, algorithms=("bfs", "pagerank", "sssp", "wcc"))
    print(render_table(results, title="What Graphalytics reports:"))

    gm = next(r for r in results
              if r.platform == "graphmat" and r.algorithm == "pagerank")
    gb = next(r for r in results
              if r.platform == "graphbig" and r.algorithm == "pagerank")

    print("\nBut the GraphMat log tells a different story "
          "(cf. Table I excerpt):")
    print(f"  reported:   {gm.reported_s:.4g} s")
    print(f"  file read:  {gm.breakdown['file_read']:.4g} s")
    print(f"  build:      {gm.breakdown['build']:.4g} s")
    print(f"  algorithm:  {gm.breakdown['algorithm']:.4g} s")
    ratio = gm.reported_s / gm.breakdown["algorithm"]
    print(f"  -> ignoring the load phases, GraphMat would finish "
          f"{ratio:.1f}x faster than reported")
    print(f"  GraphBIG's cell ({gb.reported_s:.4g} s) already excludes "
          "its file read -- an apples-to-oranges table.")

    print("\nWhat EPG* measures for the same execution "
          "(phases separated):")
    system = create_system("graphmat", n_threads=32)
    loaded = system.load(dataset)
    result = system.run(loaded, "pagerank", max_iterations=10)
    print(f"  read:      {loaded.read_s:.4g} s")
    print(f"  build:     {loaded.build_s:.4g} s")
    print(f"  algorithm: {result.time_s:.4g} s   <- the comparable number")


if __name__ == "__main__":
    main()
