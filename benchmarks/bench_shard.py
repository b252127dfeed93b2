"""Sharded engine gate: more cores, not one changed byte.

Two halves, mirroring ``bench_parallel.py``'s contract for the outer
scheduler:

* **Bit-identity (always runs).**  Every sharded driver -- BFS
  (direction-optimizing), bitmap BFS, delta-stepping SSSP, pull
  PageRank -- must reproduce its serial kernel *exactly* at every shard
  count, inline and process-backed: outputs, :class:`WorkProfile`
  arrays, ``serial_units``, and stats dicts, compared bytewise.  This
  is the invariant that keeps ``--shards N`` out of REPORT.md.
* **Speedup (needs >= 4 physical cores).**  Process-backed PageRank at
  ``shards=4`` must beat the serial kernel by ``SPEEDUP_FLOOR`` on the
  gate graph.  CI containers with fewer cores skip this half (fork +
  shared-memory overhead legitimately eats the win there), exactly as
  the parallel gate does.

``EPG_SHARD_SCALE`` picks the Kronecker scale (default 16; CI's
shard-smoke job runs 12 to fit its time budget).
"""

import json
import os
import time

import numpy as np
import pytest
from conftest import write_artifact

from repro.algorithms.pagerank import pagerank
from repro.datasets.kronecker import KroneckerSpec, generate_kronecker
from repro.shard.drivers import (
    shard_bfs_bitmap,
    shard_delta_stepping,
    shard_dobfs,
    shard_pagerank,
)
from repro.shard.engine import ShardEngine
from repro.systems.gap.bfs import dobfs
from repro.systems.gap.graph import build_gap_graph
from repro.systems.gap.sssp import delta_stepping
from repro.systems.graph500.bfs import bfs_bitmap

SHARD_SCALE = int(os.environ.get("EPG_SHARD_SCALE", "16"))
SHARD_COUNTS = (1, 2, 4)
SPEEDUP_FLOOR = 2.0
MIN_CORES_FOR_SPEEDUP = 4
ROOT = 0


@pytest.fixture(scope="module")
def gate_graph():
    el = generate_kronecker(KroneckerSpec(scale=SHARD_SCALE,
                                          weighted=True))
    graph, _ = build_gap_graph(el, directed=True)
    return graph


@pytest.fixture(scope="module")
def serial_results(gate_graph):
    g = gate_graph
    return {
        "dobfs": dobfs(g, ROOT),
        "bitmap": bfs_bitmap(g.out, ROOT),
        "sssp": delta_stepping(g, ROOT),
        "pagerank": pagerank(g.out),
    }


def _assert_profiles_equal(serial, sharded, tag):
    a, b = serial.to_arrays(), sharded.to_arrays()
    for key in a:
        assert np.array_equal(a[key], b[key]), \
            f"{tag}: profile array {key!r} diverged"
    assert serial.serial_units == sharded.serial_units, tag


def _run_and_compare(g, engine, serial):
    p0, l0, prof0, st0 = serial["dobfs"]
    p1, l1, prof1, st1 = shard_dobfs(g, ROOT, engine)
    assert p0.tobytes() == p1.tobytes(), "dobfs parent diverged"
    assert l0.tobytes() == l1.tobytes(), "dobfs level diverged"
    _assert_profiles_equal(prof0, prof1, "dobfs")
    assert st0 == st1, "dobfs stats diverged"

    p0, l0, prof0, st0 = serial["bitmap"]
    p1, l1, prof1, st1 = shard_bfs_bitmap(g.out, ROOT, engine)
    assert p0.tobytes() == p1.tobytes(), "bitmap parent diverged"
    assert l0.tobytes() == l1.tobytes(), "bitmap level diverged"
    _assert_profiles_equal(prof0, prof1, "bitmap")
    assert st0 == st1, "bitmap stats diverged"

    d0, prof0, st0 = serial["sssp"]
    d1, prof1, st1 = shard_delta_stepping(g, ROOT, engine)
    assert d0.tobytes() == d1.tobytes(), "sssp dist diverged"
    _assert_profiles_equal(prof0, prof1, "sssp")
    assert st0 == st1, "sssp stats diverged"

    r0, it0 = serial["pagerank"]
    r1, it1 = shard_pagerank(g.out, engine)
    assert r0.tobytes() == r1.tobytes(), "pagerank ranks diverged"
    assert it0 == it1, "pagerank iteration count diverged"


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_shard_bit_identity(gate_graph, serial_results, shards):
    """Inline engines: every shard count, all four kernels,
    byte-for-byte."""
    g = gate_graph
    with ShardEngine(g.out, g.inn, n_shards=shards, inline=True) as engine:
        _run_and_compare(g, engine, serial_results)


def test_shard_bit_identity_process(gate_graph, serial_results):
    """Process-backed engine (real fork + shared memory): the same
    contract through the worker pool."""
    g = gate_graph
    with ShardEngine(g.out, g.inn, n_shards=2) as engine:
        assert not engine.inline
        _run_and_compare(g, engine, serial_results)


def test_shard_speedup_gate(gate_graph, benchmark):
    """Wall-clock gate: shards=4 PageRank vs serial, plus the committed
    artifacts -- identity numbers ride along so one file tells the
    whole story."""
    g = gate_graph
    cores = os.cpu_count() or 1

    t0 = time.perf_counter()
    r0, it0 = pagerank(g.out)
    serial_s = time.perf_counter() - t0

    with ShardEngine(g.out, g.inn, n_shards=4) as engine:
        # Warm the worker pool before timing (fork cost is one-time).
        shard_pagerank(g.out, engine)
        t0 = time.perf_counter()
        r1, it1 = benchmark.pedantic(shard_pagerank, args=(g.out, engine),
                                     rounds=1, iterations=1)
        sharded_s = time.perf_counter() - t0
        rounds, nbytes = engine.rounds, engine.bytes_exchanged
        cut = engine.partition.cut_edges
        process_mode = not engine.inline

    identical = r0.tobytes() == r1.tobytes() and it0 == it1
    assert identical, "shards=4 PageRank diverged from serial"

    speedup = serial_s / sharded_s if sharded_s > 0 else float("inf")
    # Below the gate's core count the ratio measures fork and
    # shared-memory overhead, not sharding: record that it was not
    # measured instead of a number that reads like a result.
    measured = cores >= MIN_CORES_FOR_SPEEDUP
    shown = (f"{speedup:.2f}x" if measured else
             f"not measured (cores: {cores} < {MIN_CORES_FOR_SPEEDUP})")
    write_artifact(
        "shard_gate.txt",
        f"scale: {SHARD_SCALE}\n"
        f"cores: {cores}\n"
        f"process_mode: {str(process_mode).lower()}\n"
        f"serial_s: {serial_s:.3f}\n"
        f"shards4_s: {sharded_s:.3f}\n"
        f"speedup: {shown}\n"
        f"rounds: {rounds}\n"
        f"bytes_exchanged: {nbytes}\n"
        f"cut_edges: {cut}\n"
        f"bit_identical: {str(identical).lower()}")
    write_artifact(
        "BENCH_shard.json",
        json.dumps({
            "scale": SHARD_SCALE, "cores": cores,
            "process_mode": process_mode,
            "serial_s": round(serial_s, 4),
            "shards4_s": round(sharded_s, 4),
            "speedup": round(speedup, 3) if measured else shown,
            "pagerank_iterations": it0,
            "rounds": rounds, "bytes_exchanged": nbytes,
            "cut_edges": int(cut),
            "shard_counts": list(SHARD_COUNTS),
            "bit_identical": identical,
        }, indent=2))
    print(f"\nserial {serial_s:.3f}s  shards=4 {sharded_s:.3f}s  "
          f"speedup {shown}  ({cores} cores)")

    if not measured:
        pytest.skip(f"{cores} core(s): speedup assertion needs "
                    f">= {MIN_CORES_FOR_SPEEDUP}; bit-identity checked")
    assert speedup >= SPEEDUP_FLOOR, \
        f"shards=4 speedup {speedup:.2f}x below {SPEEDUP_FLOOR}x floor"
