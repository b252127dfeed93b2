"""Structural-algorithm gate: exact agreement always, >=2x peeling.

The widened algorithm matrix (k-core / MIS / afforest CC, see
``docs/algorithms.md``) has two enforced halves, mirroring the frontier
kernel gate:

* **Exact agreement.**  Every system that implements a structural
  kernel must reproduce the reference answer bit for bit at bench
  scale -- core numbers, the greedy-by-priority MIS under the shared
  seed, and min-member component labels are all mathematically unique,
  so the comparison is ``array_equal``, never a tolerance.  Repeated
  runs must also be bit-identical (no hidden RNG or dict-order state).
* **Speedup.**  The level peel (:func:`core_numbers`) must beat the
  ``O(n)``-rescan naive baseline (:func:`core_numbers_naive`) by at
  least ``SPEEDUP_FLOOR``x on a Kronecker graph at scale
  ``PEEL_SCALE`` -- decrementing only the touched neighborhoods, never
  recounting the whole adjacency.

Artifacts: ``bench_results/algorithms_gate.txt`` (human-readable) and
``bench_results/BENCH_algorithms.json`` (machine-readable, consumed by
the CI ``algorithms-smoke`` job).
"""

from __future__ import annotations

import json
import time

import numpy as np
from conftest import BENCH_SCALE, write_artifact

from repro.algorithms.cc import afforest
from repro.algorithms.kcore import core_numbers, core_numbers_naive
from repro.algorithms.mis import maximal_independent_set
from repro.datasets.kronecker import KroneckerSpec, generate_kronecker
from repro.graph.csr import CSRGraph
from repro.systems import create_system

SPEEDUP_FLOOR = 2.0
#: The ISSUE floor applies to the peel at Kronecker scale 14.
PEEL_SCALE = 14
#: Best-of-k timing on both sides, against scheduler noise.
TIMING_REPS = 3

#: system -> structural algorithms it implements (docs/algorithms.md).
MATRIX = {
    "gap": ("kcore", "mis", "cc"),
    "graphbig": ("kcore", "mis", "cc"),
    "graphmat": ("kcore", "mis"),
    "powergraph": ("kcore", "mis"),
}

OUTPUT_KEY = {"kcore": "core", "mis": "in_set", "cc": "labels"}


def _best_of(fn, *args):
    times = []
    fn(*args)  # warmup
    for _ in range(TIMING_REPS):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return min(times)


def test_algorithms_gate(kron_dataset_bench):
    el = generate_kronecker(KroneckerSpec(scale=BENCH_SCALE,
                                          weighted=True))
    csr = CSRGraph.from_arrays(el.src, el.dst, el.n_vertices)
    refs = {
        "kcore": core_numbers(csr),
        "mis": maximal_independent_set(csr).astype(np.int64),
        "cc": afforest(csr),
    }

    # ------------------------------------------------------------------
    # 1. Exact agreement at bench scale, every implementing system.
    # ------------------------------------------------------------------
    checks = []
    for name, algorithms in MATRIX.items():
        system = create_system(name, n_threads=32)
        loaded = system.load(kron_dataset_bench)
        for algorithm in algorithms:
            key = OUTPUT_KEY[algorithm]
            first = system.run(loaded, algorithm).output[key]
            second = system.run(loaded, algorithm).output[key]
            assert np.array_equal(first, refs[algorithm]), \
                f"{name}/{algorithm}: disagrees with the reference"
            assert first.tobytes() == second.tobytes(), \
                f"{name}/{algorithm}: repeated runs not bit-identical"
            checks.append(f"{name}/{algorithm}")

    # ------------------------------------------------------------------
    # 2. Peeling speedup at PEEL_SCALE.
    # ------------------------------------------------------------------
    peel_el = generate_kronecker(KroneckerSpec(scale=PEEL_SCALE))
    peel_csr = CSRGraph.from_arrays(peel_el.src, peel_el.dst,
                                    peel_el.n_vertices)
    assert np.array_equal(core_numbers(peel_csr),
                          core_numbers_naive(peel_csr))
    naive_s = _best_of(core_numbers_naive, peel_csr)
    fast_s = _best_of(core_numbers, peel_csr)
    speedup = naive_s / max(fast_s, 1e-9)
    assert speedup >= SPEEDUP_FLOOR, (
        f"k-core peel speedup {speedup:.2f}x below the "
        f"{SPEEDUP_FLOOR}x gate")

    # ------------------------------------------------------------------
    # Artifacts
    # ------------------------------------------------------------------
    payload = {
        "identity_scale": BENCH_SCALE,
        "identity_checks": checks,
        "exact_agreement": True,
        "peel_scale": PEEL_SCALE,
        "peel_n_vertices": int(peel_csr.n_vertices),
        "peel_n_arcs": int(peel_csr.n_edges),
        "peel_naive_s": round(naive_s, 4),
        "peel_fast_s": round(fast_s, 4),
        "peel_speedup": round(speedup, 2),
        "speedup_floor": SPEEDUP_FLOOR,
    }
    write_artifact("BENCH_algorithms.json", json.dumps(payload, indent=2))
    write_artifact("algorithms_gate.txt", "\n".join([
        f"identity_checks: {len(checks)} system/algorithm cells "
        f"(scale {BENCH_SCALE}) -- all exact and bit-identical",
        f"kcore_peel (kron scale {PEEL_SCALE}, {peel_csr.n_edges} "
        f"arcs): naive {naive_s:.3f}s level peel {fast_s:.3f}s "
        f"speedup {speedup:.2f}x (floor {SPEEDUP_FLOOR}x)",
    ]))
