"""Artifact-cache gate: warm speedup without a single changed byte.

Runs the same bench-scale experiment three times -- uncached, cold
with a cache directory, and warm against the populated cache -- and
asserts all three ``results.csv`` files are byte-identical (the
cache's core invariant, checked at gate scale on every benchmark run)
and that the warm run is at least 2x faster than the cold one.  Unlike
the parallel gate, the speedup half needs no minimum core count: a
warm cache saves the same generation/homogenization/build work on any
machine.  A final zero-copy check confirms warm loads really are
views over the cached ``.npy`` memmaps, not private copies.
"""

import time

import numpy as np
import pytest
from conftest import BENCH_ROOTS, BENCH_SCALE, write_artifact

from repro.cache import ArtifactCache
from repro.core.config import ExperimentConfig
from repro.core.experiment import Experiment

SPEEDUP_FLOOR = 2.0

#: Load-dominated slice of the bench workload: the cache accelerates
#: dataset prep and graph builds, so the gate scenario keeps kernel
#: time (which caching must NOT touch) from drowning the signal.
GATE_ROOTS = max(2, BENCH_ROOTS // 2)
GATE_ALGOS = ("bfs", "sssp")


def _memmap_backed(a) -> bool:
    while a is not None:
        if isinstance(a, np.memmap):
            return True
        a = getattr(a, "base", None)
    return False


def test_cache_gate(benchmark, tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("bench-cache-store")
    params = dict(scale=BENCH_SCALE, n_roots=GATE_ROOTS,
                  algorithms=GATE_ALGOS)

    def run(out, **kw):
        cfg = ExperimentConfig(output_dir=out, **params, **kw)
        t0 = time.perf_counter()
        Experiment(cfg).run_all()
        return time.perf_counter() - t0

    nocache_out = tmp_path_factory.mktemp("bench-cache-none")
    cold_out = tmp_path_factory.mktemp("bench-cache-cold")
    warm_out = tmp_path_factory.mktemp("bench-cache-warm")

    run(nocache_out)
    cold_s = run(cold_out, cache_dir=cache_dir)

    t0 = time.perf_counter()
    benchmark.pedantic(run, args=(warm_out,),
                       kwargs=dict(cache_dir=cache_dir),
                       rounds=1, iterations=1)
    warm_s = time.perf_counter() - t0

    nocache_csv = (nocache_out / "results.csv").read_bytes()
    assert (cold_out / "results.csv").read_bytes() == nocache_csv, \
        "cold cached run changed results.csv -- cache is not transparent"
    assert (warm_out / "results.csv").read_bytes() == nocache_csv, \
        "warm cached run changed results.csv -- cache is not transparent"

    # Zero-copy: a warm load's arrays are views over the cached memmaps.
    from repro.datasets.homogenize import homogenize
    from repro.datasets.kronecker import KroneckerSpec, generate_kronecker
    from repro.systems import create_system

    cache = ArtifactCache(cache_dir)
    ds = homogenize(
        generate_kronecker(KroneckerSpec(scale=BENCH_SCALE), cache=cache),
        tmp_path_factory.mktemp("bench-cache-ds"), cache=cache,
        n_roots=GATE_ROOTS)
    create_system("gap").load(ds, cache=cache)  # ensure the entry exists
    warm_sys = create_system("gap")
    warm = warm_sys.load(ds, cache=cache).data
    arrays = {**warm.out.to_arrays_map("out_"),
              **warm.inn.to_arrays_map("inn_")}
    assert arrays and all(_memmap_backed(a) for a in arrays.values()), \
        "warm GAP load is not memmap-backed -- workers would copy"
    assert cache.stats["hits"] >= 1, \
        "zero-copy check never hit the bench store"

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    write_artifact(
        "cache_gate.txt",
        f"cold_s: {cold_s:.2f}\n"
        f"warm_s: {warm_s:.2f}\n"
        f"speedup: {speedup:.2f}x\n"
        f"cache_bytes: {cache.total_bytes()}\n"
        f"byte_identical: true\n"
        f"zero_copy: true")
    print(f"\ncold {cold_s:.2f}s  warm {warm_s:.2f}s  "
          f"speedup {speedup:.2f}x")

    assert speedup >= SPEEDUP_FLOOR, \
        f"warm speedup {speedup:.2f}x below {SPEEDUP_FLOOR}x floor"
