"""Ablation: PowerGraph vertex-cut partition count.

Design choice under test: the vertex-cut's replication factor grows
with the number of partitions, trading parallelism against mirror
synchronization -- the mechanism behind both PowerGraph's fixed
overhead (Figs 3-4) and its dense-graph tolerance (Sec. IV-C).
Sweeps the partition count and reports replication factor, mirrors,
and the simulated SSSP time.
"""

from conftest import write_artifact

from repro.core.report import format_table
from repro.systems import create_system

PARTITIONS = (2, 4, 8, 16, 32, 64)


def test_ablation_partitions(benchmark, kron_dataset_bench):
    def sweep():
        rows = {}
        for k in PARTITIONS:
            system = create_system("powergraph", n_threads=32,
                                   n_partitions=k)
            loaded = system.load(kron_dataset_bench)
            res = system.run(loaded, "sssp",
                             root=int(kron_dataset_bench.roots[0]))
            rows[k] = (loaded.data.engine.replication_factor,
                       loaded.data.mirrors, res.time_s)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        f"Vertex-cut ablation, {kron_dataset_bench.name} (SSSP, 32 "
        "threads)",
        ["replication", "mirrors", "time (s)"],
        {f"{k} partitions": [f"{r:.2f}", f"{m}", f"{t:.4g}"]
         for k, (r, m, t) in rows.items()})
    write_artifact("ablation_partitions.txt", table)
    print("\n" + table)

    reps = [rows[k][0] for k in PARTITIONS]
    # Replication factor grows monotonically with partition count ...
    assert all(b >= a for a, b in zip(reps, reps[1:]))
    # ... bounded by the partition count and by average degree.
    for k, (r, _, _) in rows.items():
        assert 1.0 <= r <= k
    # More partitions -> more mirror-sync work per superstep.
    assert rows[64][2] > rows[2][2]
