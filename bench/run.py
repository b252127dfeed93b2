"""Entry point of the repo benchmark.

Two ways in, one code path:

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    runs that workload *in this process* (so its state and peak RSS are
    its own), prints its metrics, and ends with one JSON line
    ``{"correct", "attempted", "failed", "metrics"}`` -- every
    ``end_to_end`` metric of ``BENCHMARK.json`` with ``--trace 0``, every
    ``per_layer`` metric with ``--trace 1`` (a layer the workload does
    not cross reads 0).

``python3 bench/run.py [--workload NAME ...] [--trace] [--smoke] [--out F]``
    runs several workloads (default: all five), each in a fresh child
    process through the form above, prints one table, and writes the
    combined record to ``--out``.  ``--trace`` repeats each workload
    with the span wrappers for the per-layer numbers.

Either way a failed correctness or hygiene check exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Import as the ``bench`` package: with the script's own directory on
# the path, ``bench/trace.py`` would shadow the standard ``trace``.
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

DEFAULT_SEED = 20170402
LATENCY_METRICS = ("p50_ms", "p95_ms")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", nargs="+", default=None, metavar="NAME")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="time to measure per workload (default: "
                        "run_seconds of BENCHMARK.json; 0 with --smoke)")
    p.add_argument("--trace", nargs="?", type=int, choices=(0, 1),
                   const=1, default=0)
    p.add_argument("--smoke", action="store_true",
                   help="toy sizes, one pass: a functional check only")
    p.add_argument("--out", type=Path, default=None,
                   help="write the full record (metrics, notes, "
                        "fingerprint) here as JSON")
    return p.parse_args(argv)


def _format(name: str, metric: dict, notes: dict) -> str:
    line = f"  {name:<40}{metric['value']:>16.6g} {metric['unit']}"
    if name in LATENCY_METRICS and "latency_samples" in notes:
        line += f"  (n={notes['latency_samples']})"
    if name in notes:
        line += f"  [{notes[name]}]"
    return line


def run_one(name: str, args, spec: dict) -> int:
    """Run one workload here; print metrics, then the JSON line."""
    from bench.harness import TMP_BASE, execute, fingerprint, remove_tmp
    from bench.trace import Spans
    from bench.workloads import WORKLOADS

    trace = bool(args.trace)
    tmp = TMP_BASE / f"{name}-{os.getpid()}"
    tmp.mkdir(parents=True)
    workload = WORKLOADS[name](args.seed, args.smoke, trace, tmp)
    spans = Spans(name) if trace else None
    try:
        result = execute(workload, args.seconds, spans)
    finally:
        remove_tmp(tmp)

    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    undeclared = sorted(set(result["metrics"]) - set(units))
    if undeclared:
        print(f"bench: metrics not in BENCHMARK.json: {undeclared}",
              file=sys.stderr)
        return 3
    metrics = {n: {"value": result["metrics"].get(n, 0.0), "unit": u}
               for n, u in units.items()}
    correct = result["failed"] == 0

    print(f"{name}  seed={args.seed} trace={int(trace)} "
          f"smoke={args.smoke}")
    for metric_name, metric in metrics.items():
        if metric_name in result["metrics"]:    # layers it crossed
            print(_format(metric_name, metric, workload.notes))
    print(f"  {'fail_frac':<40}"
          f"{result['failed'] / result['attempted']:>16.6g} ratio  "
          f"({result['failed']} failed / {result['attempted']} attempted)")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")

    if args.out is not None:
        record = {"workload": name, "trace": int(trace),
                  "fingerprint": fingerprint(args.seed, args.smoke),
                  "seconds": args.seconds, "correct": correct,
                  "attempted": result["attempted"],
                  "failed": result["failed"],
                  "problems": result["problems"], "metrics": metrics,
                  "notes": workload.notes}
        if trace:
            record["self_s"] = result["self_s"]
            record["span_wall_s"] = result["span_wall_s"]
            record["spans"] = spans.to_json()
        args.out.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_many(names: list[str], args) -> int:
    """Each workload in a fresh child process; one table, one record."""
    from bench.harness import TMP_BASE, fingerprint, remove_tmp

    records_dir = TMP_BASE / f"records-{os.getpid()}"
    records_dir.mkdir(parents=True)
    combined = {"fingerprint": fingerprint(args.seed, args.smoke),
                "workloads": {}}
    status = 0
    try:
        for name in names:
            for trace in ((0, 1) if args.trace else (0,)):
                record_path = records_dir / f"{name}-{trace}.json"
                cmd = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(trace), "--out", str(record_path)]
                if args.smoke:
                    cmd.append("--smoke")
                proc = subprocess.run(cmd, text=True, timeout=900,
                                      stdout=subprocess.PIPE)
                # Everything but the machine-readable last line.
                print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
                if proc.returncode != 0:
                    status = 1
                    print(f"  {name} (trace={trace}) exited "
                          f"{proc.returncode}")
                if record_path.exists():
                    record = json.loads(record_path.read_text("utf-8"))
                    record.pop("spans", None)
                    record.pop("fingerprint", None)
                    key = "per_layer" if trace else "end_to_end"
                    combined["workloads"].setdefault(name, {})[key] = record
    finally:
        remove_tmp(records_dir)
    fp = combined["fingerprint"]
    print(f"fingerprint: cores={fp['cores']} cpu={fp['cpu']!r} "
          f"python={fp['python']} numpy={fp['numpy']} scipy={fp['scipy']} "
          f"commit={fp['commit']} seed={fp['seed']} smoke={fp['smoke']}")
    if args.out is not None:
        args.out.write_text(json.dumps(combined, indent=1),
                            encoding="utf-8")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").exists():
        print(f"bench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"bench: unknown workload(s) {unknown}; choose from {known}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    if len(names) == 1:
        return run_one(names[0], args, spec)
    return run_many(names, args)


if __name__ == "__main__":
    sys.exit(main())
