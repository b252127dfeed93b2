"""Experiment planning with the feasibility predictor (paper Sec. V).

"Determining whether an algorithm will finish given a particular
machine, input size, runtime limit, and resources is an important
unanswered question."  This example answers it for a planned study:
given a machine and a per-kernel time budget, at which Kronecker scale
does each (system, algorithm) cell stop being runnable, and why?

Usage::

    python examples/feasibility_planning.py [time_limit_seconds]
"""

import sys

from repro.core.projection import WorkloadSize, check_feasibility
from repro.machine.spec import MachineSpec, haswell_server
from repro.systems import calibration

SCALES = (20, 22, 24, 26, 28, 30)


def max_feasible_scale(system: str, algorithm: str,
                       machine: MachineSpec,
                       time_limit_s: float) -> tuple[int | None, str]:
    """Largest probed scale that fits, and the first limiting factor."""
    best = None
    blocker = "-"
    for scale in SCALES:
        v = check_feasibility(system, algorithm,
                              WorkloadSize.kronecker(scale),
                              machine=machine,
                              time_limit_s=time_limit_s)
        if v.feasible:
            best = scale
        else:
            blocker = v.limiting_factor
            break
    return best, blocker


def main() -> None:
    time_limit = float(sys.argv[1]) if len(sys.argv) > 1 else 3600.0
    machine = haswell_server()
    print(f"machine: {machine.name} ({machine.n_threads} threads, "
          f"{machine.ram_gb} GB); per-kernel budget {time_limit:g} s\n")
    header = (f"{'system':<12}{'algorithm':<11}{'max scale':>10}"
              f"  first blocker")
    print(header)
    print("-" * len(header))
    for system in ("gap", "graph500", "graphbig", "graphmat",
                   "powergraph"):
        for algorithm in sorted(calibration._ANCHORS.get(system, {})):
            best, blocker = max_feasible_scale(system, algorithm,
                                               machine, time_limit)
            shown = str(best) if best is not None else "<20"
            print(f"{system:<12}{algorithm:<11}{shown:>10}  {blocker}")

    print("\nNote how the wedge-driven kernels (lcc, tc) hit the time "
          "budget many scales before anything runs out of the 256 GB "
          "of RAM -- the paper's observation that Graphalytics 'fails' "
          "on the computationally expensive algorithms, quantified.")


if __name__ == "__main__":
    main()
