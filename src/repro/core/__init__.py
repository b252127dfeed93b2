"""easy-parallel-graph-* -- the harness itself.

The paper's contribution is not a new graph system but a framework that
makes comparing existing ones easy, rigorous, and repeatable
(Sec. III).  This package is that framework: the five pipeline phases
(install/setup, homogenize, run, parse, analyze), each independently
invocable exactly like the paper's five shell scripts (Fig 1),
plus the analysis layer that produces every table and figure of Sec. IV.
"""

from repro.core.analysis import Analysis, BoxStats, EfficiencyTable, summarize
from repro.core.api import run_comparison
from repro.core.config import ExperimentConfig
from repro.core.experiment import Experiment
from repro.core.projection import (
    WorkloadSize,
    check_feasibility,
    project,
    projected_scalability,
)
from repro.core.stats import compare_systems
from repro.core.suite import run_paper_suite

__all__ = [
    "ExperimentConfig",
    "Experiment",
    "run_comparison",
    "run_paper_suite",
    "summarize",
    "Analysis",
    "BoxStats",
    "EfficiencyTable",
    "WorkloadSize",
    "check_feasibility",
    "project",
    "projected_scalability",
    "compare_systems",
]
