"""The canonical measurement record.

Every log line EPG* parses becomes one :class:`Record` -- the rows of
the CSV that phase 4 produces and phase 5 analyzes (the paper's
"parse through the log files to compress the output into a CSV").
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.errors import ConfigError

__all__ = ["Record", "METRICS", "record_values"]

#: Known metric names.
METRICS = (
    "time",           # algorithm kernel seconds (one per root/trial)
    "read",           # file-read seconds (separable-load systems)
    "build",          # data-structure construction seconds
    "load",           # fused read+build seconds (GraphBIG, PowerGraph)
    "iterations",     # PageRank sweeps / engine supersteps
    "depth",          # BFS depth
    "teps",           # Graph500 harmonic-mean traversed edges/second
    "pkg_watts",      # average package power over the measured region
    "dram_watts",     # average DRAM power
    "pkg_joules",     # package energy of the measured region
    "dram_joules",    # DRAM energy
)


@dataclass(frozen=True)
class Record:
    system: str
    algorithm: str
    dataset: str
    threads: int
    metric: str
    value: float
    #: Search root for BFS/SSSP; trial index reused for rootless runs.
    root: int = -1
    trial: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def csv_header() -> str:
        return "system,algorithm,dataset,threads,root,trial,metric,value"

    def to_csv_row(self) -> str:
        return (f"{self.system},{self.algorithm},{self.dataset},"
                f"{self.threads},{self.root},{self.trial},"
                f"{self.metric},{self.value!r}")

    @staticmethod
    def from_csv_row(row: str) -> "Record":
        parts = row.rstrip("\n").split(",")
        if len(parts) != 8:
            from repro.errors import LogParseError
            raise LogParseError(f"bad CSV row: {row!r}")
        return Record(
            system=parts[0], algorithm=parts[1], dataset=parts[2],
            threads=int(parts[3]), root=int(parts[4]), trial=int(parts[5]),
            metric=parts[6], value=float(parts[7]))


def record_values(records: list[Record], system: str, algorithm: str,
                  metric: str = "time", dataset: str | None = None,
                  threads: int | None = None,
                  label: str | None = None) -> list[float]:
    """The values of ``system``'s ``algorithm`` records of ``metric``
    (on ``dataset``, at ``threads`` when given); none is a
    ``ConfigError`` naming ``label`` (default: all four)."""
    vals = [r.value for r in records
            if r.system == system and r.algorithm == algorithm
            and r.metric == metric
            and (dataset is None or r.dataset == dataset)
            and (threads is None or r.threads == threads)]
    if not vals:
        label = label or f"{system}/{algorithm}/{dataset}/{threads}"
        raise ConfigError(f"no {metric} records for {label}")
    return vals
