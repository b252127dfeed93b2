"""Experiment provenance: who produced these numbers, and can anyone
reproduce them bit-for-bit?

The paper's abstract promises "easy, rigorous, and repeatable"
comparison; repeatability needs more than a seed -- it needs a record
of everything the numbers depended on and a cheap way to verify a
rerun matched.  :func:`capture` writes a ``provenance.json`` next to
the results holding the configuration, the machine model, the package
version and python/numpy versions, and a content digest of
results.csv; :func:`verify` re-checks a directory against it.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.core.config import ExperimentConfig
from repro.errors import ConfigError
from repro.ioutil import atomic_write_text

__all__ = ["Provenance", "capture", "verify", "digest_file"]


def digest_file(path: str | Path) -> str:
    """BLAKE2b content digest of one file (hex, 32 chars), fed in
    1 MiB blocks so the input never has to fit in RAM."""
    h = hashlib.blake2b(digest_size=16)
    with Path(path).open("rb") as fh:
        while block := fh.read(1 << 20):
            h.update(block)
    return h.hexdigest()


@dataclass(frozen=True)
class Provenance:
    """Everything a rerun needs to check itself against."""

    config: dict
    machine: dict
    results_digest: str
    software: dict

    def to_json(self) -> str:
        return json.dumps({
            "config": self.config,
            "machine": self.machine,
            "results_digest": self.results_digest,
            "software": self.software,
        }, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Provenance":
        d = json.loads(text)
        return Provenance(config=d["config"], machine=d["machine"],
                          results_digest=d["results_digest"],
                          software=d["software"])


def _machine_dict(config: ExperimentConfig) -> dict:
    m = config.machine
    return {
        "name": m.name, "sockets": m.sockets,
        "cores_per_socket": m.cores_per_socket, "smt": m.smt,
        "mem_bw_gbs": m.mem_bw_gbs, "ram_gb": m.ram_gb,
        "idle_pkg_watts": m.idle_pkg_watts,
    }


def capture(config: ExperimentConfig) -> Path:
    """Write ``provenance.json`` for a completed experiment."""
    import numpy

    import repro

    results = config.output_dir / "results.csv"
    if not results.exists():
        raise ConfigError(
            f"{results} missing: run the pipeline before capture()")
    prov = Provenance(
        config=config.to_dict(),
        machine=_machine_dict(config),
        results_digest=digest_file(results),
        software={
            "repro": repro.__version__,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
    )
    path = config.output_dir / "provenance.json"
    atomic_write_text(path, prov.to_json())
    return path


def verify(output_dir: str | Path) -> tuple[bool, list[str]]:
    """Check an experiment directory against its provenance record.

    Returns ``(ok, problems)``.  A digest mismatch means results.csv no
    longer matches what was captured -- either the data was edited or a
    rerun diverged (which, given the deterministic design, indicates a
    code change).
    """
    output_dir = Path(output_dir)
    ppath = output_dir / "provenance.json"
    problems: list[str] = []
    if not ppath.exists():
        return False, ["no provenance.json"]
    prov = Provenance.from_json(ppath.read_text(encoding="utf-8"))
    results = output_dir / "results.csv"
    if not results.exists():
        problems.append("results.csv missing")
    elif digest_file(results) != prov.results_digest:
        problems.append("results.csv digest mismatch")
    cfg_path = output_dir / "config.json"
    if cfg_path.exists():
        current = json.loads(cfg_path.read_text(encoding="utf-8"))
        if current != prov.config:
            problems.append("config.json differs from captured config")
    return not problems, problems
