"""The daemon's durable roster: ``served.json``.

The manifest is the serving analogue of ``checkpoint.json``: a small
atomic JSON file recording which graphs the daemon serves and where
their homogenized bytes live, so a SIGKILL'd daemon restarts into the
same roster instead of an empty one.  Entries carry the on-disk byte
total at publish time; recovery treats a size mismatch as corruption
and rebuilds the graph rather than serving damaged inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ServiceError
from repro.ioutil import atomic_write_json

__all__ = ["MANIFEST_NAME", "ServedGraph", "ServedManifest"]

MANIFEST_NAME = "served.json"

#: Bump on manifest schema changes; a mismatched version is treated
#: like a missing manifest (cold start), never an error.
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class ServedGraph:
    """One graph the daemon has published."""

    name: str
    spec: str
    #: Homogenized dataset directory, relative to the data dir.
    directory: str
    #: Total bytes under ``directory`` when the entry was published.
    bytes: int

    def to_dict(self) -> dict:
        return {"name": self.name, "spec": self.spec,
                "directory": self.directory, "bytes": self.bytes}

    @staticmethod
    def from_dict(d: dict) -> "ServedGraph":
        return ServedGraph(name=d["name"], spec=d["spec"],
                           directory=d["directory"],
                           bytes=int(d["bytes"]))


class ServedManifest:
    """Atomic load/save of the served-graph roster."""

    def __init__(self, data_dir: str | Path):
        self.data_dir = Path(data_dir)
        self.graphs: dict[str, ServedGraph] = {}

    @property
    def path(self) -> Path:
        return self.data_dir / MANIFEST_NAME

    # ------------------------------------------------------------------
    def record(self, entry: ServedGraph) -> None:
        self.graphs[entry.name] = entry
        self.save()

    def save(self) -> None:
        self.data_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_json(self.path, {
            "version": MANIFEST_VERSION,
            "graphs": [self.graphs[k].to_dict()
                       for k in sorted(self.graphs)],
        })

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, data_dir: str | Path) -> "ServedManifest":
        """Load the roster; a missing, torn, or foreign-version file
        yields an empty manifest (cold start), never an exception --
        except for a present-but-unreadable *directory*, which is a
        real configuration problem."""
        m = cls(data_dir)
        path = m.path
        if not path.exists():
            return m
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            return m  # torn write: the previous save is gone, start cold
        if not isinstance(raw, dict) \
                or raw.get("version") != MANIFEST_VERSION:
            return m
        try:
            for d in raw.get("graphs", ()):
                entry = ServedGraph.from_dict(d)
                m.graphs[entry.name] = entry
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(
                f"{path}: malformed served-graph entry: {exc}") from exc
        return m
