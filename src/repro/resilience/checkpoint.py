"""Per-experiment checkpoint manifests (``checkpoint.json``).

One manifest per experiment directory records the terminal outcome of
every cell the run phase has finished with -- completed, unsupported,
or quarantined -- plus the full attempt history.  The manifest is
rewritten atomically after every cell, so killing a run at any instant
loses at most the in-flight cell; a rerun (or ``epg resume``) skips
everything already recorded and produces byte-identical downstream
artifacts, because every cell is deterministic given the seed.

A manifest is bound to its configuration by digest: rerunning the same
directory with a different config silently starts a fresh manifest
(the old outcomes would not be comparable), while a *corrupt* manifest
raises :class:`~repro.errors.CheckpointError` -- silent data loss is
exactly what this subsystem exists to prevent.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.errors import CheckpointError
from repro.ioutil import atomic_write_json
from repro.logging_util import get_logger
from repro.resilience.supervisor import CellOutcome

__all__ = ["CHECKPOINT_NAME", "SuiteCheckpoint", "config_digest"]

CHECKPOINT_NAME = "checkpoint.json"
_VERSION = 1


def config_digest(config) -> str:
    """Stable digest of everything that affects cell outcomes."""
    d = config.to_dict()
    d.pop("output_dir", None)   # moving a directory must not invalidate it
    payload = json.dumps(d, sort_keys=True).encode()
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


class SuiteCheckpoint:
    """The run phase's persistent cell ledger for one experiment dir."""

    def __init__(self, directory: str | Path, digest: str,
                 cells: dict[str, CellOutcome] | None = None):
        self.directory = Path(directory)
        self.digest = digest
        self.cells: dict[str, CellOutcome] = dict(cells or {})

    @property
    def path(self) -> Path:
        return self.directory / CHECKPOINT_NAME

    # ------------------------------------------------------------------
    @classmethod
    def load_or_create(cls, directory: str | Path,
                       config) -> "SuiteCheckpoint":
        """Load the directory's manifest, or start a fresh one.

        A manifest whose config digest differs from ``config`` is
        discarded (logged): the caller changed the experiment, so prior
        outcomes no longer apply.  A manifest that cannot be parsed
        raises :class:`CheckpointError`.
        """
        directory = Path(directory)
        digest = config_digest(config)
        path = directory / CHECKPOINT_NAME
        if not path.exists():
            return cls(directory, digest)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
            if raw.get("version") != _VERSION:
                raise CheckpointError(
                    f"{path}: unsupported checkpoint version "
                    f"{raw.get('version')!r}")
            cells = {k: CellOutcome.from_dict(v)
                     for k, v in raw.get("cells", {}).items()}
            stored_digest = raw["config_digest"]
        except CheckpointError:
            raise
        except (json.JSONDecodeError, KeyError, TypeError,
                ValueError) as exc:
            raise CheckpointError(
                f"{path}: corrupt checkpoint manifest ({exc})") from exc
        if stored_digest != digest:
            get_logger("repro.resilience").info(
                "%s: config changed; starting a fresh checkpoint", path)
            return cls(directory, digest)
        return cls(directory, digest, cells)

    # ------------------------------------------------------------------
    def record(self, outcome: CellOutcome) -> None:
        """Record one cell outcome and persist the manifest atomically."""
        self.cells[outcome.cell] = outcome
        self.save()

    def save(self) -> Path:
        return atomic_write_json(self.path, {
            "version": _VERSION,
            "config_digest": self.digest,
            "cells": {k: v.to_dict() for k, v in sorted(self.cells.items())},
        }, sort_keys=True)

    # ------------------------------------------------------------------
    def get(self, cell: str) -> CellOutcome | None:
        return self.cells.get(cell)

    def quarantined(self) -> list[CellOutcome]:
        return [o for o in self.cells.values() if o.status == "quarantined"]

    # ------------------------------------------------------------------
    @staticmethod
    def clear(directory: str | Path) -> None:
        """Delete a directory's manifest (fresh-run semantics)."""
        path = Path(directory) / CHECKPOINT_NAME
        if path.exists():
            path.unlink()

    @staticmethod
    def scan_quarantined(root: str | Path) -> list[str]:
        """All quarantined cells under ``root`` (any depth), as
        ``subdir:cell`` labels -- the CLI's degraded-completion check."""
        root = Path(root)
        out: list[str] = []
        for path in sorted(root.rglob(CHECKPOINT_NAME)):
            try:
                raw = json.loads(path.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, OSError):
                continue
            rel = path.parent.relative_to(root).as_posix()
            prefix = "" if rel == "." else f"{rel}:"
            for cell, entry in sorted(raw.get("cells", {}).items()):
                if entry.get("status") == "quarantined":
                    out.append(prefix + cell)
        return out
