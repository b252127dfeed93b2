"""The content-addressed artifact store.

Layout (one directory per entry, fanned out by key prefix)::

    <root>/
        objects/<key[:2]>/<key>/
            meta.json       kind, payload digests, size, user metadata
            .lru            last-use stamp (monotonic integer text)
            <payload...>    the artifact's files (arrays, dataset tree)
        tmp/                in-flight entries (atomically renamed in)

Design points:

* **Atomic publication.**  An entry is built in ``tmp/`` and
  ``os.rename``\\ d into place; concurrent writers race benignly (the
  loser discards its copy -- both built identical bytes, that is what
  content addressing means).
* **Never trust the disk.**  ``get`` re-hashes every payload file
  against the digests recorded in ``meta.json`` (once per process per
  entry); a mismatch evicts the entry and reports a miss, so corruption
  costs a regeneration, never a wrong result.
* **LRU GC.**  Each hit refreshes the entry's ``.lru`` stamp;
  :meth:`gc` evicts stalest-first until the store fits ``max_bytes``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from repro.cache.bundle import read_arrays, write_arrays
from repro.errors import CacheError, ConfigError
from repro.logging_util import get_logger

__all__ = ["ArtifactCache", "CacheEntry", "parse_size"]

_META = "meta.json"
_LRU = ".lru"

_SIZE_SUFFIXES = {"K": 2**10, "M": 2**20, "G": 2**30, "T": 2**40}

#: ``1.5G``, ``512k``, ``2GiB``, ``500 MB``, plain ``4096``.  The
#: number part is a plain decimal (no exponents, no ``inf``/``nan`` --
#: ``float()`` alone would take those); the suffix is a binary unit in
#: either case, with optional ``B``/``iB`` spellings.
_SIZE_RE = re.compile(
    r"^\s*(?P<num>\d+(?:\.\d+)?)\s*"
    r"(?:(?P<unit>[KkMmGgTt])(?:i?[Bb])?|[Bb])?\s*$")


def parse_size(text: str | int) -> int:
    """Parse ``"500M"``-style byte sizes to an int.

    Binary suffixes ``K``/``M``/``G``/``T`` in either case, optionally
    spelled ``KB``/``KiB`` etc., with fractional values allowed
    (``"1.5G"``, ``"512k"``).  Garbage raises a
    :class:`~repro.errors.ConfigError` naming the offending spec.
    """
    if isinstance(text, bool):
        raise ConfigError(f"bad size spec {text!r} (want e.g. "
                          "'500M', '1.5G', or plain bytes)")
    if isinstance(text, int):
        value = text
    else:
        m = _SIZE_RE.match(str(text))
        if m is None:
            raise ConfigError(f"bad size spec {text!r} (want e.g. "
                              "'500M', '1.5G', '512k', or plain bytes)")
        unit = m.group("unit")
        mult = _SIZE_SUFFIXES[unit.upper()] if unit else 1
        value = int(float(m.group("num")) * mult)
    if value < 1:
        raise ConfigError(f"size must be >= 1 byte, got {text!r}")
    return value


@dataclass(frozen=True)
class CacheEntry:
    """One entry's identity and bookkeeping, as ``epg cache ls`` shows."""

    key: str
    kind: str
    size_bytes: int
    last_used: int
    path: Path


class ArtifactCache:
    """Content-addressed store with digest verification and LRU GC.

    ``tracer`` is optional; cache traffic is counted into its *live*
    metrics registry only (``log=False``), never into ``events.jsonl``
    -- hit/miss patterns depend on what previous invocations left on
    disk, and the trace must stay byte-identical regardless.
    """

    def __init__(self, root: str | Path, *, max_bytes: int | None = None,
                 tracer=None):
        self.root = Path(root)
        self.max_bytes = max_bytes
        self._tracer = tracer
        self._log = get_logger("repro.cache")
        #: Keys whose payload digests this process already re-checked;
        #: verification is per-process, not per-lookup.
        self._verified: set[str] = set()
        #: Plain counters for tests and ``epg cache``; the tracer copy
        #: feeds the registry, this one needs no observability stack.
        self.stats = {"hits": 0, "misses": 0, "stores": 0, "evictions": 0}

    @staticmethod
    def from_config(config, tracer=None) -> "ArtifactCache | None":
        """Build the cache an :class:`ExperimentConfig` asks for, or
        ``None`` when caching is off (no ``cache_dir``)."""
        if not getattr(config, "cache_active", False):
            return None
        return ArtifactCache(config.cache_dir,
                             max_bytes=config.cache_max_bytes,
                             tracer=tracer)

    # ------------------------------------------------------------------
    # Lookup / publication
    # ------------------------------------------------------------------
    def _entry_dir(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / key

    def contains(self, key: str) -> bool:
        """Presence probe: no stats, no verification, no LRU touch."""
        return (self._entry_dir(key) / _META).exists()

    def get(self, key: str, kind: str = "artifact") -> Path | None:
        """Return the entry directory for ``key``, or ``None`` on miss.

        Verifies payload digests on this process's first sight of the
        entry; corruption evicts it (logged as a warning) and reports a
        miss so the caller regenerates.
        """
        entry = self._entry_dir(key)
        meta = self._read_meta(entry)
        if meta is None:
            self._miss(kind, key)
            return None
        if key not in self._verified:
            problem = self._check(entry, meta)
            if problem is not None:
                self._log.warning("cache evict %s %s: %s (regenerating)",
                                  meta.get("kind", kind), key, problem)
                self._evict(entry)
                self._miss(kind, key)
                return None
            self._verified.add(key)
        self._touch(entry)
        self.stats["hits"] += 1
        self._count("epg_cache_hits_total", meta.get("kind", kind))
        self._log.info("cache hit %s %s", meta.get("kind", kind), key)
        return entry

    def discard(self, key: str, exc: Exception) -> None:
        """Evict an entry that verified but could not be used (``exc``
        is why), so the caller rebuilds it as on a miss."""
        self._log.warning("cache entry %s unusable (%s: %s); rebuilding",
                          key, type(exc).__name__, exc)
        self._evict(self._entry_dir(key))

    def put(self, key: str, kind: str, build, meta: dict | None = None
            ) -> Path:
        """Publish an entry: ``build(tmp_dir)`` writes the payload
        files, then the directory is digested and renamed into place.
        Returns the (possibly pre-existing) entry directory.
        """
        final = self._entry_dir(key)
        if (final / _META).exists():
            return final
        tmp = self.root / "tmp" / f"{key}.{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        try:
            build(tmp)
            files, size = self._digest_tree(tmp)
            from repro.ioutil import atomic_write_json

            atomic_write_json(tmp / _META, {
                "key": key, "kind": kind, "size_bytes": size,
                "files": files, "meta": meta or {},
            })
            self._touch(tmp)
            final.parent.mkdir(parents=True, exist_ok=True)
            try:
                os.rename(tmp, final)
            except OSError:
                # Lost a publication race: an identical entry landed
                # first (content addressing makes the copies equal).
                shutil.rmtree(tmp, ignore_errors=True)
                return final
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        self._verified.add(key)
        self.stats["stores"] += 1
        self._log.info("cache store %s %s (%d bytes)", kind, key, size)
        if self.max_bytes is not None:
            self.gc(self.max_bytes)
        self._gauge_bytes()
        return final

    # ------------------------------------------------------------------
    # Array-bundle convenience (layer 2)
    # ------------------------------------------------------------------
    def get_arrays(self, key: str, kind: str = "graph",
                   *, mmap: bool = True):
        """Hit: ``(arrays, meta)`` with memmap-backed arrays; miss: None."""
        entry = self.get(key, kind)
        if entry is None:
            return None
        meta = self._read_meta(entry) or {}
        return read_arrays(entry, mmap=mmap), meta.get("meta", {})

    def put_arrays(self, key: str, kind: str, arrays: dict,
                   meta: dict | None = None) -> Path:
        return self.put(key, kind, lambda tmp: write_arrays(tmp, arrays),
                        meta=meta)

    # ------------------------------------------------------------------
    # Maintenance (epg cache ls|gc|verify|clear)
    # ------------------------------------------------------------------
    def entries(self) -> list[CacheEntry]:
        objects = self.root / "objects"
        out = []
        if not objects.is_dir():
            return out
        for entry in sorted(objects.glob("??/*")):
            meta = self._read_meta(entry)
            if meta is None:
                continue
            out.append(CacheEntry(
                key=meta.get("key", entry.name),
                kind=meta.get("kind", "?"),
                size_bytes=int(meta.get("size_bytes", 0)),
                last_used=self._stamp(entry), path=entry))
        return out

    def total_bytes(self) -> int:
        return sum(e.size_bytes for e in self.entries())

    def gc(self, max_bytes: int | None = None) -> list[str]:
        """Evict least-recently-used entries until the store fits
        ``max_bytes``; returns the evicted keys (stalest first)."""
        budget = self.max_bytes if max_bytes is None else max_bytes
        if budget is None:
            raise CacheError("gc needs a byte budget (cache_max_bytes "
                             "or --max-bytes)")
        entries = sorted(self.entries(),
                         key=lambda e: (e.last_used, e.key))
        total = sum(e.size_bytes for e in entries)
        evicted = []
        for entry in entries:
            if total <= budget:
                break
            self._log.info("cache evict %s %s (LRU, %d bytes)",
                           entry.kind, entry.key, entry.size_bytes)
            self._evict(entry.path)
            total -= entry.size_bytes
            evicted.append(entry.key)
        self._gauge_bytes()
        return evicted

    def verify(self) -> list[str]:
        """Re-hash every entry; evict and report the corrupt ones."""
        problems = []
        for entry in self.entries():
            meta = self._read_meta(entry.path)
            problem = None if meta is None else \
                self._check(entry.path, meta)
            if problem is not None:
                problems.append(f"{entry.kind} {entry.key}: {problem}")
                self._log.warning("cache evict %s %s: %s",
                                  entry.kind, entry.key, problem)
                self._evict(entry.path)
        self._verified.clear()
        self._gauge_bytes()
        return problems

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        n = len(self.entries())
        shutil.rmtree(self.root / "objects", ignore_errors=True)
        shutil.rmtree(self.root / "tmp", ignore_errors=True)
        self._verified.clear()
        self._gauge_bytes()
        return n

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _read_meta(self, entry: Path) -> dict | None:
        try:
            return json.loads((entry / _META).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None

    def _check(self, entry: Path, meta: dict) -> str | None:
        """Digest-verify one entry; returns a problem string or None."""
        from repro.core.provenance import digest_file

        files = meta.get("files")
        if not isinstance(files, dict):
            return "meta.json lists no files"
        for rel, want in sorted(files.items()):
            path = entry / rel
            if not path.is_file():
                return f"missing payload file {rel}"
            if digest_file(path) != want:
                return f"digest mismatch in {rel}"
        return None

    def _digest_tree(self, tmp: Path) -> tuple[dict, int]:
        from repro.core.provenance import digest_file

        files, size = {}, 0
        for path in sorted(tmp.rglob("*")):
            if path.is_file():
                files[path.relative_to(tmp).as_posix()] = digest_file(path)
                size += path.stat().st_size
        return files, size

    def _touch(self, entry: Path) -> None:
        try:
            (entry / _LRU).write_text(str(time.time_ns()),
                                      encoding="utf-8")
        except OSError:
            pass  # a read-only cache still serves hits

    def _stamp(self, entry: Path) -> int:
        try:
            return int((entry / _LRU).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return 0

    def _evict(self, entry: Path) -> None:
        shutil.rmtree(entry, ignore_errors=True)
        self.stats["evictions"] += 1
        self._verified.discard(entry.name)
        self._count("epg_cache_evictions_total", "entry")

    def _miss(self, kind: str, key: str) -> None:
        self.stats["misses"] += 1
        self._count("epg_cache_misses_total", kind)
        self._log.info("cache miss %s %s", kind, key)

    def _count(self, name: str, kind: str) -> None:
        if self._tracer is not None:
            self._tracer.counter(name, log=False, kind=kind)

    def _gauge_bytes(self) -> None:
        if self._tracer is not None:
            self._tracer.gauge("epg_cache_bytes",
                               float(self.total_bytes()), log=False)
