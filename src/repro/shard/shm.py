"""Zero-copy array publication over POSIX shared memory.

The artifact cache publishes array bundles as ``.npy`` memmaps that
worker processes map read-only; this module is the same idiom aimed at
:mod:`multiprocessing.shared_memory`: an :class:`ShmArena` packs a
``{name: ndarray}`` map into **one** segment with an explicit layout
table, and workers attach by name to get views of the very same pages
-- no pickling, no copies, and one ``shm_open`` per arena instead of
per array.

Lifecycle is the hard part (the satellite this module closes): segments
outlive crashed processes unless someone unlinks them.  The creating
process registers a :class:`multiprocessing.util.Finalize` unlink guard
(idempotent, also called from ``ShardEngine.close()``) -- a
multiprocessing finalizer rather than plain :mod:`atexit` because
forked children exit through ``os._exit``, where atexit handlers never
run but ``util._exit_function`` still sweeps its finalizers -- and
workers are *forked*, so
every process shares one resource-tracker whose entry the creator's
``unlink`` retires exactly once -- a worker death (even SIGKILL) can
neither leak a segment nor trigger the tracker's "leaked
shared_memory objects" noise, and a hard-killed *parent* still gets
its segments reaped by the shared tracker's shutdown sweep.
"""

from __future__ import annotations

import multiprocessing.util
import os
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.errors import ShardError

__all__ = ["ShmArena", "ArenaSpec", "ARENA_FINALIZE_PRIORITY"]

#: Exit-finalizer priority of the unlink guard; lower than the
#: engine's (:data:`repro.shard.engine.ENGINE_FINALIZE_PRIORITY`) so
#: workers are always shut down before their mappings vanish.
ARENA_FINALIZE_PRIORITY = 10


@dataclass(frozen=True)
class ArenaSpec:
    """Picklable attachment ticket: segment name + layout table."""

    segment: str
    #: ``(key, dtype string, shape tuple, byte offset)`` per array.
    layout: tuple[tuple[str, str, tuple[int, ...], int], ...]


def _segment_name() -> str:
    """``epg-<creator pid>-<token>``: the pid names who must unlink it."""
    return f"epg-{os.getpid()}-{secrets.token_hex(4)}"


def _align(offset: int, alignment: int = 64) -> int:
    return (offset + alignment - 1) & ~(alignment - 1)


class ShmArena:
    """A named bundle of ndarrays in one shared-memory segment."""

    def __init__(self, shm: shared_memory.SharedMemory,
                 spec: ArenaSpec, owner: bool):
        self._shm = shm
        self.spec = spec
        self._owner = owner
        self._closed = False
        self.arrays: dict[str, np.ndarray] = {}
        for key, dtype, shape, offset in spec.layout:
            self.arrays[key] = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=shm.buf,
                offset=offset)
        self._guard = None
        if owner:
            self._guard = multiprocessing.util.Finalize(
                None, self.destroy, exitpriority=ARENA_FINALIZE_PRIORITY)

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, arrays: dict[str, np.ndarray]) -> "ShmArena":
        """Publish ``arrays`` (copied once) into a fresh segment."""
        layout = []
        offset = 0
        for key, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            offset = _align(offset)
            layout.append((key, arr.dtype.str, tuple(arr.shape), offset))
            offset += arr.nbytes
        while True:
            try:
                shm = shared_memory.SharedMemory(
                    name=_segment_name(), create=True, size=max(offset, 1))
            except FileExistsError:  # the token clashed: draw again
                continue
            break
        spec = ArenaSpec(segment=shm.name, layout=tuple(layout))
        arena = cls(shm, spec, owner=True)
        for key, arr in arrays.items():
            arena.arrays[key][...] = arr
        return arena

    @classmethod
    def attach(cls, spec: ArenaSpec) -> "ShmArena":
        """Map an existing arena (worker side).

        Workers are forked, so they share the parent's resource-tracker
        process: their attach-time registrations dedupe into the entry
        the creator already holds, and the creator's ``unlink`` retires
        it -- no per-attacher bookkeeping, no double-unlink, and a
        SIGKILLed worker leaves the tracker state untouched.  (Under a
        spawn start method each attacher would get its *own* tracker,
        which unlinks segments it never owned; the engine only forks.)
        """
        try:
            shm = shared_memory.SharedMemory(name=spec.segment)
        except FileNotFoundError as exc:
            raise ShardError(
                f"shard arena {spec.segment!r} vanished (creator "
                f"exited?)") from exc
        return cls(shm, spec, owner=False)

    # ------------------------------------------------------------------
    def __getitem__(self, key: str) -> np.ndarray:
        return self.arrays[key]

    @property
    def closed(self) -> bool:
        """Whether this process's mapping was dropped (views over the
        arena are invalid once true -- touching them can segfault,
        since ``mmap`` unmaps regardless of outstanding ndarrays)."""
        return self._closed

    def close(self) -> None:
        """Drop this process's mapping (views become invalid)."""
        if self._closed:
            return
        self._closed = True
        self.arrays.clear()
        try:
            self._shm.close()
        except Exception:
            pass

    def destroy(self) -> None:
        """Close and, when owner, unlink the segment (idempotent)."""
        owner = self._owner and not self._closed
        self.close()
        if owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
            if self._guard is not None:
                self._guard.cancel()
