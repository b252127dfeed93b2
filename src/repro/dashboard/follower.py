"""Incremental, offset-checkpointed tail of an ``events.jsonl`` log.

The dashboard watches runs that are *in flight*: the tracer on the
other side appends one JSON line per event and may be killed mid-write
at any instant, and ``epg resume`` later truncates the torn tail and
appends more.  :class:`EventFollower` turns that moving file into a
stable accumulated event list under three invariants:

* **Never block, never crash.**  A missing file, a torn final line,
  or a corrupt line yields an empty/partial poll, not an exception.
  Lines are read by the log's one reader,
  :func:`repro.observability.tracer.parse_events`: a corrupt complete
  line -- one that ``epg trace`` and resume would reject -- is counted
  in ``malformed`` and skipped.
* **Never double-count.**  The follower's offset only ever advances
  past *newline-terminated* lines, which is exactly the prefix the
  reader parses and a resumed run keeps when it truncates a torn tail
  -- so resume-append extends the follower's view without replaying
  anything.
* **Detect replacement.**  A fresh (non-resume) run unlinks and
  recreates the log.  A new inode or a file shorter than the offset
  is the obvious signature, but filesystems happily reuse inodes, so
  the follower also fingerprints the first line it consumed (the
  tracer's ``meta`` line embeds the run's wall-clock start, so two
  runs never open identically) and resets when they change --
  reporting the reset so callers can discard derived state (metric
  histories, span caches).

Strictly read-only: the follower opens the log ``rb`` and never
writes, so attaching a dashboard to a run cannot perturb its bytes.
"""

from __future__ import annotations

from pathlib import Path

from repro.observability.tracer import parse_events, sim_end

__all__ = ["EventFollower"]


class EventFollower:
    """Tail one event log; accumulate parsed events across polls.

    Attributes (all maintained by :meth:`poll`):

    * ``events`` -- every complete event seen since the last reset, in
      file order;
    * ``offset`` -- byte position of the first unconsumed byte (always
      just past a newline);
    * ``resets`` -- times the file was replaced or truncated below the
      offset (each reset clears ``events``);
    * ``malformed`` -- corrupt complete lines (skipped);
    * ``pending_partial`` -- the last poll left a torn final line in
      the file (the in-flight-append signature).
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.offset = 0
        self.events: list[dict] = []
        self.resets = 0
        self.malformed = 0
        self.pending_partial = False
        self._ino: int | None = None
        #: The first consumed line; a mismatch on re-read means the
        #: file was replaced even if the inode number was recycled.
        self._prefix = b""

    # ------------------------------------------------------------------
    @property
    def exists(self) -> bool:
        return self.path.is_file()

    def sim_end(self) -> float:
        """Simulated-time high-water mark of the accumulated events."""
        return sim_end(self.events)

    def span_count(self) -> int:
        return sum(1 for ev in self.events if ev["type"] == "span")

    # ------------------------------------------------------------------
    def _reset(self) -> None:
        self.offset = 0
        self.events = []
        self._prefix = b""
        self.pending_partial = False
        self.resets += 1

    def poll(self) -> list[dict]:
        """Consume newly appended complete lines; return the new events.

        After a reset (file replaced or shrunk) the returned list is
        the whole replayed log and ``events`` has been rebuilt from
        scratch -- check ``resets`` if derived state must be discarded.
        """
        try:
            st = self.path.stat()
        except OSError:
            # Vanished mid-run (or not created yet).  Forget what we
            # had so a later recreation replays cleanly from zero.
            if self._ino is not None:
                self._reset()
                self._ino = None
            return []
        if self._ino is not None and st.st_ino != self._ino:
            self._reset()
        self._ino = st.st_ino
        if st.st_size < self.offset:
            # Shrunk below our checkpoint: not the resume-truncation
            # case (that only removes bytes we never consumed) but a
            # same-inode rewrite; replay from the top.
            self._reset()

        try:
            with self.path.open("rb") as fh:
                if self._prefix and \
                        fh.read(len(self._prefix)) != self._prefix:
                    self._reset()       # replaced on a recycled inode
                fh.seek(self.offset)
                chunk = fh.read()
        except OSError:
            return []
        if not chunk:
            return []

        # Consume only through the final newline; a torn in-progress
        # last line stays in the file for the next poll (by which time
        # the writer has finished it -- or a resume truncated it away,
        # which is equally fine because we never advanced past it).
        fresh, bad, end = parse_events(chunk)
        self.pending_partial = end < len(chunk)
        if end == 0:
            return []
        if self.offset == 0:
            # Fingerprint the whole first line: the tracer's meta line
            # sorts its keys, so the run-distinguishing ``wall_unix``
            # is its *last* field -- a fixed-size prefix would miss it.
            self._prefix = chunk[:chunk.index(b"\n") + 1]
        self.offset += end
        self.malformed += len(bad)
        self.events.extend(fresh)
        return fresh
