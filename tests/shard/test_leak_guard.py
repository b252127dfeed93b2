"""Shard segments name their creator, so the leak guard is per process.

``ShmArena.create`` names each segment ``epg-<creator pid>-<token>``
and draws another token on a clash.  The module leak guard
(``tests/conftest.py``) then fails on a segment of this process or of
an exited one, and leaves a live process's segments to that process: a
sharded run beside the suite cannot fail an innocent module.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro.shard.shm as shm_mod
from repro.shard.shm import ShmArena
from tests.conftest import SHM, _shm_entries, leaked_segments


def test_a_segment_names_its_creator():
    before = _shm_entries()
    arena = ShmArena.create({"a": np.arange(4)})
    try:
        assert re.fullmatch(rf"epg-{os.getpid()}-[0-9a-f]{{8}}",
                            arena.spec.segment)
        assert leaked_segments(before) == [arena.spec.segment]
    finally:
        arena.destroy()
    assert leaked_segments(before) == []


def test_a_clashing_name_is_drawn_again(monkeypatch):
    first = ShmArena.create({"a": np.arange(3)})
    fresh = f"epg-{os.getpid()}-clash"
    names = iter([first.spec.segment, fresh])
    monkeypatch.setattr(shm_mod, "_segment_name", lambda: next(names))
    second = ShmArena.create({"a": np.arange(3) + 1})
    try:
        assert second.spec.segment == fresh
        assert first["a"].tolist() == [0, 1, 2]
        assert second["a"].tolist() == [1, 2, 3]
    finally:
        first.destroy()
        second.destroy()


def test_a_live_foreign_process_segment_passes():
    before = _shm_entries()
    with subprocess.Popen([sys.executable, "-c",
                           "import time; time.sleep(60)"]) as child:
        segment = Path(SHM) / f"epg-{child.pid}-live"
        segment.touch()
        try:
            assert leaked_segments(before) == []
        finally:
            segment.unlink()
            child.kill()


def test_an_exited_process_segment_fails():
    before = _shm_entries()
    done = subprocess.run(
        [sys.executable, "-c",
         "import os; name = f'epg-{os.getpid()}-exited'; "
         f"open(os.path.join({SHM!r}, name), 'w').close(); print(name)"],
        capture_output=True, text=True, check=True, timeout=60)
    name = done.stdout.strip()
    try:
        assert leaked_segments(before) == [name]
    finally:
        os.unlink(Path(SHM) / name)
