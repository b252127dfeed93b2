"""Execution flags change wall-clock and nothing else -- composed.

Each flag has its own identity suite (``test_parallel``, ``tests/cache``,
``tests/shard/test_integration``); this one visits their *compositions*:
a pairwise cover of {jobs 1, 2} x {cache off, cold, warm} x {trace off,
on} x {shards 1, 2}, every row digested to one sha256 over
``results.csv`` and the native logs and compared with the plain run's.
Traced rows also compare ``events.jsonl``, modulo wall stamps and the
``epg_shard_*`` counters only a sharded run emits.

The answer memo of the shared bodies (``GraphSystem._answer``) is an
execution detail too: the structural row runs k-core and MIS on every
platform that has them, where all but the first platform hit, and must
match the same run with every lookup forced to miss.  So is interning
the built arrays (``repro.systems.base._interned``): the interning row
loads all five systems into one ``built`` dict, where most arrays meet
a byte-equal one, and must match the same run with interning off.
"""

import hashlib
import json

import pytest

import repro.systems.base as base
from repro.core.config import ExperimentConfig
from repro.core.experiment import Experiment
from repro.observability import Tracer
from repro.observability.export import read_events
from repro.systems.base import GraphSystem

WALL_FIELDS = ("t0_wall", "t1_wall", "wall_unix")

#: (jobs, cache, trace, shards): six rows covering every pair of values
#: of every two flags.
COVER = (
    (1, "off", False, 1),
    (2, "off", True, 2),
    (1, "cold", True, 2),
    (2, "cold", False, 1),
    (1, "warm", False, 2),
    (2, "warm", True, 1),
)


#: The structural row's cells: k-core and MIS on every platform.
STRUCTURAL = {"systems": ("gap", "graphbig", "graphmat", "powergraph"),
              "algorithms": ("kcore", "mis")}

#: The interning row's cells: the paper's kernels on every system.
ALL_SYSTEMS = {"systems": ("gap", "graph500", "graphbig", "graphmat",
                           "powergraph")}


def run(out, *, jobs=1, cache_dir=None, trace=False, shards=1,
        systems=("gap", "graph500"), **cells):
    """One experiment; returns (files digest, events digest or None)."""
    cfg = ExperimentConfig(
        output_dir=out, scale=6, n_roots=1, systems=systems,
        jobs=jobs, shards=shards, cache_dir=cache_dir, **cells)
    tracer = Tracer(out / "trace") if trace else Tracer()
    try:
        Experiment(cfg, tracer=tracer).run_all()
    finally:
        tracer.close()
    h = hashlib.sha256()
    for path in [out / "results.csv", *sorted((out / "logs").rglob("*.log"))]:
        h.update(str(path.relative_to(out)).encode())
        h.update(path.read_bytes())
    events = None
    if trace:
        kept = [{k: v for k, v in ev.items() if k not in WALL_FIELDS}
                for ev in read_events(out / "trace" / "events.jsonl")
                if not str(ev.get("name", "")).startswith("epg_shard_")]
        events = hashlib.sha256(
            json.dumps(kept, sort_keys=True).encode()).hexdigest()
    return h.hexdigest(), events


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    return run(tmp_path_factory.mktemp("plain"))[0]


@pytest.fixture(scope="module")
def plain_events(tmp_path_factory):
    return run(tmp_path_factory.mktemp("plain-traced"), trace=True)[1]


@pytest.mark.parametrize("jobs,cache,trace,shards", COVER)
def test_flag_compositions_change_no_byte(jobs, cache, trace, shards,
                                          tmp_path, plain, request):
    cache_dir = None if cache == "off" else tmp_path / "cache"
    if cache == "warm":
        run(tmp_path / "prime", cache_dir=cache_dir)
    files, events = run(tmp_path / "out", jobs=jobs, cache_dir=cache_dir,
                        trace=trace, shards=shards)
    assert files == plain
    if trace:
        assert events == request.getfixturevalue("plain_events")


@pytest.mark.parametrize("jobs", (1, 2))
def test_answer_memo_changes_no_byte(jobs, tmp_path, monkeypatch):
    with monkeypatch.context() as forced:
        forced.setattr(GraphSystem, "_answer",
                       lambda self, loaded, body, params, compute: compute())
        missed = run(tmp_path / "missed", jobs=jobs, trace=True,
                     **STRUCTURAL)
    assert run(tmp_path / "memo", jobs=jobs, trace=True,
               **STRUCTURAL) == missed


@pytest.mark.parametrize("jobs", (1, 2))
def test_interning_changes_no_byte(jobs, tmp_path, monkeypatch):
    with monkeypatch.context() as off:
        off.setattr(base, "_interned", lambda arrays, built: arrays)
        apart = run(tmp_path / "apart", jobs=jobs, trace=True,
                    **ALL_SYSTEMS)
    assert run(tmp_path / "interned", jobs=jobs, trace=True,
               **ALL_SYSTEMS) == apart
