"""A worker keeps one Graphalytics dataset resident.

``run_matrix`` never returns to a dataset, so when a cell names another
dataset directory the cell worker closes the previous one's
``DatasetSession``: its loads, built arrays and answers.  Which
datasets a worker ran before must change no cell: the tables equal
those of a fresh harness per dataset, in process and through a pool of
worker processes.
"""

import gc
import weakref

import pytest

from repro.graphalytics import (
    GRAPHALYTICS_ALGORITHMS,
    GRAPHALYTICS_PLATFORMS,
    GraphalyticsHarness,
)
from repro.parallel import CellPool
from repro.parallel.worker import CellWorker
from repro.systems.base import LoadedGraph


def _cells(results) -> list[str]:
    return [repr(r) for r in results]      # N/A cells hold NaN


def test_only_the_last_dataset_stays_loaded(dota_dataset, patents_dataset,
                                            monkeypatch):
    closed = []
    close = LoadedGraph.close
    monkeypatch.setattr(LoadedGraph, "close",
                        lambda self: (closed.append(id(self)), close(self)))
    harness = GraphalyticsHarness(seed=7)
    worker = CellWorker()

    def matrix(dataset):
        for platform in GRAPHALYTICS_PLATFORMS:
            for algorithm in GRAPHALYTICS_ALGORITHMS:
                worker.run_graphalytics(harness, platform, algorithm,
                                        dataset)

    matrix(dota_dataset)
    first_session = worker.session(dota_dataset)
    first = {id(loaded): weakref.ref(loaded)
             for _, loaded in first_session.loads.values()}
    first_arrays = [weakref.ref(a)
                    for bucket in first_session.interned.values()
                    for a in bucket]
    assert len(first) == 3 and not closed

    matrix(patents_dataset)
    assert sorted(closed) == sorted(first)
    session = worker.session(patents_dataset)
    assert session is not first_session
    del first_session
    gc.collect()
    assert all(ref() is None for ref in first.values())
    assert first_arrays and all(ref() is None for ref in first_arrays)
    assert session.dataset.directory == patents_dataset.directory
    assert len(session.loads) == 3
    for _, loaded in session.loads.values():
        assert loaded.name == patents_dataset.name
        assert loaded.answers is session.answers
    worker.close()


@pytest.mark.parametrize("jobs", (1, 2))
def test_tables_equal_a_fresh_harness_per_dataset(jobs, dota_dataset,
                                                  patents_dataset,
                                                  kron10_dataset):
    datasets = (dota_dataset, patents_dataset, kron10_dataset)
    fresh = [_cells(GraphalyticsHarness(seed=7).run_matrix(dataset))
             for dataset in datasets]
    harness = GraphalyticsHarness(seed=7)
    with CellPool(jobs) as pool:
        resident = [_cells(harness.run_matrix(dataset, pool=pool))
                    for dataset in datasets]
    assert resident == fresh
