"""The Graphalytics harness keeps one dataset resident.

``run_matrix`` never returns to a dataset, so when a cell names another
dataset directory the harness closes and drops the previous one's loads
and its ``built`` dict.  Which datasets a harness ran before must change
no cell: the tables equal those of a fresh harness per dataset, in
process and through a pool of worker processes.
"""

import gc
import weakref

import pytest

from repro.graphalytics import GraphalyticsHarness
from repro.parallel import CellPool
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
    harness.run_matrix(dota_dataset)
    first = {id(loaded): weakref.ref(loaded)
             for _, loaded in harness._loaded.values()}
    first_built = harness._built
    first_arrays = [weakref.ref(a) for key, bucket in first_built.items()
                    if key[0] == "interned" for a in bucket]
    assert len(first) == 3 and not closed

    harness.run_matrix(patents_dataset)
    assert sorted(closed) == sorted(first)
    assert harness._built is not first_built
    del first_built
    gc.collect()
    assert all(ref() is None for ref in first.values())
    assert first_arrays and all(ref() is None for ref in first_arrays)
    assert harness._resident == str(patents_dataset.directory)
    assert len(harness._loaded) == 3
    for _, loaded in harness._loaded.values():
        assert loaded.name == patents_dataset.name
        assert loaded.answers is harness._built


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
