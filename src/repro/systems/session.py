"""One owner for everything loaded from one homogenized dataset:
``GraphSystem.load`` keeps its builds, interned arrays and shared-body
answers in a :class:`DatasetSession` (a private one when given none),
and :meth:`DatasetSession.load` keeps the loads themselves.  In the
suite the cell worker owns them, one at a time
(:meth:`repro.parallel.worker.CellWorker.session`)."""

from __future__ import annotations

__all__ = ["DatasetSession"]


class DatasetSession:
    """What has been loaded from ``dataset``, and its one ``close()``.

    ``cache`` is the optional :class:`repro.cache.ArtifactCache` that
    :meth:`load` reads and fills.
    """

    def __init__(self, dataset, cache=None):
        self.dataset = dataset
        self.cache = cache
        #: ``(system, *build knobs) -> (data, build profile)``.
        self.builds: dict = {}
        #: ``(dtype, shape) -> [canonical read-only array, ...]``.
        self.interned: dict = {}
        #: ``(body, params, n, arc digest) -> frozen answer``.
        self.answers: dict = {}
        #: ``(system, *knobs, machine, threads, shards) -> (system, load)``.
        self.loads: dict = {}
        #: The ``--validate`` reference CSR and its oracles' answers.
        self.references: dict = {}

    def load(self, system):
        """``(system, its load)`` per name, build knobs, machine, threads
        and shards: loaded on the first ask, the same pair after.  A
        refused load (``SystemCapabilityError``) is not kept."""
        key = (*system._build_key(), system.machine, system.n_threads,
               system.shards)
        if key not in self.loads:
            self.loads[key] = system, system.load(self.dataset, self.cache,
                                                  session=self)
        return self.loads[key]

    def close(self) -> None:
        """Close every load (its shard pools: workers and ``/dev/shm``
        arenas) and drop all five maps.  Idempotent."""
        for _, loaded in self.loads.values():
            loaded.close()
        for store in (self.loads, self.builds, self.interned,
                      self.answers, self.references):
            store.clear()
