"""Cache integration: layer-1 dataset memoization, layer-2 zero-copy
graph sharing, and end-to-end byte-transparency.

The contract under test is the one docs/cache.md promises: a cached
run's numbers and artifacts are byte-identical to an uncached run, a
warm hit hands every system memmap-backed read-only arrays (one
physical copy shared by all worker processes), and a corrupted entry is
never trusted -- it is evicted, logged, and regenerated.
"""

import numpy as np
import pytest

from repro.cache import ArtifactCache
from repro.cache.keys import loaded_graph_key
from repro.cache.prewarm import prewarm_loaded_graphs
from repro.datasets import formats
from repro.datasets.homogenize import homogenize
from repro.datasets.kronecker import KroneckerSpec, generate_kronecker
from repro.graph.edgelist import EdgeList
from repro.systems import create_system

ALL_FIVE = ("gap", "graph500", "graphbig", "graphmat", "powergraph")


def memmap_backed(a) -> bool:
    """True when ``a`` is a view (at any depth) over an ``np.memmap``."""
    while a is not None:
        if isinstance(a, np.memmap):
            return True
        a = getattr(a, "base", None)
    return False


def structure_arrays(obj, path="data"):
    """Every array a loaded structure is made of, as ``{path: array}``:
    public fields, recursively.  Underscore attributes are memo caches
    and GraphBIG's ``properties`` are per-load kernel outputs -- neither
    comes from the build."""
    if isinstance(obj, np.ndarray):
        return {path: obj}
    found = {}
    for name, value in getattr(obj, "__dict__", {}).items():
        if not name.startswith("_") and name != "properties":
            found.update(structure_arrays(value, f"{path}.{name}"))
    return found


# ----------------------------------------------------------------------
# Layer 2: per-system loaded-graph caching
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_FIVE)
def test_warm_load_is_zero_copy_and_bit_identical(name, kron10_dataset,
                                                  tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    cold_sys = create_system(name, n_threads=32)
    cold = cold_sys.load(kron10_dataset, cache=cache)
    assert cache.stats["stores"] == 1

    warm_sys = create_system(name, n_threads=32)
    warm = warm_sys.load(kron10_dataset, cache=cache)
    assert cache.stats["hits"] == 1

    # Pricing is re-simulated per instance: bit-identical, not close.
    assert warm.read_s == cold.read_s
    assert warm.build_s == cold.build_s
    assert warm.n_arcs == cold.n_arcs

    # Every array of the warm structure is a read-only view over the
    # cached .npy memmaps -- zero copies were made.
    arrays = structure_arrays(warm.data)
    assert arrays, f"{name}: warm structure holds no arrays"
    for aname, arr in arrays.items():
        assert memmap_backed(arr), \
            f"{name}: warm array {aname!r} is not memmap-backed"
        assert not arr.flags.writeable, \
            f"{name}: warm array {aname!r} is writeable"

    # And the kernels agree exactly.
    root = int(kron10_dataset.roots[0])
    if name == "powergraph":
        a = cold_sys.run_toolkit_extension(cold, "bfs-hops", root=root)
        b = warm_sys.run_toolkit_extension(warm, "bfs-hops", root=root)
    else:
        a = cold_sys.run(cold, "bfs", root=root)
        b = warm_sys.run(warm, "bfs", root=root)
    assert np.array_equal(a.output["level"], b.output["level"])
    assert a.time_s == b.time_s


def test_loaded_graph_key_is_thread_invariant(kron10_dataset, tmp_path):
    """One cached structure serves every thread count; only the priced
    build time differs, and it matches the uncached price exactly."""
    cache = ArtifactCache(tmp_path / "cache")
    create_system("gap", n_threads=8).load(kron10_dataset, cache=cache)

    s32_warm = create_system("gap", n_threads=32)
    s32_cold = create_system("gap", n_threads=32)
    assert loaded_graph_key(s32_warm, kron10_dataset) == \
        loaded_graph_key(create_system("gap", n_threads=8),
                         kron10_dataset)
    warm = s32_warm.load(kron10_dataset, cache=cache)
    cold = s32_cold.load(kron10_dataset)  # uncached reference
    assert cache.stats == {"hits": 1, "misses": 1, "stores": 1,
                           "evictions": 0}
    assert warm.build_s == cold.build_s
    assert warm.read_s == cold.read_s


@pytest.mark.parametrize("name", ["gap", "graphbig", "powergraph"])
def test_graph_key_covers_the_dump_the_build_reads(name, kron10,
                                                   tmp_path):
    """These three price their text file but build from the ``.g500``
    dump: new weights in the dump alone must change the key."""
    dataset = homogenize(kron10, tmp_path / "h", n_roots=4)
    system = create_system(name)
    before = loaded_graph_key(system, dataset)
    edges = dataset.load_edges()
    formats.write_g500(EdgeList(edges.src, edges.dst, edges.n_vertices,
                                weights=edges.weights + 1.0),
                       dataset.path("g500"))
    assert loaded_graph_key(system, dataset) != before


def test_corrupt_graph_entry_evicted_and_rebuilt(kron10_dataset,
                                                 tmp_path, caplog):
    cache = ArtifactCache(tmp_path / "cache")
    system = create_system("gap", n_threads=32)
    reference = system.load(kron10_dataset, cache=cache)
    key = loaded_graph_key(system, kron10_dataset)
    victim = next(cache._entry_dir(key).glob("*.npy"))
    victim.write_bytes(b"garbage, not an npy header")

    fresh = ArtifactCache(tmp_path / "cache")  # no verify memo
    with caplog.at_level("WARNING", logger="repro.cache"):
        rebuilt = create_system("gap", n_threads=32).load(
            kron10_dataset, cache=fresh)
    assert any("cache evict" in r.getMessage() for r in caplog.records)
    assert fresh.stats["evictions"] == 1
    assert fresh.stats["stores"] == 1  # regenerated, re-published
    assert rebuilt.build_s == reference.build_s
    # The regenerated entry is clean: next load hits.
    again = ArtifactCache(tmp_path / "cache")
    create_system("gap", n_threads=32).load(kron10_dataset, cache=again)
    assert again.stats == {"hits": 1, "misses": 0, "stores": 0,
                           "evictions": 0}


# ----------------------------------------------------------------------
# Layer 1: dataset-prep memoization
# ----------------------------------------------------------------------
def test_kronecker_generation_hits_cache(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    spec = KroneckerSpec(scale=8, weighted=True)
    cold = generate_kronecker(spec, cache=cache)
    assert cache.stats["stores"] == 1
    warm = generate_kronecker(spec, cache=cache)
    assert cache.stats["hits"] == 1
    assert cold.src.tobytes() == warm.src.tobytes()
    assert cold.dst.tobytes() == warm.dst.tobytes()
    assert cold.weights.tobytes() == warm.weights.tobytes()
    assert memmap_backed(warm.src) and memmap_backed(warm.weights)

    # A different spec is a different key, never a false hit.
    other = generate_kronecker(KroneckerSpec(scale=8, seed=99,
                                             weighted=True), cache=cache)
    assert cache.stats["misses"] >= 2
    assert other.src.tobytes() != cold.src.tobytes()


def test_homogenize_restore_is_byte_identical(tmp_path):
    import hashlib

    def tree(root):
        return {p.relative_to(root).as_posix():
                hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(root.rglob("*")) if p.is_file()}

    cache = ArtifactCache(tmp_path / "cache")
    edges = generate_kronecker(KroneckerSpec(scale=7, weighted=True))
    cold = homogenize(edges, tmp_path / "a", cache=cache)
    assert cache.stats["stores"] == 1
    warm = homogenize(edges, tmp_path / "b", cache=cache)
    assert cache.stats["hits"] == 1
    assert tree(warm.directory) == tree(cold.directory)
    assert np.array_equal(warm.roots, cold.roots)


# ----------------------------------------------------------------------
# Prewarm: the parent materializes everything before the fan-out
# ----------------------------------------------------------------------
def test_prewarm_fills_cache_once(kron10_dataset, tmp_path):
    from repro.core.config import ExperimentConfig

    cfg = ExperimentConfig(output_dir=tmp_path / "out", scale=10,
                           systems=ALL_FIVE,
                           thread_counts=(8, 32),
                           cache_dir=tmp_path / "cache")
    cache = ArtifactCache.from_config(cfg)
    built = prewarm_loaded_graphs(cfg, kron10_dataset, cache)
    # Thread-invariant keys: one entry per system, except PowerGraph,
    # whose partition count (a build knob) tracks the thread count.
    assert built == len(ALL_FIVE) + 1
    assert prewarm_loaded_graphs(cfg, kron10_dataset, cache) == 0

    # Workers' loads now degenerate to pure hits.
    worker_cache = ArtifactCache(tmp_path / "cache")
    for name in ALL_FIVE:
        create_system(name, n_threads=32).load(kron10_dataset,
                                               cache=worker_cache)
    assert worker_cache.stats["misses"] == 0
    assert worker_cache.stats["hits"] == len(ALL_FIVE)


# ----------------------------------------------------------------------
# End to end: warm parallel run == cold serial run, byte for byte
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_warm_jobs4_matches_cold_serial_and_nocache(tmp_path):
    from repro.core.config import ExperimentConfig
    from repro.core.experiment import Experiment

    base = dict(scale=9, n_roots=2, systems=("gap", "graphbig"),
                algorithms=("bfs", "sssp"), thread_counts=(32,))

    def results(out, **kw):
        cfg = ExperimentConfig(output_dir=out, **base, **kw)
        Experiment(cfg).run_all()
        return (out / "results.csv").read_bytes()

    cache_dir = tmp_path / "cache"
    nocache = results(tmp_path / "nocache")
    cold = results(tmp_path / "cold", cache_dir=cache_dir)
    warm = results(tmp_path / "warm", cache_dir=cache_dir, jobs=4)

    assert cold == nocache, "caching changed the reported numbers"
    assert warm == cold, "warm jobs=4 diverged from cold serial"
    # The warm run really did come from the cache.
    cache = ArtifactCache(cache_dir)
    assert len(cache.entries()) > 0
