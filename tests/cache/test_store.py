"""Tests for the content-addressed artifact store itself."""

import dataclasses

import numpy as np
import pytest

from repro.cache import ArtifactCache, parse_size
from repro.cache.bundle import read_arrays, write_arrays
from repro.errors import CacheError, ConfigError

KEY_A = "aa" + "0" * 30
KEY_B = "bb" + "0" * 30
KEY_C = "cc" + "0" * 30


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


class TestParseSize:
    @pytest.mark.parametrize("text,want", [
        ("512", 512), ("1K", 1024), ("500M", 500 * 2**20),
        ("2G", 2 * 2**30), ("1T", 2**40), ("1.5K", 1536), (64, 64),
        # Lowercase suffixes, fractional values, unit spellings.
        ("512k", 512 * 2**10), ("1.5G", int(1.5 * 2**30)),
        ("1.5g", int(1.5 * 2**30)), ("2m", 2 * 2**20),
        ("500MB", 500 * 2**20), ("2GiB", 2 * 2**30),
        ("512 kb", 512 * 2**10), ("4096B", 4096), (" 1K ", 1024),
    ])
    def test_accepts(self, text, want):
        assert parse_size(text) == want

    @pytest.mark.parametrize("text", [
        "", "lots", "12Q", "-1", "0", 0, "1e3", "inf", "nan", "-1.5G",
        "1.G", ".5G", "1.5GG", "K", "0.0000001K", True,
    ])
    def test_rejects_with_config_error(self, text):
        with pytest.raises(ConfigError) as exc:
            parse_size(text)
        assert "size" in str(exc.value)


class TestBundle:
    def test_round_trip_mmap(self, tmp_path):
        arrays = {"a": np.arange(10, dtype=np.int64),
                  "b": np.linspace(0, 1, 5)}
        write_arrays(tmp_path, arrays)
        back = read_arrays(tmp_path)
        assert set(back) == {"a", "b"}
        for name in arrays:
            assert np.array_equal(back[name], arrays[name])
            assert back[name].dtype == arrays[name].dtype
            assert not back[name].flags.writeable

    def test_rejects_traversal_names(self, tmp_path):
        with pytest.raises(CacheError):
            write_arrays(tmp_path, {"../evil": np.zeros(1)})
        with pytest.raises(CacheError):
            write_arrays(tmp_path, {".lru": np.zeros(1)})


class TestHitMissEvict:
    def test_miss_then_store_then_hit(self, cache):
        assert cache.get(KEY_A) is None
        assert cache.stats["misses"] == 1
        cache.put_arrays(KEY_A, "graph:test",
                         {"x": np.arange(8, dtype=np.int64)})
        assert cache.stats["stores"] == 1
        hit = cache.get_arrays(KEY_A, "graph:test")
        assert hit is not None
        arrays, meta = hit
        assert np.array_equal(arrays["x"], np.arange(8))
        assert cache.stats["hits"] == 1

    def test_meta_round_trips(self, cache):
        cache.put_arrays(KEY_A, "graph:test", {"x": np.zeros(2)},
                         {"n": 1024, "label": "kron"})
        _, meta = cache.get_arrays(KEY_A)
        assert meta == {"n": 1024, "label": "kron"}

    def test_put_is_idempotent(self, cache):
        cache.put_arrays(KEY_A, "k", {"x": np.zeros(4)})
        cache.put_arrays(KEY_A, "k", {"x": np.zeros(4)})
        assert cache.stats["stores"] == 1

    def test_corrupt_entry_evicted_and_regenerated(self, cache, caplog):
        cache.put_arrays(KEY_A, "graph:test", {"x": np.arange(64)})
        victim = next((cache.root / "objects").glob("*/*/x.npy"))
        victim.write_bytes(b"not an npy file")
        fresh = ArtifactCache(cache.root)  # no per-process verify memo
        with caplog.at_level("WARNING", logger="repro.cache"):
            assert fresh.get_arrays(KEY_A) is None
        assert any("cache evict" in r.getMessage()
                   for r in caplog.records)
        assert fresh.stats == {"hits": 0, "misses": 1, "stores": 0,
                               "evictions": 1}
        # Regeneration stores a clean copy that hits again.
        fresh.put_arrays(KEY_A, "graph:test", {"x": np.arange(64)})
        assert fresh.get_arrays(KEY_A) is not None

    def test_failed_build_leaves_no_entry(self, cache):
        with pytest.raises(RuntimeError):
            cache.put(KEY_A, "k", lambda tmp: (_ for _ in ()).throw(
                RuntimeError("boom")))
        assert not cache.contains(KEY_A)
        assert not any((cache.root / "tmp").iterdir())


class TestGc:
    def _fill(self, cache):
        # Three entries, ~512 payload bytes each, touched in order.
        for key in (KEY_A, KEY_B, KEY_C):
            cache.put_arrays(key, "k", {"x": np.zeros(64)})
            cache.get(key)  # refresh .lru in insertion order

    def test_lru_order(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        self._fill(cache)
        cache.get(KEY_A)  # A becomes most recent; B is now stalest
        per_entry = cache.total_bytes() // 3
        evicted = cache.gc(2 * per_entry)
        assert evicted == [KEY_B]
        assert cache.contains(KEY_A) and cache.contains(KEY_C)

    def test_gc_respects_budget(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        self._fill(cache)
        budget = cache.total_bytes() // 3
        cache.gc(budget)
        assert cache.total_bytes() <= budget
        assert len(cache.entries()) == 1

    def test_auto_gc_on_put(self, tmp_path):
        per_entry = 512 + 128  # payload + meta slack
        cache = ArtifactCache(tmp_path / "c", max_bytes=2 * per_entry)
        self._fill(cache)
        assert cache.total_bytes() <= 2 * per_entry
        assert cache.stats["evictions"] >= 1

    def test_gc_without_budget_raises(self, cache):
        with pytest.raises(CacheError):
            cache.gc()


class TestMaintenance:
    def test_verify_reports_and_evicts(self, cache):
        cache.put_arrays(KEY_A, "k", {"x": np.zeros(8)})
        cache.put_arrays(KEY_B, "k", {"x": np.ones(8)})
        assert cache.verify() == []
        victim = cache._entry_dir(KEY_B) / "x.npy"
        victim.write_bytes(victim.read_bytes()[:-8] + b"corrupted")
        problems = cache.verify()
        assert len(problems) == 1 and KEY_B in problems[0]
        assert cache.contains(KEY_A) and not cache.contains(KEY_B)

    def test_clear(self, cache):
        cache.put_arrays(KEY_A, "k", {"x": np.zeros(4)})
        assert cache.clear() == 1
        assert cache.entries() == []
        assert cache.total_bytes() == 0

    def test_entries_listing(self, cache):
        cache.put_arrays(KEY_A, "kron", {"x": np.zeros(4)})
        (entry,) = cache.entries()
        assert entry.key == KEY_A
        assert entry.kind == "kron"
        assert entry.size_bytes > 0

    def test_from_config_inactive(self, tmp_path):
        from repro.core.config import ExperimentConfig

        off = ExperimentConfig(output_dir=tmp_path / "o")
        assert ArtifactCache.from_config(off) is None
        on = dataclasses.replace(off, cache_dir=tmp_path / "c")
        cache = ArtifactCache.from_config(on)
        assert cache is not None and cache.root == tmp_path / "c"
