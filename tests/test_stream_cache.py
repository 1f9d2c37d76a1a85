"""ResultCache entries and the two-level EncodedStreamCache."""

from __future__ import annotations

import pytest

from repro.resilience.registry import build_strategy
from repro.sim.pipeline import SimulationConfig, encode_phase
from repro.sim.runner import EncodedStreamCache, ResultCache

from tests.conftest import small_config, small_sequence


def _stream(gop: int = 2):
    return encode_phase(
        small_sequence(4),
        build_strategy(f"GOP-{gop}"),
        SimulationConfig(codec=small_config()),
    )


class TestResultCacheLRU:
    def test_unbounded_by_default(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(20):
            cache.put(f"k{i}", b"x" * 1024)
        assert len(cache) == 20

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", {"value": 1})
        cache.path_for("k").write_bytes(b"not a pickle")
        assert cache.get("k") is None
        assert "k" not in cache
        assert cache.misses == 1


class TestEncodedStreamCache:
    def test_rejects_nonpositive_max_entries(self):
        with pytest.raises(ValueError, match="max_entries"):
            EncodedStreamCache(max_entries=0)

    def test_memory_only_get_or_encode(self):
        cache = EncodedStreamCache()
        calls = {"n": 0}

        def encode():
            calls["n"] += 1
            return _stream()

        first, reused_a = cache.get_or_encode("k", encode)
        second, reused_b = cache.get_or_encode("k", encode)
        assert (reused_a, reused_b) == (False, True)
        assert second is first
        assert calls["n"] == 1
        assert (cache.encodes, cache.hits, cache.misses) == (1, 1, 1)

    def test_memory_lru_evicts_oldest(self):
        cache = EncodedStreamCache(max_entries=2)
        streams = {name: _stream() for name in ("a", "b", "c")}
        cache.put("a", streams["a"])
        cache.put("b", streams["b"])
        assert cache.get("a") is streams["a"]  # refresh: b is now oldest
        cache.put("c", streams["c"])
        assert cache.get("b") is None
        assert cache.get("a") is streams["a"]
        assert cache.get("c") is streams["c"]

    def test_disk_round_trip_across_instances(self, tmp_path):
        writer = EncodedStreamCache(tmp_path / "streams")
        stream = _stream()
        writer.put("k", stream)

        reader = EncodedStreamCache(tmp_path / "streams")
        loaded = reader.get("k")
        assert loaded is not None
        assert loaded.n_frames == stream.n_frames
        assert [
            [p.payload for p in frame.packets] for frame in loaded.frames
        ] == [[p.payload for p in frame.packets] for frame in stream.frames]
        assert reader.hits == 1

    def test_disk_eviction_falls_back_to_reencode(self, tmp_path):
        cache = EncodedStreamCache(tmp_path / "streams", max_entries=1)
        cache.put("a", _stream(2))
        cache.put("b", _stream(3))  # evicts a's memory slot
        cache.disk.path_for("a").unlink()  # another process cleared it
        fresh, reused = cache.get_or_encode("a", lambda: _stream(2))
        assert reused is False
        assert fresh.n_frames == 4

    def test_corrupt_disk_entry_recovers(self, tmp_path):
        cache = EncodedStreamCache(tmp_path / "streams")
        cache.put("k", _stream())
        cache._memory.clear()
        cache.disk.path_for("k").write_bytes(b"garbage")
        stream, reused = cache.get_or_encode("k", _stream)
        assert reused is False
        assert stream.n_frames == 4

    def test_non_stream_disk_value_is_ignored(self, tmp_path):
        """A foreign pickle under our key must not be served as a stream."""
        cache = EncodedStreamCache(tmp_path / "streams")
        cache.disk.put("k", {"not": "a stream"})
        assert cache.get("k") is None
