"""Tests for the one atomic-write helper behind every on-disk store."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.atomic import write_atomic
from repro.sim.runner import ResultCache


class TestWriteAtomic:
    def test_replaces_the_file(self, tmp_path):
        path = tmp_path / "record.json"
        write_atomic(path, lambda handle: handle.write(b"{}\n"))
        assert path.read_bytes() == b"{}\n"
        write_atomic(path, lambda handle: handle.write(b"\x00\x01"))
        assert path.read_bytes() == b"\x00\x01"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_write_keeps_old_content_and_no_temp_file(self, tmp_path):
        path = tmp_path / "record.json"
        path.write_text("old\n", encoding="utf-8")

        def half_write(handle):
            handle.write(b"half a rec")
            raise RuntimeError("writer died")

        with pytest.raises(RuntimeError):
            write_atomic(path, half_write)
        assert path.read_text(encoding="utf-8") == "old\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_threads_racing_on_one_cache_key(self, tmp_path):
        """Four threads of one process put one ~1 MB key 50 times each.

        Every put must succeed (a temp file shared between threads gets
        renamed away under its other writers), the entry must hold one
        writer's whole value, and no temp file may be left behind.
        """
        cache = ResultCache(tmp_path)
        n_threads, n_puts = 4, 50
        values = [bytes([t]) * 1_000_000 for t in range(n_threads)]
        barrier = threading.Barrier(n_threads)
        errors: list[BaseException] = []

        def writer(t: int) -> None:
            barrier.wait()
            for _ in range(n_puts):
                try:
                    cache.put("shared", values[t])
                except BaseException as error:  # noqa: BLE001 - collected
                    errors.append(error)

        threads = [
            threading.Thread(target=writer, args=(t,))
            for t in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.get("shared") in values
        assert list(tmp_path.iterdir()) == [cache.path_for("shared")]
