"""The process-wide trace arena: bounded LRU semantics, byte accounting,
invalidation-on-change, and the module singleton.

The arena replaced the unbounded per-module ``_TRACE_MEMO`` dict in the
experiment engine (PR 8), so the load-bearing properties are: repeated
``get`` of one path returns the *same* underlying arrays (no re-open, no
copy), total accounted bytes stay within the configured budget under an
unbounded stream of distinct paths (the ``repro serve`` soak), and a file
rewritten underneath the arena is re-opened rather than served stale.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.trace import Trace, save_raw, zipf_trace
from repro.trace.arena import TraceArena, get_arena, reset_arena
from repro.trace.io import RAW_SUFFIX, save_npz


def _make(tmp_path, name: str, n: int = 256):
    return save_raw(zipf_trace(n, seed=hash(name) % 1000), tmp_path / f"{name}{RAW_SUFFIX}")


class TestHitsAndIdentity:
    def test_second_get_is_a_hit_with_same_arrays(self, tmp_path):
        arena = TraceArena()
        path = _make(tmp_path, "a")
        first = arena.get(path)
        second = arena.get(path)
        assert second.addresses is first.addresses
        assert second.is_write is first.is_write
        assert second.thread is first.thread
        stats = arena.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.entries == 1

    def test_name_override_shares_arrays(self, tmp_path):
        arena = TraceArena()
        path = _make(tmp_path, "a")
        plain = arena.get(path)
        renamed = arena.get(path, name="fft")
        assert renamed.name == "fft"
        assert renamed.addresses is plain.addresses
        stats = arena.stats()
        assert (stats.misses, stats.entries) == (1, 1)  # one mapping, no reload

    def test_npz_entries_also_served(self, tmp_path):
        arena = TraceArena()
        t = zipf_trace(100, seed=1)
        path = save_npz(t, tmp_path / "legacy.npz")
        np.testing.assert_array_equal(arena.get(path).addresses, t.addresses)
        assert arena.stats().entries == 1

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TraceArena().get(tmp_path / f"nope{RAW_SUFFIX}")


class TestBudget:
    def test_lru_eviction_keeps_bytes_bounded(self, tmp_path):
        paths = [_make(tmp_path, f"t{i}") for i in range(8)]
        one = TraceArena().get(paths[0])
        per_entry = sum(a.nbytes for a in (one.addresses, one.is_write, one.thread))
        arena = TraceArena(max_bytes=3 * per_entry)
        for p in paths:
            arena.get(p)
        stats = arena.stats()
        assert stats.bytes <= stats.max_bytes
        assert stats.entries == 3
        assert stats.evictions == len(paths) - 3

    def test_eviction_order_is_lru_not_insertion(self, tmp_path):
        paths = [_make(tmp_path, f"t{i}") for i in range(3)]
        one = TraceArena().get(paths[0])
        per_entry = sum(a.nbytes for a in (one.addresses, one.is_write, one.thread))
        arena = TraceArena(max_bytes=2 * per_entry)
        arena.get(paths[0])
        arena.get(paths[1])
        arena.get(paths[0])  # refresh t0 → t1 is now least recent
        arena.get(paths[2])  # evicts t1
        before = arena.stats().misses
        arena.get(paths[0])
        assert arena.stats().misses == before  # t0 survived
        arena.get(paths[1])
        assert arena.stats().misses == before + 1  # t1 was the victim

    def test_single_oversized_entry_still_admitted(self, tmp_path):
        path = _make(tmp_path, "big", n=4096)
        arena = TraceArena(max_bytes=16)  # far below one entry
        trace = arena.get(path)
        assert len(trace) == 4096
        assert arena.stats().entries == 1  # never evicts the most-recent

    def test_configure_shrink_evicts_immediately(self, tmp_path):
        paths = [_make(tmp_path, f"t{i}") for i in range(4)]
        arena = TraceArena()
        for p in paths:
            arena.get(p)
        assert arena.stats().entries == 4
        one = arena.get(paths[0])
        per_entry = sum(a.nbytes for a in (one.addresses, one.is_write, one.thread))
        arena.configure(2 * per_entry)
        stats = arena.stats()
        assert stats.entries == 2
        assert stats.bytes <= stats.max_bytes

    def test_soak_many_distinct_traces_stays_bounded(self, tmp_path):
        """The ``repro serve`` leak scenario: far more distinct traces than
        the budget holds must not grow the retained set (the old
        ``_TRACE_MEMO`` dict kept every one forever)."""
        one = TraceArena().get(_make(tmp_path, "probe"))
        per_entry = sum(a.nbytes for a in (one.addresses, one.is_write, one.thread))
        budget = 4 * per_entry
        arena = TraceArena(max_bytes=budget)
        for i in range(40):  # 10x the budget in distinct entries
            arena.get(_make(tmp_path, f"soak{i}"))
            assert arena.stats().bytes <= budget
        stats = arena.stats()
        assert stats.entries == 4
        assert stats.evictions == 36
        # ... and the retained tail is still the hottest one.
        before = stats.misses
        arena.get(tmp_path / f"soak39{RAW_SUFFIX}")
        assert arena.stats().misses == before


class TestInvalidation:
    def test_rewritten_file_is_reopened(self, tmp_path):
        arena = TraceArena()
        path = tmp_path / f"t{RAW_SUFFIX}"
        save_raw(zipf_trace(100, seed=1), path)
        old = arena.get(path)
        new_trace = zipf_trace(100, seed=2)
        save_raw(new_trace, path)
        # Guarantee an mtime/size delta even on coarse-mtime filesystems.
        os.utime(path, ns=(path.stat().st_atime_ns, path.stat().st_mtime_ns + 1))
        reloaded = arena.get(path)
        np.testing.assert_array_equal(reloaded.addresses, new_trace.addresses)
        assert not np.array_equal(reloaded.addresses, old.addresses)
        stats = arena.stats()
        assert stats.invalidations == 1
        assert stats.entries == 1  # stale entry's bytes were released

    def test_bytes_accounting_survives_invalidation(self, tmp_path):
        arena = TraceArena()
        path = tmp_path / f"t{RAW_SUFFIX}"
        save_raw(zipf_trace(64, seed=1), path)
        arena.get(path)
        save_raw(zipf_trace(128, seed=1), path)
        os.utime(path, ns=(path.stat().st_atime_ns, path.stat().st_mtime_ns + 1))
        bigger = arena.get(path)
        expected = sum(
            a.nbytes for a in (bigger.addresses, bigger.is_write, bigger.thread)
        )
        assert arena.stats().bytes == expected


class TestSingleton:
    def test_get_arena_returns_one_instance(self):
        reset_arena()
        try:
            assert get_arena() is get_arena()
        finally:
            reset_arena()

    def test_clear_releases_everything(self, tmp_path):
        arena = TraceArena()
        arena.get(_make(tmp_path, "a"))
        arena.clear()
        stats = arena.stats()
        assert (stats.entries, stats.bytes) == (0, 0)


class TestEngineIntegration:
    def test_engine_trace_at_goes_through_arena(self, tmp_path):
        """``cells._trace_at`` must hit the shared arena and adopt the
        config's byte budget."""
        from repro.experiments.config import PaperConfig
        from repro.experiments.engine.cells import _trace_at

        reset_arena()
        try:
            path = _make(tmp_path, "w")
            config = PaperConfig(trace_arena_bytes=123456789)
            a = _trace_at(path, "fft", config)
            b = _trace_at(path, "fft", config)
            assert a.addresses is b.addresses
            assert a.name == "fft"
            stats = get_arena().stats()
            assert stats.max_bytes == 123456789
            assert (stats.hits, stats.misses) == (1, 1)
        finally:
            reset_arena()
