"""npz→raw migration under a real figure run.

PR 8 changed the trace store's on-disk format, but the format is a
*storage detail*: cache keys and content fingerprints must not move.  The
scenario locked here is an upgrade in place — a user with a warm npz-era
trace cache (and a warm result cache keyed off those traces' fingerprints)
runs a figure after the upgrade:

* the warm step migrates every npz entry to the raw format **without
  regenerating** a single trace (``generated=False`` across the board);
* content fingerprints are byte-identical before and after migration, so
  the second figure run answers every cell from the result cache (zero
  simulations);
* ``TraceCache.gc()`` then drops the redundant npz blobs and the figure
  still runs warm off the raw entries alone.

The result store made the same move from npz to a raw format later; its
upgrade test below re-runs a figure over an npz-era result store: every
cell is a hit, rows are unchanged, and each npz is replaced by a raw entry.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import PaperConfig, run_experiment
from repro.experiments import fig04_indexing_missrate as fig04
from repro.experiments import fig06_progassoc_missrate as fig06
from repro.experiments.engine import ResultCache, trace_fingerprint
from repro.experiments.engine.cache import ENTRY_SUFFIX
from repro.experiments.warm import specs_for, warm_traces
from repro.trace.arena import reset_arena
from repro.trace.io import RAW_SUFFIX, TraceCache, load_trace, save_npz


@pytest.fixture(autouse=True)
def _fresh_process_state():
    fig04._CACHE.clear()
    fig06._CACHE.clear()
    reset_arena()
    yield
    fig04._CACHE.clear()
    fig06._CACHE.clear()
    reset_arena()


@pytest.fixture
def config(tmp_path) -> PaperConfig:
    return replace(
        PaperConfig(),
        ref_limit=3000,
        trace_cache_dir=tmp_path / "traces",
        result_cache_dir=tmp_path / "results",
    )


def _seed_npz_era_cache(config: PaperConfig) -> dict[str, str]:
    """Materialise every trace fig4 needs as npz-only entries (the
    pre-PR-8 cache layout) and return ``{key: fingerprint}``."""
    cache = TraceCache(config.trace_cache_dir)
    fingerprints: dict[str, str] = {}
    specs = specs_for(["fig4"], config)
    assert specs, "fig4 must have a registered trace-spec provider"
    for spec in specs:
        trace = spec.generate()
        key = spec.cache_key()
        save_npz(trace, cache._npz_path(key))
        fingerprints[key] = trace_fingerprint(trace)
    assert not list(config.trace_cache_dir.glob(f"*{RAW_SUFFIX}"))
    return fingerprints


class TestNpzEraUpgrade:
    def test_warm_migrates_without_regenerating(self, config):
        fingerprints = _seed_npz_era_cache(config)
        cache = TraceCache(config.trace_cache_dir)

        entries = warm_traces(
            specs_for(["fig4"], config), config, jobs=1, fingerprints=True
        )
        assert entries
        for spec, entry in entries.items():
            key = spec.cache_key()
            assert not entry.generated, f"{spec} was regenerated during migration"
            assert entry.path.suffix == RAW_SUFFIX
            assert entry.fingerprint == fingerprints[key]
        # Both formats on disk now; npz stays until an explicit gc.
        stats = cache.stats()
        assert stats["raw_entries"] == len(fingerprints)
        assert stats["npz_entries"] == len(fingerprints)
        assert stats["npz_migrated"] == len(fingerprints)

    def test_second_figure_run_is_all_cache_hits(self, config):
        fingerprints = _seed_npz_era_cache(config)

        first = run_experiment("fig4", config)
        stats = first.engine_stats
        assert stats["cells_total"] > 0
        assert stats["cache_misses"] == stats["cells_total"]  # cold result cache

        fig04._CACHE.clear()
        reset_arena()
        second = run_experiment("fig4", config)
        warm = second.engine_stats
        assert warm["cache_hits"] == warm["cells_total"]
        assert warm["cache_misses"] == 0
        assert list(first.rows) == list(second.rows)

        # Migration preserved content bit-for-bit: the migrated raw entries
        # hash to the npz-era fingerprints the result cache was keyed on.
        cache = TraceCache(config.trace_cache_dir)
        for key, fingerprint in fingerprints.items():
            migrated = load_trace(cache.path_for(key))
            assert cache.path_for(key).suffix == RAW_SUFFIX
            assert trace_fingerprint(migrated) == fingerprint

    def test_gc_drops_npz_and_figure_stays_warm(self, config):
        _seed_npz_era_cache(config)
        first = run_experiment("fig4", config)

        cache = TraceCache(config.trace_cache_dir)
        removed, reclaimed = cache.gc()
        assert removed == cache.stats()["raw_entries"]
        assert reclaimed > 0
        assert not list(config.trace_cache_dir.glob("*.npz"))
        # gc never touches an npz without a raw sibling — nothing left to lose
        # here, but a second pass must be a no-op.
        assert cache.gc() == (0, 0)

        fig04._CACHE.clear()
        reset_arena()
        again = run_experiment("fig4", config)
        assert again.engine_stats["cache_misses"] == 0
        assert list(again.rows) == list(first.rows)

    def test_mixed_cache_round_trips_equal_arrays(self, config):
        """A migrated entry and its npz source decode to identical arrays."""
        fingerprints = _seed_npz_era_cache(config)
        cache = TraceCache(config.trace_cache_dir)
        key = next(iter(fingerprints))
        npz_trace = load_trace(cache._npz_path(key))
        warm_traces(specs_for(["fig4"], config), config, jobs=1)
        raw_trace = load_trace(cache._raw_path(key))
        np.testing.assert_array_equal(raw_trace.addresses, npz_trace.addresses)
        np.testing.assert_array_equal(raw_trace.is_write, npz_trace.is_write)
        np.testing.assert_array_equal(raw_trace.thread, npz_trace.thread)


class TestNpzEraResultStore:
    def test_figure_rerun_migrates_every_npz_entry(self, config, to_npz_entry):
        first = run_experiment("fig4", config)
        assert first.engine_stats["cache_misses"] == first.engine_stats["cells_total"]
        results = ResultCache(config.result_cache_path)
        keys = results.keys()
        assert keys
        before = {key: results.load(key) for key in keys}
        for key in keys:
            to_npz_entry(results, key)
        assert results.stats() == {"raw_entries": 0, "npz_entries": len(keys)}

        fig04._CACHE.clear()
        reset_arena()
        second = run_experiment("fig4", config)
        warm = second.engine_stats
        assert warm["cache_misses"] == 0
        assert warm["cache_hits"] == warm["cells_total"]
        assert list(second.rows) == list(first.rows)

        assert results.keys() == keys and len(results) == len(keys)
        assert results.stats() == {"raw_entries": len(keys), "npz_entries": 0}
        assert not list(config.result_cache_path.glob("*.npz"))
        for key, old in before.items():
            assert results.path_for(key).suffix == ENTRY_SUFFIX
            new = results.load(key)
            assert (new.model, new.trace_name, new.extra) == (
                old.model, old.trace_name, old.extra
            )
            assert (new.accesses, new.hits, new.misses, new.lookup_cycles) == (
                old.accesses, old.hits, old.misses, old.lookup_cycles
            )
            for field in ("slot_accesses", "slot_hits", "slot_misses"):
                np.testing.assert_array_equal(getattr(new, field), getattr(old, field))
