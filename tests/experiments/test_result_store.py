"""Pluggable result-store tests (ISSUE 7).

Locks the store layer's contracts:

* a **transient** read error (``OSError``) is a miss that leaves the entry
  on disk — only *verified* corruption unlinks (the fix for the old
  delete-on-any-exception behavior);
* :class:`SharedDirStore` reads through (shared hit → local populate) and
  writes behind (local synchronous, shared published by the background
  thread; ``flush`` drains; shared-tier hiccups never kill the publisher);
* :func:`make_store` is the single config → backend mapping;
* results computed by one node are warm for a different node that shares
  only the shared directory — the property the cluster's exactly-once
  argument rests on.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.simulator import SimulationResult
from repro.experiments import PaperConfig
from repro.experiments.engine import (
    LocalDirStore,
    ResultCache,
    ResultStore,
    SharedDirStore,
    make_cell,
    make_store,
    run_cells,
)
import repro.experiments.engine.cache as cache_mod

REFS = 2000


@pytest.fixture
def config(tmp_path) -> PaperConfig:
    return replace(
        PaperConfig(), ref_limit=REFS, trace_cache_dir=tmp_path / "traces"
    )


def _result(misses: int = 7, n_sets: int = 16) -> SimulationResult:
    """A synthetic but structurally valid result for store plumbing tests."""
    slot_accesses = np.arange(n_sets, dtype=np.int64) + 1
    slot_hits = np.arange(n_sets, dtype=np.int64)
    return SimulationResult(
        model="synthetic",
        trace_name="synthetic",
        accesses=int(slot_accesses.sum()),
        hits=int(slot_hits.sum()),
        misses=misses,
        lookup_cycles=123,
        slot_accesses=slot_accesses,
        slot_hits=slot_hits,
        slot_misses=slot_accesses - slot_hits,
        extra={},
    )


class TestTransientReadErrors:
    """Satellite 1: ``load`` must not delete entries on transient errors."""

    def test_oserror_is_a_miss_that_keeps_the_entry(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "rc")
        path = cache.store("k" * 64, _result())
        assert path.exists()

        real_read = cache_mod.Path.read_bytes

        def flaky_read(*args, **kwargs):
            raise OSError("synthetic NFS hiccup")

        monkeypatch.setattr(cache_mod.Path, "read_bytes", flaky_read)
        assert cache.load("k" * 64) is None, "transient error must read as a miss"
        assert path.exists(), "transient error must NOT delete the entry"

        # Once the filesystem recovers, the very same entry is a hit again.
        monkeypatch.setattr(cache_mod.Path, "read_bytes", real_read)
        recovered = cache.load("k" * 64)
        assert recovered is not None
        assert recovered.misses == _result().misses

    def test_verified_corruption_still_unlinks(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        path = cache.store("k" * 64, _result())
        path.write_bytes(b"definitely not a result entry")
        assert cache.load("k" * 64) is None
        assert not path.exists(), "provably corrupt entries must be removed"


class TestSharedDirStore:
    def test_store_is_local_sync_and_shared_after_flush(self, tmp_path):
        store = SharedDirStore(tmp_path / "shared", local_dir=tmp_path / "local")
        try:
            store.store("a" * 64, _result())
            # The computing node sees its own result immediately...
            assert store.local.load("a" * 64) is not None
            # ...and after a flush the cluster sees it too.
            store.flush()
            assert store.shared.load("a" * 64) is not None
            assert store.keys() == ["a" * 64]
        finally:
            store.close()

    def test_read_through_populates_the_local_tier(self, tmp_path):
        # Node one publishes; node two (fresh local tier) probes.
        one = SharedDirStore(tmp_path / "shared", local_dir=tmp_path / "n1")
        one.store("b" * 64, _result(misses=11))
        one.flush()
        one.close()

        two = SharedDirStore(tmp_path / "shared", local_dir=tmp_path / "n2")
        try:
            hit = two.load("b" * 64)
            assert hit is not None and hit.misses == 11
            # The hit was copied down: repeat probes stay node-local.
            assert two.local.load("b" * 64) is not None
        finally:
            two.close()

    def test_shared_tier_hiccup_never_kills_the_publisher(
        self, tmp_path, monkeypatch
    ):
        store = SharedDirStore(tmp_path / "shared", local_dir=tmp_path / "local")
        try:
            real_store = store.shared.store
            calls = {"n": 0}

            def flaky(key, result):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise OSError("shared filesystem went away")
                return real_store(key, result)

            monkeypatch.setattr(store.shared, "store", flaky)
            store.store("c" * 64, _result())
            store.flush()  # must return despite the failed publish
            assert store.shared.load("c" * 64) is None
            assert store.local.load("c" * 64) is not None  # nothing lost

            # The publisher thread survived and handles the next entry.
            store.store("d" * 64, _result())
            store.flush()
            assert store.shared.load("d" * 64) is not None
        finally:
            store.close()

    def test_close_is_idempotent_and_drains(self, tmp_path):
        store = SharedDirStore(tmp_path / "shared", local_dir=tmp_path / "local")
        store.store("e" * 64, _result())
        store.close()
        store.close()
        assert store.shared.load("e" * 64) is not None

    def test_concurrent_publish_of_same_key_is_benign(self, tmp_path):
        shared = tmp_path / "shared"
        one = SharedDirStore(shared, local_dir=tmp_path / "n1")
        two = SharedDirStore(shared, local_dir=tmp_path / "n2")
        try:
            one.store("f" * 64, _result(misses=5))
            two.store("f" * 64, _result(misses=5))
            one.flush()
            two.flush()
            hit = one.shared.load("f" * 64)
            assert hit is not None and hit.misses == 5
        finally:
            one.close()
            two.close()


class TestMakeStore:
    def test_local_is_the_default_and_is_todays_cache(self, config):
        store = make_store(config)
        assert isinstance(store, LocalDirStore)
        assert isinstance(store, ResultStore)  # registered virtual subclass
        assert store.root == config.result_cache_path
        assert LocalDirStore is ResultCache  # alias, not a wrapper

    def test_disabled_cache_maps_to_none(self, config):
        assert make_store(replace(config, use_result_cache=False)) is None

    def test_shared_requires_a_directory(self, config):
        with pytest.raises(ValueError, match="shared_store_dir"):
            make_store(replace(config, result_store="shared"))

    def test_unknown_backend_is_rejected(self, config):
        with pytest.raises(ValueError, match="unknown result_store"):
            make_store(replace(config, result_store="redis"))

    def test_shared_wires_both_tiers(self, config, tmp_path):
        cfg = replace(
            config, result_store="shared", shared_store_dir=tmp_path / "shared"
        )
        store = make_store(cfg)
        try:
            assert isinstance(store, SharedDirStore)
            assert store.shared.root == tmp_path / "shared"
            assert store.local.root == cfg.result_cache_path
        finally:
            store.close()


class TestClusterVisibleWarmResults:
    def test_run_cells_warm_across_nodes_via_shared_store(self, config, tmp_path):
        """Node two never simulates what node one already published."""
        shared = tmp_path / "shared-results"
        node1 = replace(
            config,
            result_store="shared",
            shared_store_dir=shared,
            result_cache_dir=tmp_path / "n1-results",
        )
        node2 = replace(
            node1,
            result_cache_dir=tmp_path / "n2-results",
        )
        cells = [make_cell("baseline", "crc", "baseline", config)]

        _, cold = run_cells(cells, node1, jobs=1)
        assert cold.cache_misses == 1
        # run_cells owns the store here, so it flushed+closed on exit: the
        # publish is already durable in the shared tier.
        assert any(shared.glob(f"*{cache_mod.ENTRY_SUFFIX}"))

        results, warm = run_cells(cells, node2, jobs=1)
        assert warm.cache_misses == 0
        assert warm.cache_hits == 1
        assert results[("crc", "baseline")].misses > 0


class TestEntryBytes:
    def test_entry_bytes_do_not_depend_on_the_engine(self, config, tmp_path):
        """The colassoc kernel and the per-access loop add their ``extra``
        classes in different orders; the stored entries are the same bytes."""
        cell = make_cell("colassoc", "crc", "ColAssoc_XOR", config)
        entries = {}
        for engine in ("auto", "sequential"):
            node = replace(config, engine=engine, result_cache_dir=tmp_path / engine)
            run_cells([cell], node, jobs=1)
            entries[engine] = list((tmp_path / engine).glob(f"*{cache_mod.ENTRY_SUFFIX}"))
            assert len(entries[engine]) == 1
        auto, sequential = (entries[e][0] for e in ("auto", "sequential"))
        assert auto.name == sequential.name
        assert auto.read_bytes() == sequential.read_bytes()
