"""Per-cell timeout tests (``cell_timeout`` / ``--cell-timeout``).

The engine bounds how long any single cell may run:

* pool path — ``future.result(timeout=...)``: a hung worker fails the run
  *with attribution* (a :class:`CellExecutionError` naming the cell)
  instead of blocking forever, and the remaining futures are cancelled;
* ``jobs=1`` in-process path — cannot preempt, so the budget is enforced
  post-hoc: the run still fails naming the offending cell as soon as it
  returns, with the pool path's message;
* no timeout (default) and generous timeouts change nothing.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

import repro.experiments.engine.families as families_mod
from repro.experiments import PaperConfig, run_experiment
from repro.experiments.engine import CellExecutionError, make_cell, run_cells
from repro.experiments.engine.parallel import engine_pool_scope

REFS = 1500


@pytest.fixture
def config(tmp_path) -> PaperConfig:
    return replace(
        PaperConfig(),
        ref_limit=REFS,
        workload_scale=0.05,
        jobs=1,
        trace_cache_dir=tmp_path / "traces",
    )


def _slow_execute(duration: float, release: threading.Event | None = None):
    """A stand-in for ``timed_execute_cell`` that dawdles predictably."""
    from repro.experiments.engine.cells import timed_execute_cell

    def slow(cell, cfg, trace_path=None, profile_path=None):
        if release is not None:
            release.wait(30)
        else:
            time.sleep(duration)
        result, _ = timed_execute_cell(cell, cfg, trace_path, profile_path)
        return result, max(duration, 0.001)

    return slow


class TestSequentialPath:
    def test_post_hoc_enforcement_names_the_cell(self, config, monkeypatch):
        monkeypatch.setattr(
            families_mod, "timed_execute_cell", _slow_execute(0.05)
        )
        cell = make_cell("indexing", "fft", "XOR", config)
        with pytest.raises(CellExecutionError) as exc_info:
            run_cells([cell], config, jobs=1, cell_timeout=0.001)
        message = str(exc_info.value)
        assert "(fft, XOR)" in message and "per-cell timeout (0.001s)" in message

    def test_generous_timeout_passes(self, config):
        cell = make_cell("indexing", "fft", "XOR", config)
        results, stats = run_cells([cell], config, jobs=1, cell_timeout=300.0)
        assert ("fft", "XOR") in results
        assert stats.cache_misses == 1

    def test_timed_out_cell_is_not_cached(self, config, monkeypatch):
        monkeypatch.setattr(
            families_mod, "timed_execute_cell", _slow_execute(0.05)
        )
        cell = make_cell("indexing", "fft", "XOR", config)
        with pytest.raises(CellExecutionError):
            run_cells([cell], config, jobs=1, cell_timeout=0.001)
        # A fresh run without the budget must actually simulate (no stale
        # cache entry was written for the failed cell).
        monkeypatch.undo()
        _, stats = run_cells([cell], config, jobs=1)
        assert stats.cache_misses == 1


class TestPoolPath:
    """Thread pool via ``engine_pool_scope``: preemptive ``future.result``."""

    def test_hung_worker_fails_with_attribution(self, config, monkeypatch):
        release = threading.Event()
        monkeypatch.setattr(
            families_mod, "timed_execute_cell", _slow_execute(0.0, release)
        )
        cells = [make_cell("indexing", "fft", "XOR", config)]
        pool = ThreadPoolExecutor(max_workers=2)
        try:
            t0 = time.perf_counter()
            with engine_pool_scope(pool):
                with pytest.raises(CellExecutionError) as exc_info:
                    run_cells(cells, config, jobs=4, cell_timeout=0.1)
            waited = time.perf_counter() - t0
            message = str(exc_info.value)
            assert "(fft, XOR)" in message
            assert "per-cell timeout (0.1s)" in message
            assert waited < 20  # attribution, not an indefinite block
        finally:
            release.set()
            pool.shutdown(wait=True)

    def test_fast_cells_pass_under_budget(self, config):
        cells = [
            make_cell("indexing", "fft", "XOR", config),
            make_cell("indexing", "fft", "Prime_Modulo", config),
        ]
        pool = ThreadPoolExecutor(max_workers=2)
        try:
            with engine_pool_scope(pool):
                results, stats = run_cells(cells, config, jobs=4, cell_timeout=300.0)
        finally:
            pool.shutdown(wait=True)
        assert len(results) == 2
        assert stats.cache_misses == 2


class TestConfigPlumbing:
    def test_config_field_is_the_default_budget(self, config, monkeypatch):
        monkeypatch.setattr(
            families_mod, "timed_execute_cell", _slow_execute(0.05)
        )
        strict = replace(config, cell_timeout=0.001)
        cell = make_cell("indexing", "fft", "XOR", strict)
        with pytest.raises(CellExecutionError, match="per-cell timeout"):
            run_cells([cell], strict, jobs=1)

    def test_explicit_argument_overrides_config(self, config, monkeypatch):
        monkeypatch.setattr(
            families_mod, "timed_execute_cell", _slow_execute(0.05)
        )
        strict = replace(config, cell_timeout=0.001)
        cell = make_cell("indexing", "fft", "XOR", strict)
        # A generous explicit budget wins over the config's strict one.
        results, _ = run_cells([cell], strict, jobs=1, cell_timeout=300.0)
        assert ("fft", "XOR") in results

    def test_runners_inherit_config_budget(self, config, monkeypatch):
        monkeypatch.setattr(
            families_mod, "timed_execute_cell", _slow_execute(0.05)
        )
        strict = replace(config, cell_timeout=0.001)
        with pytest.raises(CellExecutionError, match=r"\(fft, baseline\).*per-cell timeout"):
            run_experiment("fig1", strict)

    def test_cell_timeout_not_in_cache_keys(self, config):
        """An execution knob must not shift content-addressed keys."""
        from repro.experiments.engine import plan_cells

        cell_a = make_cell("indexing", "fft", "XOR", config)
        strict = replace(config, cell_timeout=5.0)
        cell_b = make_cell("indexing", "fft", "XOR", strict)
        key_a = plan_cells([cell_a], config, jobs=1).keys[cell_a]
        key_b = plan_cells([cell_b], strict, jobs=1).keys[cell_b]
        assert key_a == key_b
