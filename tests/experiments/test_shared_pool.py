"""The engine's process-wide worker pool (:mod:`repro.experiments.engine.pool`).

Every ``run_cells`` and ``warm_traces`` in a process submits to one pool
per width, built on first use.  Locked here:

1. **reuse** — runs and trace warm-ups share the same workers, and the
   results equal the in-process ones over experiments run back to back;
2. **failure** — a cell timeout or a worker that dies fails the run naming
   the cell, discards the pool, and the next run builds a new one;
3. **registry** — racing first uses build one pool, and a forked child
   never submits to its parent's;
4. **arena** — a task leaves its worker's trace arena empty, while an
   injected executor's tasks (threads of this process) keep theirs;
5. **exit** — the interpreter's exit joins the workers.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

import repro.experiments.engine.families as families_mod
from repro.experiments import PaperConfig, run_experiment
from repro.experiments import fig04_indexing_missrate as fig04
from repro.experiments.engine import (
    CellExecutionError,
    engine_pool_scope,
    make_cell,
    plan_cells,
    run_cells,
)
from repro.experiments.engine.cells import timed_execute_cell
from repro.experiments.engine.pool import EnginePool, engine_pool
from repro.experiments.report import render_table
from repro.experiments.warm import warm_traces, workload_spec
from repro.trace.arena import get_arena, reset_arena

REFS = 1500


def _config(root) -> PaperConfig:
    return replace(
        PaperConfig(), ref_limit=REFS, workload_scale=0.05, trace_cache_dir=root / "traces"
    )


@pytest.fixture
def config(tmp_path) -> PaperConfig:
    return _config(tmp_path)


def _cells(config: PaperConfig):
    """Two cells of two workloads: two units, so ``jobs=2`` takes the pool."""
    return [make_cell("indexing", w, "XOR", config) for w in ("fft", "crc")]


def _worker_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def _exit_on_fft(cell, config, trace_path=None, profile_path=None):
    """Stand-in for ``timed_execute_cell``: the fft cell kills its worker."""
    if cell.workload == "fft":
        os._exit(3)
    return timed_execute_cell(cell, config, trace_path, profile_path)


def _arena_stats():
    return get_arena().stats()


def test_runs_and_warm_up_reuse_the_same_workers(tmp_path):
    first = _config(tmp_path / "a")
    _, stats = run_cells(_cells(first), first, jobs=2)
    assert stats.cache_misses == 2
    pool = engine_pool(2)
    pids = _worker_pids()
    assert pids

    second = _config(tmp_path / "b")
    _, stats = run_cells(_cells(second), second, jobs=2)
    assert stats.cache_misses == 2
    third = _config(tmp_path / "c")
    specs = [workload_spec(w, third) for w in ("fft", "crc", "sha")]
    entries = warm_traces(specs, third, jobs=2)
    assert all(e.generated for e in entries.values())

    assert engine_pool(2) is pool
    assert _worker_pids() == pids


def _comparable(result):
    return list(result.rows), result.columns, render_table(result)


def test_jobs2_equals_jobs1_over_experiments_back_to_back(tmp_path):
    eids = ["fig4", "fig13", "ext-3c", "ext-icache"]
    runs = {}
    for jobs in (1, 2):
        fig04._CACHE.clear()
        cfg = _config(tmp_path / f"jobs{jobs}")
        runs[jobs] = [run_experiment(eid, cfg, jobs=jobs) for eid in eids]
    fig04._CACHE.clear()
    for seq, par in zip(runs[1], runs[2]):
        assert _comparable(seq) == _comparable(par)
        for key, value in seq.arrays.items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(value, par.arrays[key])
        assert par.engine_stats["jobs"] == 2
        assert par.engine_stats["cache_misses"] == seq.engine_stats["cache_misses"]


def test_racing_threads_build_one_pool():
    width = 5  # used by no other test: the pool is built here
    barrier = threading.Barrier(8)
    pools = []

    def grab():
        barrier.wait(timeout=30)
        pools.append(engine_pool(width))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    try:
        assert len(pools) == 8 and all(p is pools[0] for p in pools)
    finally:
        pools[0].discard()


def test_timeout_discards_the_pool_and_the_next_run_succeeds(config):
    before = engine_pool(2)
    slow = replace(config, cell_delay=2.0)
    with pytest.raises(CellExecutionError, match="per-cell timeout"):
        run_cells(_cells(slow), slow, jobs=2, cell_timeout=0.2)
    results, stats = run_cells(_cells(config), config, jobs=2)
    assert len(results) == 2 and stats.cache_misses == 2
    assert engine_pool(2) is not before


def test_dead_worker_names_its_cell_and_the_next_run_succeeds(config, monkeypatch):
    monkeypatch.setattr(families_mod, "timed_execute_cell", _exit_on_fft)
    # The workers inherit the stand-in only when they fork after it is set.
    engine_pool(2).discard()
    with pytest.raises(CellExecutionError) as err:
        run_cells(_cells(config), config, jobs=2)
    assert "(fft, XOR)" in str(err.value)
    assert isinstance(err.value.__cause__, BrokenProcessPool)
    monkeypatch.undo()
    results, stats = run_cells(_cells(config), config, jobs=2)
    assert len(results) == 2 and stats.cache_misses == 2


def test_forked_child_builds_its_own_pool(config):
    run_cells(_cells(config), config, jobs=2)
    parent_pool = engine_pool(2)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports through the pipe
        verdict = b"0"
        try:
            pool = engine_pool(2)
            own = pool.submit(os.getppid).result(timeout=30) == os.getpid()
            pool.shutdown(wait=True)
            verdict = b"1" if own and pool is not parent_pool else b"0"
        finally:
            os.write(write, verdict)
            os._exit(0)
    os.close(write)
    verdict = os.read(read, 1)
    os.close(read)
    os.waitpid(pid, 0)
    assert verdict == b"1"


def test_a_task_leaves_its_workers_arena_empty(config):
    cell = _cells(config)[0]
    trace_path = plan_cells([cell], config, jobs=1).trace_paths[cell.workload]
    pool = EnginePool(1)  # one worker: every task below runs in it
    try:
        before = pool.submit(_arena_stats).result(timeout=60)
        result, _ = pool.submit(timed_execute_cell, cell, config, trace_path).result(
            timeout=60
        )
        after = pool.submit(_arena_stats).result(timeout=60)
    finally:
        pool.shutdown(wait=True)
    assert result.accesses > 0
    assert after.misses == before.misses + 1  # the cell mapped its trace...
    assert after.entries == 0  # ...and the worker kept none of it


def test_injected_thread_pool_leaves_the_parents_arena_alone(config):
    reset_arena()
    try:
        with ThreadPoolExecutor(max_workers=2) as pool, engine_pool_scope(pool):
            _, stats = run_cells(_cells(config), config, jobs=2)
        assert stats.cache_misses == 2
        assert get_arena().stats().entries == 2
    finally:
        reset_arena()


def test_interpreter_exit_joins_the_workers(tmp_path):
    script = (
        "import json, multiprocessing, sys\n"
        "from pathlib import Path\n"
        "from repro.experiments import PaperConfig\n"
        "from repro.experiments.engine import make_cell, run_cells\n"
        "cfg = PaperConfig(ref_limit=1500, workload_scale=0.05,\n"
        "                  trace_cache_dir=Path(sys.argv[1]))\n"
        "cells = [make_cell('indexing', w, 'XOR', cfg) for w in ('fft', 'crc')]\n"
        "run_cells(cells, cfg, jobs=2)\n"
        "print(json.dumps([p.pid for p in multiprocessing.active_children()]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "traces")],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    pids = json.loads(proc.stdout)
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)  # joined, so reaped: no such process remains
