"""Engine pool floor: small grids on the process-wide pool (≥ 3×).

A replay is many small ``run_cells`` grids, one per experiment.  This
floor times six two-workload grids at ``jobs=2`` on the engine's own pool
(:mod:`repro.experiments.engine.pool`, built once and reused) against the
same six grids with a fresh ``ProcessPoolExecutor`` injected per call
through ``engine_pool_scope`` — the fork and join every grid paid before
the pool was shared.  Traces are warmed and the result store is off, so
both sides simulate every cell and differ only in how they get workers.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from bench_timing import best_of_alternating

from repro.experiments import PaperConfig
from repro.experiments.engine import engine_pool_scope, make_cell, run_cells
from repro.experiments.warm import warm_traces, workload_spec

PAIRS = [
    ("fft", "crc"),
    ("sha", "susan"),
    ("dijkstra", "patricia"),
    ("qsort", "basicmath"),
    ("bitcount", "adpcm"),
    ("rijndael", "stream"),
]


def test_shared_pool_over_a_fresh_pool_per_grid(tmp_path):
    config = replace(
        PaperConfig(),
        ref_limit=2000,
        trace_cache_dir=tmp_path / "traces",
        use_result_cache=False,
    )
    warm_traces(
        [workload_spec(w, config) for pair in PAIRS for w in pair], config, jobs=1
    )
    grids = [[make_cell("indexing", w, "XOR", config) for w in pair] for pair in PAIRS]

    def shared():
        return [run_cells(grid, config, jobs=2)[0] for grid in grids]

    def fresh():
        out = []
        for grid in grids:
            with ProcessPoolExecutor(max_workers=2) as pool, engine_pool_scope(pool):
                out.append(run_cells(grid, config, jobs=2)[0])
        return out

    (shared_s, shared_out), (fresh_s, fresh_out) = best_of_alternating([shared, fresh])
    assert [{k: r.misses for k, r in g.items()} for g in shared_out] == [
        {k: r.misses for k, r in g.items()} for g in fresh_out
    ]
    speedup = fresh_s / shared_s
    assert speedup >= 3.0, (
        f"shared pool only {speedup:.1f}x over a fresh pool per grid (floor 3x): "
        f"{shared_s * 1e3:.0f} ms vs {fresh_s * 1e3:.0f} ms"
    )
