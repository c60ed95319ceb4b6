"""Sweep-batching speedup floors: one stack-distance pass vs per-cell passes.

Two floors, each timing both of its sides in the same process:

* the kernel: :func:`~repro.core.simulator.simulate_lru_sweep` answering a
  five-point associativity ladder from one pass must stay ≥ 2.5× ahead of
  five independent :func:`~repro.core.simulator.simulate_set_associative`
  calls;
* the engine: a cold ``run_cells`` pass over an ext-assoc-shaped Mattson
  family must beat the same cells executed one by one (one
  ``plan_cells``, then ``execute_cell`` per cell) by ≥ 2×.

Bit-identity of everything measured here is locked by
``tests/core/test_sweep_batching_differential.py``.
"""

from __future__ import annotations

from bench_timing import best_of

from repro.core.address import PAPER_L1_GEOMETRY
from repro.core.indexing import ModuloIndexing
from repro.core.simulator import simulate_lru_sweep, simulate_set_associative
from repro.experiments import PaperConfig
from repro.experiments.engine import execute_cell, make_cell, plan_cells, run_cells
from repro.trace import zipf_trace

G = PAPER_L1_GEOMETRY
TRACE_1M = zipf_trace(1_000_000, seed=23)
SWEEP_WAYS = [1, 2, 4, 8, 16]

#: The ext-assoc shape: one fixed-sets Mattson family per workload.
LADDER = [("baseline", "baseline")] + [
    ("assocsweep", lab) for lab in ("2way", "4way", "8way", "16way")
]


def test_mattson_sweep_kernel_1m():
    """Five associativities from one pass over a million accesses (≥ 2.5×).

    The per-cell reference runs one full stack-distance pass per ladder
    point; the sweep runs exactly one.  The floor is conservative: the
    shared pass amortises everything but the per-member thresholding and
    per-set histograms.
    """
    scheme = ModuloIndexing(G)
    specs = [(w, "setassoc") for w in SWEEP_WAYS]
    sweep_s, results = best_of(lambda: simulate_lru_sweep(scheme, TRACE_1M, G, specs))
    assert [r.accesses for r in results] == [len(TRACE_1M)] * len(SWEEP_WAYS)

    def per_cell():
        return [
            simulate_set_associative(scheme, TRACE_1M, G.with_fixed_sets(ways), ways=ways)
            for ways in SWEEP_WAYS
        ]

    per_cell_s, singles = best_of(per_cell, rounds=1, warmup=0)
    assert [r.accesses for r in singles] == [len(TRACE_1M)] * len(SWEEP_WAYS)
    speedup = per_cell_s / sweep_s
    assert speedup >= 2.5, f"sweep kernel only {speedup:.1f}x over per-cell passes"


def test_engine_mattson_family_cold(tmp_path):
    """Cold engine pass over one ext-assoc Mattson family (≥ 2× per-cell).

    ``run_cells`` answers the five-cell ladder from one kernel pass; the
    reference plans the same grid and executes each cell on its own on the
    planned trace paths, one pass per cell (cells and results identical:
    only the execution plan differs).
    """
    cfg = PaperConfig(ref_limit=60_000, trace_cache_dir=tmp_path, use_result_cache=False)
    cells = [make_cell(kind, "crc", lab, cfg) for kind, lab in LADDER]
    run_cells(cells, cfg, jobs=1)  # pre-warm the on-disk trace cache

    batched_s, (results, stats) = best_of(lambda: run_cells(cells, cfg, jobs=1))
    assert stats.families_batched == 1 and stats.cells_batched == len(cells)
    assert len(results) == len(cells)

    def per_cell():
        plan = plan_cells(cells, cfg, jobs=1)
        return [execute_cell(c, cfg, plan.trace_paths[c.workload]) for c in cells]

    per_cell_s, singles = best_of(per_cell, rounds=1, warmup=0)
    assert [r.misses for r in singles] == [results[(c.workload, c.label)].misses for c in cells]
    speedup = per_cell_s / batched_s
    assert speedup >= 2.0, f"batched family only {speedup:.1f}x over per-cell run"
