"""Figure 4 — % reduction in miss rate for the indexing schemes.

For each MiBench benchmark: XOR, odd-multiplier, prime-modulo, Givargis and
Givargis-XOR indexing versus the conventional direct-mapped baseline.
Positive bars = fewer misses.  Paper shape: mixed signs everywhere, no
universal winner, Givargis worst on average (with catastrophic regressions
whose baselines are near zero — their -5e8% bar for susan).

Each bench's six cells (baseline + five schemes) form one "decode" sweep
family: the engine ships them to a worker as one unit that decodes the
trace once, keeping the per-cell result-cache keys and outcomes
bit-identical (``tests/core/test_sweep_batching_differential.py``).
"""

from __future__ import annotations

from ..core.uniformity import percent_reduction
from ..workloads.mibench import MIBENCH_ORDER
from .config import PaperConfig
from .engine import SimCell, make_cell, run_cells
from .report import ExperimentResult
from .runner import register_experiment

__all__ = ["run_fig04", "fig04_cells", "INDEXING_COLUMNS"]

INDEXING_COLUMNS = ["XOR", "Odd_Multiplier", "Prime_Modulo", "Givargis", "Givargis_Xor"]


_CACHE: dict[PaperConfig, ExperimentResult] = {}


def fig04_cells(config: PaperConfig) -> list[SimCell]:
    """Each bench's baseline and its five indexing schemes (the Givargis
    ones fit on the bench's profiling run)."""
    cells = []
    for bench in MIBENCH_ORDER:
        cells.append(make_cell("baseline", bench, "baseline", config))
        cells.extend(
            make_cell("indexing", bench, label, config) for label in INDEXING_COLUMNS
        )
    return cells


@register_experiment("fig4", cells=fig04_cells)
def run_fig04(config: PaperConfig) -> ExperimentResult:
    # Figures 9/10 reuse this sweep's per-set arrays; cache one config.
    # The key is the whole config: any knob may change a cell's result.
    if config not in _CACHE:
        _CACHE.clear()
        _CACHE[config] = _run_fig04(config)
    return _CACHE[config]


def _run_fig04(config: PaperConfig) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig4",
        title="% reduction in miss rate, indexing schemes vs conventional",
        columns=INDEXING_COLUMNS,
    )
    # The engine memoizes each cell on disk and fans cache misses out over
    # config.jobs workers.
    sims, stats = run_cells(fig04_cells(config), config)
    for bench in MIBENCH_ORDER:
        base = sims[(bench, "baseline")]
        row = {}
        for label in INDEXING_COLUMNS:
            sim = sims[(bench, label)]
            row[label] = percent_reduction(sim.misses, base.misses)
            result.arrays[f"{bench}/{label}/misses_per_set"] = sim.slot_misses
        result.arrays[f"{bench}/baseline/misses_per_set"] = base.slot_misses
        result.add_row(bench, row)
    result.add_average_row()
    result.note("paper shape: mixed signs, no universal winner, Givargis worst average")
    result.engine_stats = stats.as_dict()
    return result
