"""Figure 8 — column-associative cache with non-conventional primary indexes.

On the SPEC-like workloads: a column-associative cache whose *primary*
index function is XOR, odd-multiplier or prime-modulo, measured as
% reduction in misses versus the plain (conventionally indexed)
column-associative cache.  Paper shape: odd-multiplier best on average;
some benchmarks regress under non-conventional indexes (their text calls
out calculix and sjeng).

Each bench's four column-associative cells form one "decode" sweep family
— one trace decode per bench per worker, with per-cell execution, keys and
results untouched.
"""

from __future__ import annotations

from ..core.uniformity import percent_reduction
from ..workloads.spec import SPEC_ORDER
from .config import PaperConfig
from .engine import SimCell, make_cell, run_cells
from .report import ExperimentResult
from .runner import register_experiment

__all__ = ["run_fig08", "FIG8_COLUMNS"]

FIG8_COLUMNS = [
    "ColAssoc_XOR",
    "ColAssoc_Odd_Multiplier",
    "ColAssoc_Prime_Modulo",
]


def fig08_cells(config: PaperConfig) -> list[SimCell]:
    cells = []
    for bench in SPEC_ORDER:
        cells.append(make_cell("colassoc", bench, "ColAssoc_Base", config))
        cells.extend(
            make_cell("colassoc", bench, label, config) for label in FIG8_COLUMNS
        )
    return cells


@register_experiment("fig8", cells=fig08_cells)
def run_fig08(config: PaperConfig) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig8",
        title="% reduction in miss rate: indexed column-associative vs plain",
        columns=FIG8_COLUMNS,
    )
    sims, stats = run_cells(fig08_cells(config), config)
    for bench in SPEC_ORDER:
        base = sims[(bench, "ColAssoc_Base")]
        row = {
            label: percent_reduction(sims[(bench, label)].misses, base.misses)
            for label in FIG8_COLUMNS
        }
        result.add_row(bench, row)
    result.add_average_row()
    result.note("paper shape: odd-multiplier best on average; some benchmarks regress")
    result.engine_stats = stats.as_dict()
    return result
