"""Extension experiment: the paper's techniques against classical bounds.

The paper's Section III opens with the fully-associative cache as the
theoretical anchor, and frames the adaptive cache as *selective victim
caching* (its reference [14], Jouppi).  This experiment makes those anchors
explicit: for each MiBench workload, the direct-mapped baseline and the
three programmable-associativity schemes are compared against

* 2/4/8-way set-associative LRU caches of equal capacity,
* a 2-way skewed-associative cache (Seznec — per-way index functions,
  unifying the paper's two technique families in one structure),
* a direct-mapped cache with an 8-line victim buffer (Jouppi),
* the fully-associative LRU cache, and
* the clairvoyant Belady/MIN bound.

All columns report % reduction in misses vs the direct-mapped baseline, so
the table reads as "how much of the achievable headroom does each technique
capture".

Note the k-way columns here hold *capacity* fixed (``with_ways``), so each
has a different set mapping and they can only share a trace decode (the
"decode" sweep-family axis) — the fixed-sets Mattson sweep that shares one
stack-distance pass lives in ``ext-assoc``.
"""

from __future__ import annotations

from ..core.uniformity import percent_reduction
from ..workloads.mibench import MIBENCH_ORDER
from .config import PaperConfig
from .engine import SimCell, make_cell, run_cells
from .report import ExperimentResult
from .runner import register_experiment

__all__ = ["run_ext_bounds"]

EXT_BOUNDS_COLUMNS = [
    "2way",
    "4way",
    "8way",
    "Skewed2",
    "Victim8",
    "Adaptive",
    "B_Cache",
    "ColAssoc",
    "FullAssoc",
    "Belady",
]


def ext_bounds_cells(config: PaperConfig) -> list[SimCell]:
    # Every comparison point is one engine cell: the k-way LRU and
    # fully-associative columns ride the vectorised stack-distance kernel,
    # the stateful structures the sequential engine — all memoized in the
    # on-disk result cache and fanned out over --jobs workers.
    cells = []
    for bench in MIBENCH_ORDER:
        cells.append(make_cell("baseline", bench, "baseline", config))
        cells.extend(
            make_cell("bounds", bench, label, config) for label in EXT_BOUNDS_COLUMNS
        )
    return cells


@register_experiment("ext-bounds", cells=ext_bounds_cells)
def run_ext_bounds(config: PaperConfig) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ext-bounds",
        title="% miss reduction vs DM: paper techniques against classical bounds",
        columns=EXT_BOUNDS_COLUMNS,
    )
    sims, stats = run_cells(ext_bounds_cells(config), config)
    for bench in MIBENCH_ORDER:
        base = sims[(bench, "baseline")]
        row = {
            label: percent_reduction(sims[(bench, label)].misses, base.misses)
            for label in EXT_BOUNDS_COLUMNS
        }
        result.add_row(bench, row)
    result.add_average_row()
    result.note("Belady is the clairvoyant optimum; FullAssoc the realisable LRU bound")
    result.note("Adaptive ~ selective victim caching (paper Section III.B remark)")
    result.engine_stats = stats.as_dict()
    return result
