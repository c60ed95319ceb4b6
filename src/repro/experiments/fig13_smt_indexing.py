"""Figure 13 — multiple indexing schemes in a multithreaded (SMT) system.

2- and 4-thread mixes share the paper's L1D.  Baseline: every thread uses
conventional modulo indexing.  Treatment: each thread uses odd-multiplier
indexing with a *different* multiplier (the paper's initial experiment).
Bars are % reduction in total shared-cache misses.  Paper shape: large
reductions on every mix, substantial average.
"""

from __future__ import annotations

from ..core.uniformity import percent_reduction
from .config import MULTITHREAD_MIXES_FIG13, PaperConfig
from .engine import SimCell, make_cell, run_cells
from .report import ExperimentResult
from .runner import register_experiment
from .warm import mix_name

__all__ = ["run_fig13", "mix_label"]


def mix_label(mix: tuple[str, ...]) -> str:
    return "_".join(mix)


#: Baseline (every thread modulo) and treatment cell label of each mix.
_LABELS = ("modulo", "odd_multiplier")


def fig13_cells(config: PaperConfig) -> list[SimCell]:
    # Each mix's round-robin interleaving of its per-thread traces is a
    # derived trace (see repro.experiments.warm.mix_name), cached and
    # fingerprinted like a workload.
    return [
        make_cell("smt", mix_name(mix), label, config)
        for mix in MULTITHREAD_MIXES_FIG13
        for label in _LABELS
    ]


@register_experiment("fig13", cells=fig13_cells)
def run_fig13(config: PaperConfig) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig13",
        title="% reduction in miss rate: per-thread odd-multiplier indexing (SMT)",
        columns=["reduction"],
    )
    sims, stats = run_cells(fig13_cells(config), config)
    for mix in MULTITHREAD_MIXES_FIG13:
        base, multi = (sims[(mix_name(mix), label)] for label in _LABELS)
        result.add_row(
            mix_label(mix), {"reduction": percent_reduction(multi.misses, base.misses)}
        )
        result.arrays[f"{mix_label(mix)}/base_cross_evictions"] = base.extra["cross_evictions"]
        result.arrays[f"{mix_label(mix)}/multi_cross_evictions"] = multi.extra["cross_evictions"]
    result.add_average_row()
    result.note("paper shape: significant reductions on every mix")
    result.note("baseline = both threads conventional modulo indexing, shared L1D")
    result.engine_stats = stats.as_dict()
    return result
