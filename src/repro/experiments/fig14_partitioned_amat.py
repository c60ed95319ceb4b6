"""Figure 14 — partitioned adaptive cache for multithreaded applications.

The cache is divided equally among the threads; Pier's SHT and OUT tables
span the whole cache so lightly used sets of one partition absorb displaced
blocks from the other (adaptively growing each thread's effective share).
Bars are % improvement in AMAT versus the statically partitioned cache,
using the paper's Eq. (8) accounting for the adaptive variant.  Paper
shape: improvements on every mix, up to ~60%.
"""

from __future__ import annotations

from ..core.amat import amat_adaptive, amat_direct_mapped
from ..core.uniformity import percent_reduction
from .config import MULTITHREAD_MIXES_FIG14, PaperConfig
from .engine import SimCell, make_cell, run_cells
from .fig13_smt_indexing import mix_label
from .report import ExperimentResult
from .runner import register_experiment
from .warm import mix_name

__all__ = ["run_fig14"]


#: Cell labels of each mix: the static and the adaptive partitioning.
_LABELS = ("static", "adaptive")


def fig14_cells(config: PaperConfig) -> list[SimCell]:
    return [
        make_cell("partitioned", mix_name(mix), label, config)
        for mix in MULTITHREAD_MIXES_FIG14
        for label in _LABELS
    ]


@register_experiment("fig14", cells=fig14_cells)
def run_fig14(config: PaperConfig) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig14",
        title="% improvement in AMAT: adaptive partitioned vs static partitioned",
        columns=["improvement"],
    )
    timing = config.timing
    sims, stats = run_cells(fig14_cells(config), config)
    for mix in MULTITHREAD_MIXES_FIG14:
        static, adaptive = (sims[(mix_name(mix), label)] for label in _LABELS)
        s_amat = amat_direct_mapped(static.miss_rate, timing)
        a_amat = amat_adaptive(
            adaptive.fraction("direct_hits", "accesses"), adaptive.miss_rate, timing
        )
        result.add_row(mix_label(mix), {"improvement": percent_reduction(a_amat, s_amat)})
        result.arrays[f"{mix_label(mix)}/static_miss_rate"] = static.miss_rate
        result.arrays[f"{mix_label(mix)}/adaptive_miss_rate"] = adaptive.miss_rate
    result.add_average_row()
    result.note("paper shape: AMAT improves for every mix, up to ~60%")
    result.note("AMAT: static = 1 + mr*penalty; adaptive = Eq. (8)")
    result.engine_stats = stats.as_dict()
    return result
