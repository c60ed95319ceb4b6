"""Extension experiment: 3C miss breakdown of every workload.

The decoder ring for every other figure: benchmarks whose direct-mapped
misses are conflict-dominated (fft, crc in our layout) are the ones the
paper's techniques rescue; cold/capacity-dominated ones (libquantum, mcf,
susan) are immune.  Columns report each class as a percentage of the
direct-mapped cache's total misses; ``conflict%`` can be slightly negative
when direct-mapped placement beats fully-associative LRU (the classic
caveat, kept unclamped).
"""

from __future__ import annotations

from ..core.three_c import MissBreakdown
from ..workloads.mibench import MIBENCH_ORDER
from ..workloads.spec import SPEC_ORDER
from .config import PaperConfig
from .engine import make_cell, run_cells
from .report import ExperimentResult
from .runner import register_experiment

__all__ = ["run_ext_three_c"]


@register_experiment("ext-3c")
def run_ext_three_c(config: PaperConfig) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ext-3c",
        title="3C breakdown of direct-mapped misses (% of total misses)",
        columns=["miss_rate%", "cold%", "capacity%", "conflict%"],
    )
    benches = MIBENCH_ORDER + SPEC_ORDER
    sims, stats = run_cells(
        [make_cell("threec", bench, "direct_mapped", config) for bench in benches],
        config,
    )
    for bench in benches:
        sim = sims[(bench, "direct_mapped")]
        breakdown = MissBreakdown(
            total=sim.misses,
            cold=sim.extra["cold"],
            capacity=sim.extra["capacity"],
            conflict=sim.extra["conflict"],
            accesses=sim.accesses,
        )
        result.add_row(
            bench,
            {
                "miss_rate%": 100.0 * breakdown.miss_rate,
                "cold%": 100.0 * breakdown.share("cold"),
                "capacity%": 100.0 * breakdown.share("capacity"),
                "conflict%": 100.0 * breakdown.share("conflict"),
            },
        )
        result.arrays[bench] = breakdown
    result.note("high conflict% predicts responsiveness to the paper's techniques")
    result.engine_stats = stats.as_dict()
    return result


from .warm import provides_traces, workload_spec  # noqa: E402


@provides_traces("ext-3c")
def ext_three_c_traces(config: PaperConfig):
    return [workload_spec(b, config) for b in MIBENCH_ORDER + SPEC_ORDER]
