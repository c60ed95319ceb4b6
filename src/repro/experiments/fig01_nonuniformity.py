"""Figure 1 — non-uniform per-set accesses of MiBench FFT.

The paper plots accesses per cache set for the FFT L1D and reports in prose
that 90.43% of sets receive less than half the average number of accesses
while 6.641% receive more than twice the average.  We reproduce the per-set
histogram under the paper's geometry and report the same two bucket
percentages, plus the full uniformity metric suite for context.
"""

from __future__ import annotations

from ..core.uniformity import uniformity_report, zhang_classification
from .config import PaperConfig
from .engine import make_cell, run_cells
from .report import ExperimentResult, sparkline
from .runner import register_experiment

__all__ = ["run_fig01"]


@register_experiment("fig1")
def run_fig01(config: PaperConfig) -> ExperimentResult:
    sims, stats = run_cells([make_cell("baseline", "fft", "baseline", config)], config)
    sim = sims[("fft", "baseline")]
    accesses = sim.slot_accesses
    rep = uniformity_report(accesses)
    zh = zhang_classification(accesses, sim.slot_hits, sim.slot_misses)

    result = ExperimentResult(
        experiment_id="fig1",
        title="Non-uniform cache accesses for MiBench FFT (accesses per set)",
        columns=["value"],
        unit="",
    )
    result.add_row("sets_below_half_avg_%", {"value": rep.below_half_pct})
    result.add_row("sets_above_double_avg_%", {"value": rep.above_double_pct})
    result.add_row("mean_accesses_per_set", {"value": rep.mean})
    result.add_row("std_accesses_per_set", {"value": rep.std})
    result.add_row("skewness", {"value": rep.skewness})
    result.add_row("kurtosis", {"value": rep.kurtosis})
    result.add_row("gini", {"value": rep.gini})
    result.add_row("FHS_%", {"value": zh["FHS%"]})
    result.add_row("FMS_%", {"value": zh["FMS%"]})
    result.add_row("LAS_%", {"value": zh["LAS%"]})
    result.arrays["accesses_per_set"] = accesses
    result.arrays["misses_per_set"] = sim.slot_misses
    result.note(
        "paper: 90.43% of sets < half average accesses, 6.641% > 2x average"
    )
    result.note("per-set access profile: " + sparkline(accesses))
    result.engine_stats = stats.as_dict()
    return result


from .warm import provides_traces, workload_spec  # noqa: E402


@provides_traces("fig1")
def fig01_traces(config: PaperConfig):
    return [workload_spec("fft", config)]
