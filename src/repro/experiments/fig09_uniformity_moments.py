"""Figures 9-12 — kurtosis and skewness of per-set *misses*.

The paper converts per-set miss counts to distributions and reports the
percentage increase in kurtosis (Figs. 9 and 11) and skewness (Figs. 10 and
12) relative to the conventional direct-mapped baseline — for the indexing
schemes (9/10) and the programmable-associativity schemes (11/12).
Negative = more uniform misses.

Paper shape: the indexing schemes are mixed (some large *increases* in
non-uniformity); the programmable-associativity schemes reduce both moments
strongly.

These figures reuse the per-set miss arrays already computed by the fig4
and fig6 runners (stored in their ``arrays``), so each pair of figures
costs one underlying sweep.
"""

from __future__ import annotations

import numpy as np

from ..core.uniformity import kurtosis, percent_increase, skewness
from ..workloads.mibench import MIBENCH_ORDER
from .config import PaperConfig
from .fig04_indexing_missrate import INDEXING_COLUMNS, fig04_cells, run_fig04
from .fig06_progassoc_missrate import PROGASSOC_COLUMNS, fig06_cells, run_fig06
from .report import ExperimentResult
from .runner import register_experiment

__all__ = ["run_fig09", "run_fig10", "run_fig11", "run_fig12"]


def _moment_result(
    source, columns: list[str], experiment_id: str, moment_name: str, moment_fn
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=f"% increase in {moment_name} of per-set misses vs conventional",
        columns=columns,
    )
    for bench in MIBENCH_ORDER:
        base = np.asarray(source.arrays[f"{bench}/baseline/misses_per_set"])
        base_m = moment_fn(base)
        row = {}
        for col in columns:
            misses = np.asarray(source.arrays[f"{bench}/{col}/misses_per_set"])
            row[col] = percent_increase(moment_fn(misses), base_m)
        result.add_row(bench, row)
    result.add_average_row()
    # The cells behind these moments are the source run's.
    result.engine_stats = dict(source.engine_stats)
    return result


@register_experiment("fig9", cells=fig04_cells)
def run_fig09(config: PaperConfig) -> ExperimentResult:
    src = run_fig04(config)
    res = _moment_result(src, INDEXING_COLUMNS, "fig9", "kurtosis", kurtosis)
    res.note("paper shape: mixed; several schemes sharply increase miss kurtosis")
    return res


@register_experiment("fig10", cells=fig04_cells)
def run_fig10(config: PaperConfig) -> ExperimentResult:
    src = run_fig04(config)
    res = _moment_result(src, INDEXING_COLUMNS, "fig10", "skewness", skewness)
    res.note("paper shape: mixed; improvements not significant, some regressions")
    return res


@register_experiment("fig11", cells=fig06_cells)
def run_fig11(config: PaperConfig) -> ExperimentResult:
    src = run_fig06(config)
    res = _moment_result(src, PROGASSOC_COLUMNS, "fig11", "kurtosis", kurtosis)
    res.note("paper shape: programmable associativity strongly reduces kurtosis")
    return res


@register_experiment("fig12", cells=fig06_cells)
def run_fig12(config: PaperConfig) -> ExperimentResult:
    src = run_fig06(config)
    res = _moment_result(src, PROGASSOC_COLUMNS, "fig12", "skewness", skewness)
    res.note("paper shape: programmable associativity reduces skewness (negative bars)")
    return res
