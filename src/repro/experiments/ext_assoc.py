"""Extension experiment: the Mattson associativity curve per workload.

The paper treats associativity and indexing as competing remedies for the
same disease — non-uniform set pressure.  This experiment plots the disease
directly: for each MiBench workload, the miss rate of the direct-mapped
baseline and of 2/4/8/16-way LRU caches over the *same* 1024 sets
(capacity scaling with ways — :meth:`~repro.core.address.CacheGeometry.with_fixed_sets`),
i.e. the classic Mattson stack-distance curve sampled at power-of-two
associativities.

Fixing the set count keeps the set mapping identical across every column,
which is exactly the engine's "assoc" sweep-family condition: the whole
row (baseline + every ``assocsweep`` cell) is answered from **one**
stack-distance pass per workload when batching is enabled, and column by
column when it is not — bit-identical either way.  This makes ext-assoc
both a figure and the natural end-to-end canary for the sweep-batching
fast path (``benchmarks/test_sweep_batching_bench.py``).
"""

from __future__ import annotations

from ..workloads.mibench import MIBENCH_ORDER
from .config import PaperConfig
from .engine import make_cell, run_cells
from .report import ExperimentResult
from .runner import register_experiment

__all__ = ["run_ext_assoc", "EXT_ASSOC_COLUMNS"]

#: Associativities of the sweep; ``1way`` is the ``baseline`` cell.
EXT_ASSOC_COLUMNS = ["baseline", "2way", "4way", "8way", "16way"]


@register_experiment("ext-assoc")
def run_ext_assoc(config: PaperConfig) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ext-assoc",
        title="Mattson associativity curve: miss rate over fixed sets (LRU)",
        columns=EXT_ASSOC_COLUMNS,
    )
    cells = []
    for bench in MIBENCH_ORDER:
        cells.append(make_cell("baseline", bench, "baseline", config))
        cells.extend(
            make_cell("assocsweep", bench, label, config)
            for label in EXT_ASSOC_COLUMNS[1:]
        )
    sims, stats = run_cells(cells, config)
    for bench in MIBENCH_ORDER:
        result.add_row(
            bench,
            {label: sims[(bench, label)].miss_rate for label in EXT_ASSOC_COLUMNS},
        )
    result.add_average_row()
    result.note("fixed 1024 sets, capacity scales with ways (Mattson sweep)")
    result.note("one stack-distance pass answers each row under batch_sweeps")
    result.engine_stats = stats.as_dict()
    return result


from .warm import provides_traces, workload_spec  # noqa: E402


@provides_traces("ext-assoc")
def ext_assoc_traces(config: PaperConfig):
    return [workload_spec(b, config) for b in MIBENCH_ORDER]
