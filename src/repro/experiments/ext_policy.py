"""Extension experiment: replacement policy × indexing scheme grid.

The paper's remedies all target the *placement* side of non-uniformity —
where a block lands.  This experiment probes the *retention* side: for
each MiBench workload and for both a conventional modulo index and the
XOR (bitwise-XOR folding) index, the miss rate of a 4-way cache under
every registered replacement policy (LRU, FIFO, PLRU, MRU, LFU and
seeded random).  Per-cell miss-distribution Gini coefficients land in
``result.arrays`` so the figure can show whether a smarter policy also
*evens out* the per-set miss pressure or merely lowers its total.

Every row's cells differ only in ``policy``, which is exactly the
engine's "policy" sweep-family condition: one trace decode, one index
computation and one set-decomposition pass answer all six columns
(:func:`repro.core.fastpolicy.simulate_policy_sweep`) when batching is
enabled, and cell by cell when it is not — bit-identical either way.
This makes ext-policy both a figure and the end-to-end canary for the
policy-axis fast path (``benchmarks/test_policy_kernel_bench.py``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..core.uniformity import uniformity_report
from ..workloads.mibench import MIBENCH_ORDER
from .config import PaperConfig
from .engine import SimCell, make_cell, run_cells
from .report import ExperimentResult
from .runner import register_experiment

__all__ = ["run_ext_policy", "EXT_POLICY_COLUMNS", "EXT_POLICY_SCHEMES"]

#: Replacement policies of the sweep (the columns), reference first.
EXT_POLICY_COLUMNS = ["lru", "fifo", "plru", "mru", "lfu", "random"]

#: Indexing schemes crossed with the policies (one row per scheme).
EXT_POLICY_SCHEMES = ["modulo", "xor"]


def _four_way(config: PaperConfig) -> PaperConfig:
    # 4-way point: associative enough that policies differ, small enough
    # that PLRU stays a power of two and the paper's set count is kept.
    return replace(config, geometry=config.geometry.with_ways(4))


def ext_policy_cells(config: PaperConfig) -> list[SimCell]:
    pol_config = _four_way(config)
    return [
        make_cell("policysweep", bench, f"{scheme}:{policy}", pol_config)
        for bench in MIBENCH_ORDER
        for scheme in EXT_POLICY_SCHEMES
        for policy in EXT_POLICY_COLUMNS
    ]


@register_experiment("ext-policy", cells=ext_policy_cells)
def run_ext_policy(config: PaperConfig) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ext-policy",
        title="Replacement policy × indexing scheme: 4-way miss rate",
        columns=EXT_POLICY_COLUMNS,
    )
    sims, stats = run_cells(ext_policy_cells(config), _four_way(config))
    for bench in MIBENCH_ORDER:
        for scheme in EXT_POLICY_SCHEMES:
            row = {}
            for policy in EXT_POLICY_COLUMNS:
                sim = sims[(bench, f"{scheme}:{policy}")]
                row[policy] = sim.miss_rate
                result.arrays[f"{bench}/{scheme}/{policy}/miss_gini"] = np.array(
                    [uniformity_report(sim.slot_misses).gini]
                )
            result.add_row(f"{bench}/{scheme}", row)
    result.add_average_row()
    result.note("4-way, 1024 sets; seeded random policy (policy_seed)")
    result.note("one set-decomposition answers each row under batch_sweeps")
    result.engine_stats = stats.as_dict()
    return result
