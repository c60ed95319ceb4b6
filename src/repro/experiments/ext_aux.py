"""Extension experiment: auxiliary structures × indexing scheme grid.

The paper's remedies redistribute conflict misses by changing *where*
blocks land; Jouppi's auxiliary structures instead *absorb* the conflicts
a mapping creates — a victim cache holds what the hot sets evict, a miss
cache holds what they fetch, stream buffers prefetch what they will fetch
next.  For each MiBench workload and for both the conventional modulo
index and the XOR index, this grid reports the composed miss rate of a
direct-mapped cache augmented with victim buffers (2/4/8 lines), a
4-entry miss cache, 4-deep stream buffers and the combined VC+SB / MC+SB
configurations, next to the column-associative cache — the head-to-head
the paper's framing invites: does a 4-entry fully-associative buffer beat
a smarter cache organisation on skewed sets?

Per aux cell, ``result.arrays`` carries the per-structure effectiveness
metrics (:func:`~repro.core.uniformity.aux_structure_report`) and the
per-set *eviction-absorption* Gini versus the same-scheme baseline — how
unevenly the structure's relief is distributed over the sets (≈1 on a
modulo mapping: nearly all absorbed misses come from the few hot sets).

Aux cells ride the engine's "decode" sweep-family axis (shared trace
open; the per-cell path is already the exact miss-event replay of
:mod:`repro.core.aux.fast` under ``engine="auto"``), which makes ext-aux
the end-to-end canary for the aux fast path the same way ext-policy is
for the policy axis (``benchmarks/test_aux_bench.py``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..core.uniformity import aux_structure_report, eviction_absorption_gini
from ..workloads.mibench import MIBENCH_ORDER
from .config import PaperConfig
from .engine import make_cell, run_cells
from .report import ExperimentResult
from .runner import register_experiment

__all__ = ["run_ext_aux", "EXT_AUX_COLUMNS", "EXT_AUX_SCHEMES", "EXT_AUX_SPECS"]

#: Aux compositions of the sweep: ``(column, combo, depth)``.
EXT_AUX_SPECS = [
    ("vc2", "vc", 2),
    ("vc4", "vc", 4),
    ("vc8", "vc", 8),
    ("mc4", "mc", 4),
    ("sb4", "sb", 4),
    ("vc+sb4", "vc+sb", 4),
    ("mc+sb4", "mc+sb", 4),
]

#: Grid columns, reference first, the organisational rival last.
EXT_AUX_COLUMNS = ["baseline"] + [col for col, _, _ in EXT_AUX_SPECS] + ["colassoc"]

#: Indexing schemes crossed with the compositions (one row per scheme).
EXT_AUX_SCHEMES = ["modulo", "xor"]

#: Per-scheme (baseline cell, column-associative cell) kinds and labels.
_SCHEME_CELLS = {
    "modulo": (("baseline", "baseline"), ("colassoc", "ColAssoc_Base")),
    "xor": (("indexing", "XOR"), ("colassoc", "ColAssoc_XOR")),
}


@register_experiment("ext-aux")
def run_ext_aux(config: PaperConfig) -> ExperimentResult:
    # Aux structures augment the paper's direct-mapped L1.
    if config.geometry.ways != 1:
        config = replace(config, geometry=config.geometry.with_ways(1))
    result = ExperimentResult(
        experiment_id="ext-aux",
        title="Auxiliary structures × indexing scheme: direct-mapped miss rate",
        columns=EXT_AUX_COLUMNS,
    )
    cells = []
    for bench in MIBENCH_ORDER:
        for scheme in EXT_AUX_SCHEMES:
            (base_kind, base_label), (col_kind, col_label) = _SCHEME_CELLS[scheme]
            cells.append(make_cell(base_kind, bench, base_label, config))
            for _, combo, depth in EXT_AUX_SPECS:
                cells.append(
                    make_cell("auxsweep", bench, f"{scheme}:{combo}{depth}", config)
                )
            cells.append(make_cell(col_kind, bench, col_label, config))
    sims, stats = run_cells(cells, config)
    head_to_head = []
    for bench in MIBENCH_ORDER:
        for scheme in EXT_AUX_SCHEMES:
            (_, base_label), (_, col_label) = _SCHEME_CELLS[scheme]
            base = sims[(bench, base_label)]
            col = sims[(bench, col_label)]
            row = {"baseline": base.miss_rate, "colassoc": col.miss_rate}
            for column, combo, depth in EXT_AUX_SPECS:
                sim = sims[(bench, f"{scheme}:{combo}{depth}")]
                row[column] = sim.miss_rate
                report = aux_structure_report(sim)
                prefix = f"{bench}/{scheme}/{column}"
                result.arrays[f"{prefix}/aux_report"] = np.array(
                    list(report.as_dict().values())
                )
                result.arrays[f"{prefix}/absorption_gini"] = np.array(
                    [eviction_absorption_gini(base.slot_misses, sim.slot_misses)]
                )
            result.add_row(f"{bench}/{scheme}", row)
            if scheme == "modulo":
                head_to_head.append(
                    (bench, row["vc4"], row["colassoc"], row["baseline"])
                )
    result.add_average_row()
    # The head-to-head the grid exists for: 4-entry VC vs column
    # associativity on the skewed (conventionally-indexed) sets.
    vc_wins = 0
    for bench, vc4, col, base in head_to_head:
        winner = "vc4" if vc4 <= col else "colassoc"
        vc_wins += winner == "vc4"
        result.note(
            f"head-to-head {bench}: baseline={base:.4f} vc4={vc4:.4f} "
            f"colassoc={col:.4f} -> {winner}"
        )
    result.note(
        f"4-entry victim cache beats column associativity on "
        f"{vc_wins}/{len(head_to_head)} modulo-indexed workloads"
    )
    result.note("direct-mapped, 1024 sets; sb cells use aux_streams/aux_allocate")
    result.engine_stats = stats.as_dict()
    return result


from .warm import provides_traces, workload_spec  # noqa: E402


@provides_traces("ext-aux")
def ext_aux_traces(config: PaperConfig):
    return [workload_spec(b, config) for b in MIBENCH_ORDER]
