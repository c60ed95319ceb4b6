"""Extension experiment: the full hybrid matrix.

The paper's Figure 8 explores one hybrid family (column-associative ×
indexing).  Section III promises "hybrid techniques that combine indexing
methods with programmable associativities" more broadly; this experiment
fills in the matrix: {column-associative, adaptive, victim} × {modulo, XOR,
odd-multiplier, prime-modulo} on the MiBench suite, reported as % miss
reduction versus the plain direct-mapped baseline so all cells share a
scale.
"""

from __future__ import annotations

from ..workloads.mibench import MIBENCH_ORDER
from .config import PaperConfig
from .report import ExperimentResult
from .runner import add_reduction_rows, register_experiment

__all__ = ["run_ext_hybrid"]


def _columns(config: PaperConfig) -> dict[str, tuple[str, str]]:
    """Column → engine cell ``(kind, label)``.

    The modulo column reuses fig6's labels, so it shares fig6's result-store
    entries; the victim row is the aux replay's ``vc`` combo holding
    ``config.victim_lines`` lines.
    """
    vc = config.victim_lines
    return {
        "ColAssoc+modulo": ("progassoc", "Column_associative"),
        "ColAssoc+xor": ("colassoc", "ColAssoc_XOR"),
        "ColAssoc+odd": ("colassoc", "ColAssoc_Odd_Multiplier"),
        "ColAssoc+prime": ("colassoc", "ColAssoc_Prime_Modulo"),
        "Adaptive+modulo": ("progassoc", "Adaptive_Cache"),
        "Adaptive+xor": ("progassoc", "Adaptive_Cache:xor"),
        "Adaptive+odd": ("progassoc", "Adaptive_Cache:odd_multiplier"),
        "Adaptive+prime": ("progassoc", "Adaptive_Cache:prime_modulo"),
        "Victim+modulo": ("auxsweep", f"modulo:vc{vc}"),
        "Victim+xor": ("auxsweep", f"xor:vc{vc}"),
        "Victim+odd": ("auxsweep", f"odd_multiplier:vc{vc}"),
        "Victim+prime": ("auxsweep", f"prime_modulo:vc{vc}"),
    }


@register_experiment("ext-hybrid")
def run_ext_hybrid(config: PaperConfig) -> ExperimentResult:
    columns = _columns(config)
    result = ExperimentResult(
        experiment_id="ext-hybrid",
        title="% miss reduction vs DM: programmable associativity x indexing",
        columns=list(columns),
    )
    add_reduction_rows(result, MIBENCH_ORDER, columns, config)
    result.note("generalises the paper's Figure 8 beyond the column-associative cache")
    return result


from .warm import provides_traces, workload_spec  # noqa: E402


@provides_traces("ext-hybrid")
def ext_hybrid_traces(config: PaperConfig):
    return [workload_spec(b, config) for b in MIBENCH_ORDER]
