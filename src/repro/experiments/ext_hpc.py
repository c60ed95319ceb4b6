"""Extension experiment: the Figure-4 comparison on HPC kernels.

The paper closes its methodology section with "we are currently repeating
our experiments with SPEC as well as HPC applications"; this experiment is
that HPC column.  The structured-grid and dense-array kernels are where
alternative indexing shines brightest — power-of-two array dimensions and
capacity-aligned allocations are endemic in HPC codes, and they are exactly
the patterns conventional modulo indexing folds onto a few sets (stream's
triad misses on *every* access under modulo at our alignment; transpose's
column writes thrash).

Columns match Figure 4's line-up plus the three programmable-associativity
caches, all as % miss reduction vs conventional direct-mapped.
"""

from __future__ import annotations

from ..workloads.hpc import HPC_ORDER
from .config import PaperConfig
from .report import ExperimentResult
from .runner import add_reduction_rows, register_experiment

__all__ = ["run_ext_hpc"]

#: Column → engine cell ``(kind, label)``: fig4's schemes and fig6's models.
_COLUMNS = {
    "XOR": ("indexing", "XOR"),
    "Odd_Multiplier": ("indexing", "Odd_Multiplier"),
    "Prime_Modulo": ("indexing", "Prime_Modulo"),
    "Givargis": ("indexing", "Givargis"),
    "Adaptive": ("progassoc", "Adaptive_Cache"),
    "B_Cache": ("progassoc", "B_Cache"),
    "ColAssoc": ("progassoc", "Column_associative"),
}


@register_experiment("ext-hpc")
def run_ext_hpc(config: PaperConfig) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ext-hpc",
        title="% miss reduction vs DM on HPC kernels (the paper's announced next suite)",
        columns=list(_COLUMNS),
    )
    add_reduction_rows(result, HPC_ORDER, _COLUMNS, config)
    result.note("stream/transpose/jacobi: the power-of-2 pathologies hashing fixes")
    result.note("histogram/spmv: random scatter — placement-insensitive controls")
    return result


from .warm import profile_spec, provides_traces, workload_spec  # noqa: E402


@provides_traces("ext-hpc")
def ext_hpc_traces(config: PaperConfig):
    return [workload_spec(b, config) for b in HPC_ORDER] + [
        profile_spec(b, config) for b in HPC_ORDER
    ]
