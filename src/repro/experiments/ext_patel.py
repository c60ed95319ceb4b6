"""Extension experiment: Patel's application-specific index search.

The paper describes Patel et al.'s optimal reconfigurable indexing
(Section II.F) but excludes it from the evaluation "because of the
intractability of the computations".  Our bounded search (greedy forward
selection + budgeted local search over the exact conflict-cost objective,
see :mod:`repro.core.indexing.patel`) makes a scaled-down evaluation
possible: this experiment compares Patel-selected indexes against the
conventional, XOR and Givargis indexes on a reduced geometry where the
search is cheap, plus the paper geometry with a small budget.

Shape expectation: Patel ≥ Givargis ≥/≈ conventional on the training input
(it directly minimises the evaluated objective), with the usual
profile-transfer caveats on a different input.
"""

from __future__ import annotations

from .config import PaperConfig
from .report import ExperimentResult
from .runner import add_reduction_rows, register_experiment

__all__ = ["run_ext_patel"]

#: A subset of benchmarks keeps the search affordable.
PATEL_BENCHES = ["fft", "crc", "patricia", "dijkstra"]

#: Column → engine cell ``(kind, label)``.  ``Patel_train`` is fitted on the
#: evaluation trace itself (the upper bound the original authors target),
#: ``Patel_transfer`` on the profiling input (deployment reality).
_COLUMNS = {
    "XOR": ("indexing", "XOR"),
    "Givargis": ("indexing", "Givargis"),
    "Patel_train": ("indexing", "Patel_train"),
    "Patel_transfer": ("indexing", "Patel_transfer"),
}


@register_experiment("ext-patel")
def run_ext_patel(config: PaperConfig) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ext-patel",
        title="% miss reduction vs conventional: Patel bounded search",
        columns=list(_COLUMNS),
    )
    add_reduction_rows(result, PATEL_BENCHES, _COLUMNS, config)
    result.note("Patel_train minimises the exact objective it is scored on")
    result.note("the paper skipped Patel as intractable; this is the bounded variant")
    return result


from .warm import profile_spec, provides_traces, workload_spec  # noqa: E402


@provides_traces("ext-patel")
def ext_patel_traces(config: PaperConfig):
    return [workload_spec(b, config) for b in PATEL_BENCHES] + [
        profile_spec(b, config) for b in PATEL_BENCHES
    ]
