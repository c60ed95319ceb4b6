"""Parallel experiment execution engine.

Every paper figure is, at heart, a grid of independent *cells* — one
(workload trace, indexing scheme / cache model) simulation per bar of the
figure.  This subpackage decomposes those grids into
:class:`~repro.experiments.engine.cells.SimCell` specs, fans the missing
cells out over the process-wide worker pool of :mod:`.pool` (``jobs=1``
is a deterministic in-process fallback) and memoizes every per-cell
:class:`~repro.core.simulator.SimulationResult` in a content-addressed
on-disk :class:`~repro.experiments.engine.cache.ResultCache` keyed by
(trace fingerprint, geometry, scheme parameters, engine version).

Parallel results are bit-identical to sequential ones: each cell is a pure
function of its spec, and aggregation always happens in the declared cell
order regardless of completion order.  The differential harness
(``tests/core/test_differential.py``) and
``tests/experiments/test_parallel_engine.py`` enforce both properties.
"""

from .cache import ENGINE_VERSION, ResultCache, cell_key, trace_fingerprint
from .store import LocalDirStore, ResultStore, SharedDirStore, make_store
from .cells import (
    CELL_KINDS,
    CellExecutionError,
    CellKind,
    SimCell,
    execute_cell,
    make_cell,
)
from .families import SweepFamily, detect_families, execute_family
from .parallel import (
    CellPlan,
    EngineStats,
    ExperimentEngine,
    effective_jobs,
    engine_pool_scope,
    plan_cells,
    progress_scope,
    run_cells,
)

__all__ = [
    "ENGINE_VERSION",
    "ResultCache",
    "ResultStore",
    "LocalDirStore",
    "SharedDirStore",
    "make_store",
    "cell_key",
    "trace_fingerprint",
    "SimCell",
    "CellKind",
    "CELL_KINDS",
    "SweepFamily",
    "make_cell",
    "execute_cell",
    "execute_family",
    "detect_families",
    "CellExecutionError",
    "CellPlan",
    "ExperimentEngine",
    "EngineStats",
    "effective_jobs",
    "engine_pool_scope",
    "plan_cells",
    "progress_scope",
    "run_cells",
]
