"""Experiment registry and shared plumbing.

Each figure module registers a runner ``(PaperConfig) -> ExperimentResult``
under its id ("fig1" ... "fig14"), together with the declaration of the cell
grid it runs, ``(PaperConfig) -> list[SimCell]``.  The declaration is the one
statement of what an experiment needs: the runner hands it to ``run_cells``,
and :func:`~repro.experiments.warm.specs_for` derives the trace-prefetch
plan from it.  This module adds the pieces the runners share: cached
workload traces and the engine run behind every "% miss reduction vs
direct-mapped" table.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Callable

from ..core.uniformity import percent_reduction
from ..trace.event import Trace
from ..trace.io import TraceCache
from .config import PaperConfig
from .engine import SimCell, make_cell, run_cells
from .report import ExperimentResult
from .warm import TraceSpec, load_spec, profile_spec, workload_spec

__all__ = [
    "register_experiment",
    "run_experiment",
    "available_experiments",
    "EXPERIMENT_REGISTRY",
    "EXPERIMENT_CELLS",
    "workload_trace",
    "workload_trace_path",
    "profile_trace_path",
    "add_reduction_rows",
    "reduction_cells",
]

EXPERIMENT_REGISTRY: dict[str, Callable[[PaperConfig], ExperimentResult]] = {}

#: Each experiment's cell declaration, by id: the grid its runner executes.
EXPERIMENT_CELLS: dict[str, Callable[[PaperConfig], list[SimCell]]] = {}


def register_experiment(
    experiment_id: str, *, cells: Callable[[PaperConfig], list[SimCell]]
):
    """Decorator: register ``runner`` under ``experiment_id``, with the
    declaration of the cells it runs (a figure drawn from another figure's
    grid declares that grid)."""

    def decorator(fn: Callable[[PaperConfig], ExperimentResult]):
        if experiment_id in EXPERIMENT_REGISTRY:
            raise ValueError(f"duplicate experiment id {experiment_id!r}")
        EXPERIMENT_REGISTRY[experiment_id] = fn
        EXPERIMENT_CELLS[experiment_id] = cells
        return fn

    return decorator


def run_experiment(
    experiment_id: str,
    config: PaperConfig | None = None,
    *,
    jobs: int | None = None,
) -> ExperimentResult:
    """Run one registered experiment.

    ``jobs`` overrides ``config.jobs`` for the parallel engine (``1`` =
    sequential fallback, ``0`` = all cores); results are bit-identical
    either way.
    """
    config = config or PaperConfig()
    if jobs is not None:
        config = replace(config, jobs=jobs)
    try:
        fn = EXPERIMENT_REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENT_REGISTRY)}"
        ) from None
    return fn(config)


def available_experiments() -> list[str]:
    def key(eid: str) -> tuple:
        digits = "".join(ch for ch in eid if ch.isdigit())
        return (int(digits) if digits else 0, eid)

    return sorted(EXPERIMENT_REGISTRY, key=key)


# -- shared plumbing ---------------------------------------------------------------


def workload_trace(
    name: str, config: PaperConfig, thread: int = 0, seed: int | None = None
) -> Trace:
    """Workload trace via the on-disk cache (keyed by all generation knobs)."""
    return load_spec(workload_spec(name, config, seed), config).with_name(name)


def profile_trace(name: str, config: PaperConfig) -> Trace:
    """The off-line profiling run used to fit trainable schemes (Figure-5
    flow): same workload, a different input seed."""
    return load_spec(profile_spec(name, config), config).with_name(name)


def _cached_path(spec: TraceSpec, config: PaperConfig) -> Path:
    """On-disk path of the spec's cache entry, materialised if absent.

    The parallel engine hands this path to pool workers instead of pickling
    the full address arrays per cell; workers re-open the file read-only
    through the process-wide trace arena (bit-identical by construction:
    ``load_spec`` itself returns a load of the same file on every warm
    call).  New entries are written in the raw mmap-able format (``.rtr``);
    a legacy ``.npz`` entry migrates transparently inside ``get_or_create``.

    Always warms through :func:`~repro.experiments.warm.load_spec` rather
    than a bare existence check: ``TraceCache.get_or_create`` validates the
    entry and regenerates corrupted/truncated files, so the returned path
    is guaranteed loadable.
    """
    load_spec(spec, config)
    return TraceCache(config.trace_cache_dir).path_for(spec.cache_key())


def workload_trace_path(
    name: str, config: PaperConfig, seed: int | None = None
) -> Path:
    """On-disk path of the cached workload trace (see :func:`_cached_path`)."""
    return _cached_path(workload_spec(name, config, seed), config)


def profile_trace_path(name: str, config: PaperConfig) -> Path:
    """On-disk path of the cached profiling trace (see :func:`profile_trace`)."""
    return _cached_path(profile_spec(name, config), config)


def reduction_cells(
    benches: list[str], columns: dict[str, tuple[str, str]], config: PaperConfig
) -> list[SimCell]:
    """The grid of a "% miss reduction vs direct-mapped" table: each bench's
    ``baseline`` cell, then one cell per column.

    ``columns`` maps each column name to the ``(kind, label)`` of the engine
    cell that produces it.
    """
    cells = []
    for bench in benches:
        cells.append(make_cell("baseline", bench, "baseline", config))
        cells.extend(make_cell(kind, bench, label, config) for kind, label in columns.values())
    return cells


def add_reduction_rows(
    result: ExperimentResult,
    benches: list[str],
    columns: dict[str, tuple[str, str]],
    config: PaperConfig,
) -> None:
    """Fill ``result`` with % miss reduction vs the direct-mapped baseline.

    The :func:`reduction_cells` grid runs in one engine call, so its cells
    share the result store, the fast paths and ``--jobs``.  Appends the
    Average row and sets ``result.engine_stats``.
    """
    sims, stats = run_cells(reduction_cells(benches, columns, config), config)
    for bench in benches:
        base = sims[(bench, "baseline")]
        result.add_row(
            bench,
            {
                column: percent_reduction(sims[(bench, label)].misses, base.misses)
                for column, (_, label) in columns.items()
            },
        )
    result.add_average_row()
    result.engine_stats = stats.as_dict()
