"""Experiment registry and shared plumbing.

Each figure module registers a runner ``(PaperConfig) -> ExperimentResult``
under its id ("fig1" ... "fig14").  This module adds the pieces they share:
cached workload traces, the Figure-6 cache-model line-up, and the engine
run behind every "% miss reduction vs direct-mapped" table.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Callable

from ..core.caches import (
    AdaptiveGroupAssociativeCache,
    BalancedCache,
    ColumnAssociativeCache,
)
from ..core.uniformity import percent_reduction
from ..trace.event import Trace
from ..trace.io import TraceCache
from ..workloads import get_workload
from .config import PaperConfig
from .engine import ExperimentEngine, make_cell
from .report import ExperimentResult

__all__ = [
    "register_experiment",
    "run_experiment",
    "available_experiments",
    "EXPERIMENT_REGISTRY",
    "workload_trace",
    "workload_trace_path",
    "profile_trace_path",
    "progassoc_lineup",
    "add_reduction_rows",
]

EXPERIMENT_REGISTRY: dict[str, Callable[[PaperConfig], ExperimentResult]] = {}


def register_experiment(experiment_id: str):
    """Decorator: register ``runner`` under ``experiment_id``."""

    def decorator(fn: Callable[[PaperConfig], ExperimentResult]):
        if experiment_id in EXPERIMENT_REGISTRY:
            raise ValueError(f"duplicate experiment id {experiment_id!r}")
        EXPERIMENT_REGISTRY[experiment_id] = fn
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
    cache = TraceCache(config.trace_cache_dir)
    seed = config.seed if seed is None else seed
    key = TraceCache.key_for(
        name, seed=seed, limit=config.ref_limit, scale=config.workload_scale
    )
    trace = cache.get_or_create(
        key,
        lambda: get_workload(name).generate(
            seed=seed, ref_limit=config.ref_limit, scale=config.workload_scale
        ),
    )
    return trace.with_name(name)


def profile_trace(name: str, config: PaperConfig) -> Trace:
    """The off-line profiling run used to fit trainable schemes (Figure-5
    flow): same workload, a different input seed."""
    if config.profile_seed_offset == 0:
        return workload_trace(name, config)
    return workload_trace(name, config, seed=config.seed + config.profile_seed_offset)


def workload_trace_path(
    name: str, config: PaperConfig, seed: int | None = None
) -> Path:
    """On-disk path of the cached workload trace, materialising it if absent.

    The parallel engine hands this path to pool workers instead of pickling
    the full address arrays per cell; workers re-open the file read-only
    through the process-wide trace arena (bit-identical by construction —
    ``workload_trace`` itself returns a load of the same file on every
    warm call).  New entries are written in the raw mmap-able format
    (``.rtr``); a legacy ``.npz`` entry migrates transparently inside
    ``get_or_create``.

    Always warms through :func:`workload_trace` rather than a bare
    existence check: ``TraceCache.get_or_create`` validates the entry and
    regenerates corrupted/truncated files, so the returned path is
    guaranteed loadable.
    """
    seed = config.seed if seed is None else seed
    cache = TraceCache(config.trace_cache_dir)
    key = TraceCache.key_for(
        name, seed=seed, limit=config.ref_limit, scale=config.workload_scale
    )
    workload_trace(name, config, seed=seed)
    return cache.path_for(key)


def profile_trace_path(name: str, config: PaperConfig) -> Path:
    """On-disk path of the cached profiling trace (see :func:`profile_trace`)."""
    if config.profile_seed_offset == 0:
        return workload_trace_path(name, config)
    return workload_trace_path(name, config, seed=config.seed + config.profile_seed_offset)


def progassoc_lineup(config: PaperConfig) -> dict[str, Callable[[], object]]:
    """Factories for the paper's Figure-6 cache line-up (fresh per trace)."""
    g = config.geometry
    return {
        "Adaptive_Cache": lambda: AdaptiveGroupAssociativeCache(
            g, sht_fraction=config.sht_fraction, out_fraction=config.out_fraction
        ),
        "B_Cache": lambda: BalancedCache(
            g, mapping_factor=config.bcache_mapping_factor, bas=config.bcache_bas
        ),
        "Column_associative": lambda: ColumnAssociativeCache(
            g, protect_conventional=config.protect_conventional
        ),
    }


def add_reduction_rows(
    result: ExperimentResult,
    benches: list[str],
    columns: dict[str, tuple[str, str]],
    config: PaperConfig,
) -> None:
    """Fill ``result`` with % miss reduction vs the direct-mapped baseline.

    ``columns`` maps each column name to the ``(kind, label)`` of the engine
    cell that produces it.  Every (bench, column) pair and each bench's
    ``baseline`` cell run in one engine call, so they share the result
    store, the fast paths and ``--jobs``.  Appends the Average row and sets
    ``result.engine_stats``.
    """
    cells = []
    for bench in benches:
        cells.append(make_cell("baseline", bench, "baseline", config))
        cells.extend(make_cell(kind, bench, label, config) for kind, label in columns.values())
    sims, stats = ExperimentEngine(config).run(cells)
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
