"""Fan-out executor: run a list of cells, memoized and optionally parallel.

``run_cells`` is the one way to run an experiment grid: every figure
runner hands it the declared cell list and

1. pre-warms the on-disk trace cache *in parallel* through
   :func:`repro.experiments.warm.warm_traces` — every missing workload and
   profiling trace is generated concurrently on the same worker budget, and
   content fingerprints are computed inside the workers; the parent never
   loads a trace, and cell workers are handed trace-file *paths*
   (mapped locally through the process-wide trace arena), never pickled
   address arrays;
2. answers as many cells as possible from the content-addressed
   :class:`~repro.experiments.engine.cache.ResultCache`;
3. runs every remaining cell inside exactly one unit — its planned
   :class:`~repro.experiments.engine.families.SweepFamily`, restricted to
   the members still pending — through
   :func:`~repro.experiments.engine.families.execute_family`, either
   in-process (``jobs=1`` or a single unit, the deterministic sequential
   fallback) or on the process-wide
   :class:`~repro.experiments.engine.pool.EnginePool` of ``jobs`` workers
   (``jobs>1``; ``jobs=0`` means ``os.cpu_count()``), built on the first
   run that needs it and reused by every later run and trace warm-up in
   the process; both cases settle units through the same loop; then
4. returns ``{(workload, label): SimulationResult}`` **in declared cell
   order** plus an :class:`EngineStats` with cache-hit/miss counters and
   per-cell wall times.

When ``run_cells`` builds the result store itself (no ``result_cache``
argument), it flushes and closes it before returning, so a write-behind
shared tier holds every entry of the run and no publisher thread outlives
it.

Because every cell is a pure function of its spec and aggregation order is
fixed by the caller's declaration order, parallel runs are bit-identical to
sequential ones — a property locked down by
``tests/experiments/test_parallel_engine.py``.

A failing cell is re-raised in the parent as
:class:`~repro.experiments.engine.cells.CellExecutionError` naming the
failing (workload, scheme) cell, with the original message chained; the
members that completed before it keep their result-cache entries.

Serving-layer hooks
-------------------
The warm-and-key step is factored out as :func:`plan_cells` (returning a
:class:`CellPlan`), which is **the** key-derivation path: the
:mod:`repro.service` request normalizer calls the same function, so a
service request and an in-process run can never derive different
result-cache keys (audited by ``tests/service/test_key_parity.py``).

Two :mod:`contextvars` scopes let a long-lived host embed the engine
without touching the figure runners:

* :func:`progress_scope` — a per-context progress callback invoked after
  every cell settles (cache hits and fresh simulations alike), so a server
  can stream cell completions while ``run_experiment`` is still working;
* :func:`engine_pool_scope` — a per-context executor that ``run_cells``
  submits its ``execute_family`` units, and ``warm_traces`` its trace
  generations, to *instead of* the engine's own pool (the job server
  injects its scheduler's pool).

Per-cell timeouts
-----------------
``cell_timeout`` (``config.cell_timeout`` / ``--cell-timeout``) bounds how
long the engine waits for a unit: ``cell_timeout`` times its member
count.  On the pool path a unit that exceeds the budget fails *with
attribution* (a :class:`CellExecutionError` naming its first cell) instead
of blocking the whole run forever; remaining futures are cancelled and the
engine's own pool is discarded without joining the hung worker (the next
run builds a new one).  A worker that dies fails the run naming the cell,
and the next run gets a new pool.  The in-process path cannot preempt a
running unit, so there the budget is checked once the unit returns (the
run still fails with the same message, and the late unit stores nothing).
"""

from __future__ import annotations

import os
import time
from collections import Counter
from concurrent.futures import CancelledError as FutureCancelledError
from concurrent.futures import Executor, Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from ...core.result import SimulationResult
from ..config import PaperConfig
from .cache import cell_key
from .cells import CellExecutionError, SimCell
from .families import SweepFamily, detect_families, execute_family
from .pool import EnginePool, engine_pool
from .store import ResultStore, make_store

__all__ = [
    "CellPlan",
    "EngineStats",
    "effective_jobs",
    "engine_pool_scope",
    "injected_executor",
    "plan_cells",
    "progress_scope",
    "run_cells",
]


def effective_jobs(jobs: int | None) -> int:
    """Resolve a ``--jobs`` value: ``None``/``0``/negative → all cores."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


# -- embedding hooks (used by repro.service) ---------------------------------------

#: Progress callback ``(cell_name, done, total, cached)`` invoked in the
#: parent after every cell settles.  ContextVar so concurrent experiment
#: runs in one process (e.g. server threads) never see each other's hook.
_PROGRESS_HOOK: ContextVar[Callable[[str, int, int, bool], None] | None] = ContextVar(
    "repro_engine_progress_hook", default=None
)

#: Executor override: when set, ``run_cells`` submits pending cells here
#: instead of to the engine's own pool.
_POOL_OVERRIDE: ContextVar[Executor | None] = ContextVar(
    "repro_engine_pool_override", default=None
)


@contextmanager
def progress_scope(hook: Callable[[str, int, int, bool], None]):
    """Invoke ``hook(cell_name, done, total, cached)`` after each cell."""
    token = _PROGRESS_HOOK.set(hook)
    try:
        yield
    finally:
        _PROGRESS_HOOK.reset(token)


@contextmanager
def engine_pool_scope(executor: Executor):
    """Route every ``run_cells`` in this context onto ``executor``.

    The engine never shuts the injected executor down — ownership stays
    with the caller (the serving layer keeps one warm pool for its whole
    lifetime).  Works with any :class:`concurrent.futures.Executor`.
    """
    token = _POOL_OVERRIDE.set(executor)
    try:
        yield
    finally:
        _POOL_OVERRIDE.reset(token)


def injected_executor() -> Executor | None:
    """The executor :func:`engine_pool_scope` set in this context, if any."""
    return _POOL_OVERRIDE.get()


# -- stats -------------------------------------------------------------------------


@dataclass
class EngineStats:
    """Counters for one engine invocation (exposed on ``ExperimentResult``)."""

    jobs: int = 1
    cells_total: int = 0
    cache_hits: int = 0
    #: Cells actually simulated this run (== cache misses).
    cache_misses: int = 0
    wall_seconds: float = 0.0
    #: Multi-member sweep families executed this run (see
    #: :mod:`repro.experiments.engine.families`).
    families_batched: int = 0
    #: Cells answered through those batched families.
    cells_batched: int = 0
    #: Per-cell simulation wall time, keyed ``"workload/label"``.
    cell_seconds: dict[str, float] = field(default_factory=dict)
    #: Simulated cells by :func:`~repro.core.dispatch.dispatch` path
    #: (cells that do not go through it carry none).
    paths: Counter = field(default_factory=Counter)

    @property
    def simulated(self) -> int:
        return self.cache_misses

    def merge(self, other: "EngineStats") -> "EngineStats":
        """Accumulate another invocation (figures sharing one grid)."""
        self.cells_total += other.cells_total
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.wall_seconds += other.wall_seconds
        self.families_batched += other.families_batched
        self.cells_batched += other.cells_batched
        self.cell_seconds.update(other.cell_seconds)
        self.paths.update(other.paths)
        return self

    def as_dict(self) -> dict[str, Any]:
        return {
            "jobs": self.jobs,
            "cells_total": self.cells_total,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "wall_seconds": round(self.wall_seconds, 6),
            "families_batched": self.families_batched,
            "cells_batched": self.cells_batched,
            "cell_seconds": {k: round(v, 6) for k, v in self.cell_seconds.items()},
            "paths": dict(sorted(self.paths.items())),
        }

    def summary(self) -> str:
        batched = (
            f", {self.cells_batched} batched into {self.families_batched} families"
            if self.families_batched
            else ""
        )
        return (
            f"{self.cells_total} cells: {self.cache_hits} cached, "
            f"{self.cache_misses} simulated{batched}, jobs={self.jobs}, "
            f"{self.wall_seconds:.2f}s"
        )


# -- planning (warm + key derivation, shared with repro.service) -------------------


@dataclass(frozen=True)
class CellPlan:
    """Everything ``run_cells`` (or the service) needs after trace warm-up.

    ``keys`` is the *only* result-cache key derivation in the codebase:
    both the in-process engine and the job server's request normalizer go
    through :func:`plan_cells`, so their keys are byte-identical by
    construction (and audited by test).
    """

    cells: tuple[SimCell, ...]
    #: Content-addressed result-cache key per cell.
    keys: dict[SimCell, str]
    #: Npz path of each workload's (pre-warmed) evaluation trace.
    trace_paths: dict[str, Path]
    #: Npz path of each profiling trace (trainable-scheme cells only).
    profile_paths: dict[str, Path]
    #: Content fingerprints backing the keys (diagnostics / parity tests).
    trace_fingerprints: dict[str, str]
    profile_fingerprints: dict[str, str]
    #: Sweep-family partition of ``cells`` (see
    #: :func:`~repro.experiments.engine.families.detect_families`) — an
    #: execution plan only; keys above are per-cell and batching-invariant.
    families: tuple[SweepFamily, ...] = ()


def _warm_and_fingerprint(
    cells: Sequence[SimCell], config: PaperConfig, jobs: int
) -> tuple[dict[str, str], dict[str, str], dict[str, Any], dict[str, Any]]:
    """Materialise every needed trace concurrently and fingerprint it.

    The needed-trace set (:func:`repro.experiments.warm.cell_specs`:
    evaluation traces, derived ones included, plus profiling runs for
    trainable-scheme cells) is warmed through
    :func:`repro.experiments.warm.warm_traces` on the engine's worker
    budget; fingerprints are computed in the workers, so the parent's cost
    is independent of trace length.  Workers later receive the on-disk
    trace *paths* (a few bytes each) rather than pickled address arrays.
    """
    from ..warm import TraceWarmError, cell_specs, warm_traces

    eval_specs, prof_specs = cell_specs(cells, config)
    try:
        entries = warm_traces(
            list(eval_specs.values()) + list(prof_specs.values()),
            config,
            jobs=jobs,
            fingerprints=True,
        )
    except TraceWarmError as exc:
        owner = next((c for c in cells if c.workload == exc.spec.name), None)
        where = (
            f"experiment cell ({owner.workload}, {owner.label})"
            if owner is not None
            else f"workload {exc.spec.name!r}"
        )
        raise CellExecutionError(
            f"{where} failed during trace prefetch: {exc.__cause__}"
        ) from exc
    trace_fp = {w: entries[s].fingerprint for w, s in eval_specs.items()}
    trace_paths: dict[str, Any] = {w: entries[s].path for w, s in eval_specs.items()}
    profile_fp = {w: entries[s].fingerprint for w, s in prof_specs.items()}
    profile_paths: dict[str, Any] = {
        w: entries[s].path for w, s in prof_specs.items()
    }
    return trace_fp, profile_fp, trace_paths, profile_paths


def plan_cells(
    cells: Iterable[SimCell], config: PaperConfig, jobs: int | None = None
) -> CellPlan:
    """Warm every trace the cells need and derive their result-cache keys.

    This is the single shared front half of cell execution: ``run_cells``
    calls it before scheduling, and :mod:`repro.service` calls it to
    normalize network requests to the exact keys the in-process path uses.
    """
    cells = tuple(cells)
    jobs = effective_jobs(config.jobs if jobs is None else jobs)
    trace_fp, profile_fp, trace_paths, profile_paths = _warm_and_fingerprint(
        cells, config, jobs
    )
    keys = {
        cell: cell_key(
            cell.kind,
            cell.label,
            cell.params,
            config.geometry,
            trace_fp[cell.workload],
            profile_fp.get(cell.workload) if cell.needs_profile else None,
            ways=cell.ways,
            policy=cell.policy,
        )
        for cell in cells
    }
    return CellPlan(
        cells=cells,
        keys=keys,
        trace_paths={w: Path(p) for w, p in trace_paths.items()},
        profile_paths={w: Path(p) for w, p in profile_paths.items()},
        trace_fingerprints=trace_fp,
        profile_fingerprints=profile_fp,
        families=detect_families(cells, config),
    )


# -- execution ---------------------------------------------------------------------


def run_cells(
    cells: Iterable[SimCell],
    config: PaperConfig,
    jobs: int | None = None,
    result_cache: ResultStore | None = None,
    cell_timeout: float | None = None,
) -> tuple[dict[tuple[str, str], SimulationResult], EngineStats]:
    """Execute a cell grid; see the module docstring for the contract."""
    owns_store = False
    if result_cache is None and config.use_result_cache:
        result_cache = make_store(config)
        owns_store = True
    try:
        return _run_cells(cells, config, jobs, result_cache, cell_timeout)
    finally:
        if owns_store and result_cache is not None:
            # A run-owned write-behind store must be durable before we
            # return — even on a failed run, so the members that completed
            # before the failure reach the shared tier (a long-lived host
            # owns its store's lifecycle itself).
            result_cache.flush()
            result_cache.close()


def _run_cells(
    cells: Iterable[SimCell],
    config: PaperConfig,
    jobs: int | None,
    result_cache: ResultStore | None,
    cell_timeout: float | None,
) -> tuple[dict[tuple[str, str], SimulationResult], EngineStats]:
    cells = list(cells)
    jobs = effective_jobs(config.jobs if jobs is None else jobs)
    if cell_timeout is None:
        cell_timeout = config.cell_timeout
    t_start = time.perf_counter()
    stats = EngineStats(jobs=jobs, cells_total=len(cells))
    progress = _PROGRESS_HOOK.get()
    done = 0

    def _notify(cell: SimCell, cached: bool) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(cell.name, done, len(cells), cached)

    plan = plan_cells(cells, config, jobs)
    keys = plan.keys
    trace_paths = plan.trace_paths
    profile_paths = plan.profile_paths

    results: dict[tuple[str, str], SimulationResult] = {}
    pending: list[SimCell] = []
    for cell in cells:
        cached = result_cache.load(keys[cell]) if result_cache is not None else None
        if cached is not None:
            results[(cell.workload, cell.label)] = cached
            stats.cache_hits += 1
            _notify(cell, cached=True)
        else:
            pending.append(cell)

    # Every pending cell runs in exactly one unit: its planned family,
    # restricted to the members still pending (cache hits drop out
    # member by member); a remainder of one member runs alone.
    pend = set(pending)
    units: list[SweepFamily] = []
    for family in plan.families:
        members = tuple(c for c in family.members if c in pend)
        if len(members) >= 2:
            units.append(replace(family, members=members))
        elif members:
            units.append(SweepFamily("single", family.workload, members))

    pool = injected_executor()
    in_process = pool is None and (jobs <= 1 or len(units) <= 1)
    if not in_process and pool is None:
        pool = engine_pool(jobs)
    computed: dict[SimCell, tuple[SimulationResult, float]] = {}
    futures: dict[SweepFamily, Future] = {}

    def _args(unit: SweepFamily) -> tuple:
        return (
            unit,
            config,
            trace_paths.get(unit.workload),
            profile_paths.get(unit.workload),
        )

    try:
        if not in_process:
            try:
                for unit in units:
                    futures[unit] = pool.submit(execute_family, *_args(unit))
            except BrokenProcessPool as exc:
                # A worker died under a unit already submitted: collecting
                # that unit's future below names it, and this stand-in names
                # the unit that could not be sent if none does.
                futures[unit] = Future()
                futures[unit].set_exception(exc)
        for unit in units:
            first = unit.members[0]
            where = f"experiment cell ({first.workload}, {first.label})"
            # One unit does the work of len(members) cells.
            budget = None if cell_timeout is None else cell_timeout * len(unit.members)
            try:
                if in_process:
                    # A running unit cannot be preempted here: the budget is
                    # checked once it returns, so the run still fails with
                    # attribution.
                    t0 = time.perf_counter()
                    completed, failure = execute_family(*_args(unit))
                    if budget is not None and time.perf_counter() - t0 > budget:
                        raise FutureTimeoutError
                else:
                    completed, failure = futures[unit].result(timeout=budget)
            except FutureTimeoutError:
                # Abandon the engine's pool without joining the hung worker
                # (joining would re-introduce the indefinite block the
                # timeout exists to prevent).
                if isinstance(pool, EnginePool):
                    pool.discard()
                raise CellExecutionError(
                    f"{where} exceeded the per-cell timeout ({budget:g}s)"
                ) from None
            except FutureCancelledError:
                raise CellExecutionError(f"{where} was cancelled") from None
            except Exception as exc:
                raise CellExecutionError(f"{where} failed in worker: {exc}") from exc
            # Members are stored as they settle, so a failure later in the
            # run (or in this unit) leaves every completed entry valid.
            for member, member_result, member_seconds in completed:
                computed[member] = (member_result, member_seconds)
                if result_cache is not None:
                    result_cache.store(keys[member], member_result)
                _notify(member, cached=False)
            if failure is not None:
                workload, label, message = failure
                # The worker ships the failure as a string (arbitrary
                # exception types must not need cross-process pickling);
                # re-hydrate a cause so ``__cause__`` carries the message.
                raise CellExecutionError(
                    f"experiment cell ({workload}, {label}) failed: {message}"
                ) from RuntimeError(message)
            if len(unit.members) >= 2:
                stats.families_batched += 1
                stats.cells_batched += len(unit.members)
    finally:
        # A failed run leaves no work of its own queued on a pool that
        # outlives it (a no-op on settled futures).
        for future in futures.values():
            future.cancel()

    for cell in pending:
        result, seconds = computed[cell]
        results[(cell.workload, cell.label)] = result
        stats.cache_misses += 1
        stats.cell_seconds[cell.name] = seconds
        if result.path:
            stats.paths[result.path] += 1

    # Deterministic aggregation order: the caller's declaration order, not
    # completion order.
    ordered = {
        (cell.workload, cell.label): results[(cell.workload, cell.label)]
        for cell in cells
    }
    stats.wall_seconds = time.perf_counter() - t_start
    return ordered, stats

