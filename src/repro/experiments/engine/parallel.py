"""Fan-out executor: run a list of cells, memoized and optionally parallel.

``run_cells`` (or the thin :class:`ExperimentEngine` wrapper the figure
runners use) takes the declared cell list of one experiment grid and

1. pre-warms the on-disk trace cache *in parallel* through
   :func:`repro.experiments.warm.warm_traces` — every missing workload and
   profiling trace is generated concurrently on the same worker budget, and
   content fingerprints are computed inside the workers; the parent never
   loads a trace, and cell workers are handed trace-file *paths*
   (mapped locally through the process-wide trace arena), never pickled
   address arrays;
2. answers as many cells as possible from the content-addressed
   :class:`~repro.experiments.engine.cache.ResultCache`;
3. executes the remaining cells either in-process (``jobs=1``, the
   deterministic sequential fallback) or on the process-wide
   :class:`~repro.experiments.engine.pool.EnginePool` of ``jobs`` workers
   (``jobs>1``; ``jobs=0`` means ``os.cpu_count()``), built on the first
   run that needs it and reused by every later run and trace warm-up in
   the process; then
4. returns ``{(workload, label): SimulationResult}`` **in declared cell
   order** plus an :class:`EngineStats` with cache-hit/miss counters and
   per-cell wall times.

Because every cell is a pure function of its spec and aggregation order is
fixed by the caller's declaration order, parallel runs are bit-identical to
sequential ones — a property locked down by
``tests/experiments/test_parallel_engine.py``.

Worker failures are re-raised in the parent as
:class:`~repro.experiments.engine.cells.CellExecutionError` naming the
failing (workload, scheme) cell, with the original exception chained.

Serving-layer hooks
-------------------
The warm-and-key step is factored out as :func:`plan_cells` (returning a
:class:`CellPlan`), which is **the** key-derivation path: the
:mod:`repro.service` request normalizer calls the same function, so a
service request and an in-process run can never derive different
result-cache keys (audited by ``tests/service/test_key_parity.py``).

Two :mod:`contextvars` scopes let a long-lived host embed the engine
without touching the figure runners (which construct their own
:class:`ExperimentEngine`):

* :func:`progress_scope` — a per-context progress callback invoked after
  every cell settles (cache hits and fresh simulations alike), so a server
  can stream cell completions while ``run_experiment`` is still working;
* :func:`engine_pool_scope` — a per-context executor that ``run_cells``
  submits pending cells to *instead of* the engine's own pool (the job
  server injects its scheduler's pool; the router, its ring).

Per-cell timeouts
-----------------
``cell_timeout`` (``config.cell_timeout`` / ``--cell-timeout``) bounds how
long the engine waits for any single cell.  On the pool path a cell that
exceeds the budget fails *with attribution* (a :class:`CellExecutionError`
naming the cell) instead of blocking the whole run forever; remaining
futures are cancelled and the engine's own pool is discarded without
joining the hung worker (the next run builds a new one).  A worker that
dies fails the run naming the cell, and the next run gets a new pool.
The ``jobs=1`` in-process path cannot preempt a running cell, so there
the timeout is enforced post-hoc (the run still fails, naming the
offending cell, as soon as the cell returns).
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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from ...core.simulator import SimulationResult
from ..config import PaperConfig
from .cache import cell_key
from .cells import CellExecutionError, SimCell, timed_execute_cell
from .families import SweepFamily, detect_families, execute_family
from .pool import EnginePool, engine_pool
from .store import ResultStore, make_store

__all__ = [
    "CellPlan",
    "EngineStats",
    "ExperimentEngine",
    "effective_jobs",
    "engine_pool_scope",
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

    The needed-trace set (evaluation traces — derived ones resolved by
    :func:`repro.experiments.warm.trace_spec` — plus profiling runs for
    trainable-scheme cells) is warmed through
    :func:`repro.experiments.warm.warm_traces` on the engine's worker
    budget; fingerprints are computed in the workers, so the parent's cost
    is independent of trace length.  Workers later receive the on-disk
    trace *paths* (a few bytes each) rather than pickled address arrays.
    """
    from ..warm import TraceWarmError, profile_spec, trace_spec, warm_traces

    eval_specs = {}
    prof_specs = {}
    for cell in cells:
        if cell.workload not in eval_specs:
            eval_specs[cell.workload] = trace_spec(cell.workload, config)
        if cell.needs_profile and cell.workload not in prof_specs:
            prof_specs[cell.workload] = profile_spec(cell.workload, config)
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
            # return — even on a failed run, so completed members persisted
            # by ``_store_partial`` reach the shared tier (a long-lived
            # host owns its store's lifecycle itself).
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

    pool = _POOL_OVERRIDE.get()
    computed: dict[SimCell, tuple[SimulationResult, float]] = {}

    def _store_partial() -> None:
        # Persist what already finished before surfacing a family failure:
        # a mid-batch failure must leave completed members' cache entries
        # valid, not poison the whole family.
        if result_cache is not None:
            for done_cell, (done_result, _seconds) in computed.items():
                result_cache.store(keys[done_cell], done_result)

    def _settle_family(family: SweepFamily, family_completed, family_failure) -> None:
        for member, member_result, member_seconds in family_completed:
            computed[member] = (member_result, member_seconds)
            _notify(member, cached=False)
        if family_failure is not None:
            workload, label, message = family_failure
            _store_partial()
            # The worker ships the failure as a string (arbitrary exception
            # types must not need cross-process pickling); re-hydrate a
            # cause so ``__cause__`` always carries the original message.
            raise CellExecutionError(
                f"experiment cell ({workload}, {label}) failed: {message}"
            ) from RuntimeError(message)
        stats.families_batched += 1
        stats.cells_batched += len(family.members)

    if pending:
        # Restrict the planned family partition to the cells still pending
        # (cache hits drop out member-by-member); families reduced to one
        # member fall back to the ordinary per-cell path.
        pend = set(pending)
        units: list[SweepFamily] = []
        loose: list[SimCell] = []
        for family in plan.families:
            members = tuple(c for c in family.members if c in pend)
            if len(members) >= 2:
                units.append(
                    SweepFamily(family.axis, family.workload, members, family.signature)
                )
            else:
                loose.extend(members)
        covered = {c for u in units for c in u.members} | set(loose)
        loose.extend(dict.fromkeys(c for c in pending if c not in covered))

        if pool is None and (jobs <= 1 or len(units) + len(loose) == 1):
            for family in units:
                t0_family = time.perf_counter()
                family_completed, family_failure = execute_family(
                    family,
                    config,
                    trace_paths.get(family.workload),
                    profile_paths.get(family.workload),
                )
                _settle_family(family, family_completed, family_failure)
                # Post-hoc budget, scaled by family size (one unit does the
                # work of len(members) cells).
                if cell_timeout is not None:
                    elapsed = time.perf_counter() - t0_family
                    budget = cell_timeout * len(family.members)
                    if elapsed > budget:
                        first = family.members[0]
                        _store_partial()
                        raise CellExecutionError(
                            f"experiment cell ({first.workload}, {first.label}) "
                            f"family of {len(family.members)} exceeded the "
                            f"per-cell timeout ({elapsed:.3f}s > {budget:g}s)"
                        )
            for cell in loose:
                try:
                    computed[cell] = timed_execute_cell(
                        cell,
                        config,
                        trace_paths.get(cell.workload),
                        profile_paths.get(cell.workload) if cell.needs_profile else None,
                    )
                except Exception as exc:
                    raise CellExecutionError(
                        f"experiment cell ({cell.workload}, {cell.label}) failed: {exc}"
                    ) from exc
                # The in-process path cannot preempt a running cell; enforce
                # the budget post-hoc so the run still fails with attribution.
                if cell_timeout is not None and computed[cell][1] > cell_timeout:
                    raise CellExecutionError(
                        f"experiment cell ({cell.workload}, {cell.label}) exceeded "
                        f"the per-cell timeout ({computed[cell][1]:.3f}s > "
                        f"{cell_timeout:g}s)"
                    )
                _notify(cell, cached=False)
        else:
            if pool is None:
                pool = engine_pool(jobs)
            futures: dict[Any, Future] = {}
            try:
                try:
                    for family in units:
                        futures[family] = pool.submit(
                            execute_family,
                            family,
                            config,
                            trace_paths.get(family.workload),
                            profile_paths.get(family.workload),
                        )
                    for cell in loose:
                        futures[cell] = pool.submit(
                            timed_execute_cell,
                            cell,
                            config,
                            trace_paths.get(cell.workload),
                            profile_paths.get(cell.workload) if cell.needs_profile else None,
                        )
                except BrokenProcessPool as exc:
                    # A worker died under a unit already submitted: collecting
                    # that unit's future below names it, and this stand-in
                    # names the first unit not sent if none does.
                    unsent = next(u for u in (*units, *loose) if u not in futures)
                    futures[unsent] = Future()
                    futures[unsent].set_exception(exc)
                for item, future in futures.items():
                    if isinstance(item, SweepFamily):
                        workload, label = item.members[0].workload, item.members[0].label
                        budget = (
                            cell_timeout * len(item.members)
                            if cell_timeout is not None
                            else None
                        )
                    else:
                        workload, label = item.workload, item.label
                        budget = cell_timeout
                    try:
                        settled = future.result(timeout=budget)
                    except FutureTimeoutError:
                        # Abandon the engine's pool without joining the hung
                        # worker (joining would re-introduce the indefinite
                        # block the timeout exists to prevent).
                        if isinstance(pool, EnginePool):
                            pool.discard()
                        if isinstance(item, SweepFamily):
                            _store_partial()
                        raise CellExecutionError(
                            f"experiment cell ({workload}, {label}) "
                            f"exceeded the per-cell timeout ({budget:g}s)"
                        ) from None
                    except FutureCancelledError:
                        raise CellExecutionError(
                            f"experiment cell ({workload}, {label}) "
                            f"was cancelled"
                        ) from None
                    except Exception as exc:
                        raise CellExecutionError(
                            f"experiment cell ({workload}, {label}) "
                            f"failed in worker: {exc}"
                        ) from exc
                    if isinstance(item, SweepFamily):
                        _settle_family(item, settled[0], settled[1])
                    else:
                        computed[item] = settled
                        _notify(item, cached=False)
            finally:
                # A failed run leaves no work of its own queued on a pool
                # that outlives it (a no-op on settled futures).
                for f in futures.values():
                    f.cancel()

    for cell in pending:
        result, seconds = computed[cell]
        results[(cell.workload, cell.label)] = result
        stats.cache_misses += 1
        stats.cell_seconds[cell.name] = seconds
        if result.path:
            stats.paths[result.path] += 1
        if result_cache is not None:
            result_cache.store(keys[cell], result)

    # Deterministic aggregation order: the caller's declaration order, not
    # completion order.
    ordered = {
        (cell.workload, cell.label): results[(cell.workload, cell.label)]
        for cell in cells
    }
    stats.wall_seconds = time.perf_counter() - t_start
    return ordered, stats


class ExperimentEngine:
    """Convenience wrapper binding a config (+ optional overrides)."""

    def __init__(
        self,
        config: PaperConfig,
        jobs: int | None = None,
        result_cache: ResultStore | None = None,
        cell_timeout: float | None = None,
    ):
        self.config = config
        self.jobs = effective_jobs(config.jobs if jobs is None else jobs)
        if result_cache is None:
            result_cache = make_store(config)
        self.result_cache = result_cache
        self.cell_timeout = (
            config.cell_timeout if cell_timeout is None else cell_timeout
        )

    def run(
        self, cells: Iterable[SimCell]
    ) -> tuple[dict[tuple[str, str], SimulationResult], EngineStats]:
        return run_cells(
            cells,
            self.config,
            jobs=self.jobs,
            result_cache=self.result_cache,
            cell_timeout=self.cell_timeout,
        )
