"""Single-flight cell scheduler: the bridge between asyncio and the engine.

The scheduler owns one **persistent** worker pool (processes by default,
threads for in-process embedding/tests) for the daemon's whole lifetime —
the warm-pool amortization the per-request engine cannot provide — and
schedules individual engine cells onto it with three serving disciplines:

Single-flight coalescing
    Concurrent submissions of the *same* result-cache key share one
    computation: the first waiter creates a *flight* (an asyncio task that
    checks the content-addressed :class:`ResultCache` and settles a miss
    through :attr:`CellScheduler.settle`: a daemon simulates and stores
    the result, the cluster router forwards the key to its worker); every
    later identical submission joins the existing flight and fans the one
    result out.  Identical concurrent cells are therefore simulated
    exactly once (``stats.cells_executed`` counts real simulations, so the
    property is observable).

Bounded admission / backpressure
    At most ``max_pending`` flights may exist at once.  A submission that
    would create flight ``max_pending + 1`` is rejected immediately with
    :class:`Overloaded` — an explicit, retriable signal instead of
    unbounded buffering.  Joining an existing flight is always admitted
    (it adds no work).

Deadlines and cooperative cancellation
    Each waiter may carry a deadline; the flight itself is *shielded*, so
    one impatient waiter never kills a computation others still want.
    When the **last** waiter leaves (deadline hit or client disconnect)
    the flight is cancelled: queued work is released before it ever
    reaches a worker.  Work already running on a process worker cannot be
    preempted — it runs to completion and lands in the result cache
    (useful: a retry becomes a cache hit); ``config.cell_timeout`` bounds
    it engine-side where that matters.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from ..experiments.config import PaperConfig
from ..experiments.engine.cells import SimCell, timed_execute_cell
from ..experiments.engine.store import ResultStore, make_store
from ..experiments.engine.parallel import CellPlan, plan_cells
from ..experiments.engine.pool import import_compute_layer
from .stats import ServiceStats

__all__ = [
    "CellScheduler",
    "DeadlineExceeded",
    "FlightCancelled",
    "Overloaded",
    "Settled",
    "SubmitOutcome",
]


class Overloaded(RuntimeError):
    """Admission queue full; the caller should back off and retry."""


class DeadlineExceeded(TimeoutError):
    """The waiter's deadline elapsed before its flight completed."""


class FlightCancelled(RuntimeError):
    """The shared flight was cancelled underneath a live waiter (shutdown)."""


@dataclass
class _Flight:
    """One in-flight computation, shared by all waiters of its key."""

    key: str
    task: asyncio.Task
    waiters: int = 0
    #: Set by the flight body right before it is handed to the pool.
    executing: bool = False


@dataclass
class SubmitOutcome:
    """One waiter's view of a settled flight."""

    result: Any
    key: str
    #: Answered from the on-disk result cache (no simulation this flight).
    cache_hit: bool
    #: This waiter joined a flight another waiter had already created.
    coalesced: bool
    #: Seconds this waiter spent waiting on the flight.
    seconds: float
    #: The cluster node that answered a forwarded miss (``None``: this node).
    worker: str | None = None


@dataclass
class Settled:
    """What a flight settles to, shared by every waiter of its key."""

    result: Any
    cache_hit: bool
    #: The cluster node that answered a forwarded miss (``None``: this node).
    worker: str | None = None


class CellScheduler:
    """Schedule engine cells onto a persistent pool with serving semantics."""

    def __init__(
        self,
        config: PaperConfig,
        *,
        workers: int = 1,
        max_pending: int = 64,
        use_processes: bool = True,
        stats: ServiceStats | None = None,
        executor: Executor | None = None,
    ):
        self.config = config
        self.max_pending = max_pending
        self.stats = stats if stats is not None else ServiceStats()
        if executor is not None:
            self.executor = executor
            self._owns_executor = False
        elif use_processes:
            # As the engine's pool does: the workers fork with every kernel loaded.
            import_compute_layer()
            self.executor = ProcessPoolExecutor(max_workers=max(1, workers))
            self._owns_executor = True
        else:
            self.executor = ThreadPoolExecutor(
                max_workers=max(1, workers), thread_name_prefix="repro-cell"
            )
            self._owns_executor = True
        self.result_cache: ResultStore | None = make_store(config)
        #: Settles a key the store missed: ``await settle(cell, config,
        #: plan)`` → :class:`Settled`.  A daemon executes it; the cluster
        #: router swaps in a forward to the key's worker.
        self.settle = self.execute
        self._flights: dict[str, _Flight] = {}

    # -- introspection --------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Flights admitted but not yet settled (the backpressure quantity)."""
        return len(self._flights)

    @property
    def in_flight(self) -> int:
        """Flights whose cell has actually been handed to the worker pool."""
        return sum(1 for f in self._flights.values() if f.executing)

    # -- planning -------------------------------------------------------------------

    async def plan(self, cells: list[SimCell], config: PaperConfig) -> CellPlan:
        """Warm traces + derive result-cache keys, off the event loop.

        Delegates to the engine's own :func:`plan_cells` — the service never
        re-implements key derivation (``tests/service/test_key_parity.py``).
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, plan_cells, cells, config, 1)

    # -- submission -----------------------------------------------------------------

    async def submit(
        self,
        cell: SimCell,
        config: PaperConfig,
        plan: CellPlan,
        deadline: float | None = None,
    ) -> SubmitOutcome:
        """Await one cell's result with coalescing/backpressure/deadline.

        Raises :class:`Overloaded` at admission, :class:`DeadlineExceeded`
        when ``deadline`` elapses, and re-raises worker exceptions.
        """
        key = plan.keys[cell]
        self.stats.cells_submitted += 1
        flight = self._flights.get(key)
        if flight is not None and flight.task.cancelling():
            # A dying flight (its last waiter just left) is not joinable;
            # treat the key as absent and race a fresh flight in.
            flight = None
        coalesced = flight is not None
        if coalesced:
            self.stats.cells_coalesced += 1
        else:
            if len(self._flights) >= self.max_pending and key not in self._flights:
                self.stats.cells_rejected += 1
                raise Overloaded(
                    f"queue full ({self.max_pending} flights in progress); retry later"
                )
            flight = _Flight(
                key=key,
                task=asyncio.create_task(self._fly(cell, config, plan)),
            )
            self._flights[key] = flight

            def _cleanup(_task, k=key, fl=flight):
                if self._flights.get(k) is fl:
                    del self._flights[k]

            flight.task.add_done_callback(_cleanup)

        flight.waiters += 1
        t0 = time.perf_counter()
        try:
            # Shield: one waiter's deadline/disconnect must not cancel a
            # computation other waiters still share.
            if deadline is not None:
                settled = await asyncio.wait_for(
                    asyncio.shield(flight.task), timeout=deadline
                )
            else:
                settled = await asyncio.shield(flight.task)
        except asyncio.TimeoutError:
            self.stats.deadline_timeouts += 1
            raise DeadlineExceeded(
                f"deadline of {deadline:g}s elapsed waiting for cell "
                f"{cell.name} (key {key[:12]}…)"
            ) from None
        except asyncio.CancelledError:
            current = asyncio.current_task()
            if flight.task.cancelled() and (
                current is None or not current.cancelling()
            ):
                # The flight died (scheduler shutdown) but *this* waiter was
                # not cancelled: surface a structured error, not a silent
                # cancellation of the caller.
                raise FlightCancelled(
                    f"flight for cell {cell.name} was cancelled"
                ) from None
            raise
        finally:
            flight.waiters -= 1
            if flight.waiters <= 0 and not flight.task.done():
                # Last waiter left: release non-coalesced work.  Queued pool
                # items are cancelled before reaching a worker; running ones
                # finish and (usefully) populate the result cache.
                flight.task.cancel()
                self.stats.cells_cancelled += 1
        return SubmitOutcome(
            result=settled.result,
            key=key,
            cache_hit=settled.cache_hit,
            coalesced=coalesced,
            seconds=time.perf_counter() - t0,
            worker=settled.worker,
        )

    async def _fly(
        self, cell: SimCell, config: PaperConfig, plan: CellPlan
    ) -> Settled:
        """Flight body: probe the store, settle the miss, count."""
        key = plan.keys[cell]
        if self.result_cache is not None:
            loop = asyncio.get_running_loop()
            cached = await loop.run_in_executor(None, self.result_cache.load, key)
            if cached is not None:
                self.stats.cells_cache_hits += 1
                return Settled(result=cached, cache_hit=True)
        flight = self._flights.get(key)
        if flight is not None:
            flight.executing = True
        try:
            return await self.settle(cell, config, plan)
        except Exception:
            self.stats.cells_failed += 1
            raise

    async def execute(
        self, cell: SimCell, config: PaperConfig, plan: CellPlan
    ) -> Settled:
        """A daemon's :attr:`settle`: run the cell on the pool, store it."""
        loop = asyncio.get_running_loop()
        result, _seconds = await loop.run_in_executor(
            self.executor,
            timed_execute_cell,
            cell,
            config,
            plan.trace_paths.get(cell.workload),
            plan.profile_paths.get(cell.workload) if cell.needs_profile else None,
        )
        self.stats.cells_executed += 1
        if self.result_cache is not None:
            await loop.run_in_executor(
                None, self.result_cache.store, plan.keys[cell], result
            )
        return Settled(result=result, cache_hit=False)

    # -- lifecycle ------------------------------------------------------------------

    async def close(self) -> None:
        """Cancel outstanding flights and shut the pool down."""
        for flight in list(self._flights.values()):
            flight.task.cancel()
        pending = [f.task for f in self._flights.values()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self._flights.clear()
        if self._owns_executor:
            self.executor.shutdown(wait=False, cancel_futures=True)
        if self.result_cache is not None:
            # Drain a write-behind store so every computed result is
            # cluster-visible before the daemon reports itself down.
            await asyncio.get_running_loop().run_in_executor(
                None, self.result_cache.close
            )
