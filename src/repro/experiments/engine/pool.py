"""The engine's process-wide worker pool.

A replay runs many small grids — one ``run_cells`` per registered
experiment, each preceded by a trace warm-up — and forking a fresh pool
for every one of them costs more than the second core saves.  Both
:func:`~repro.experiments.warm.warm_traces` and
:func:`~repro.experiments.engine.parallel.run_cells` therefore submit to
one lazily built :class:`EnginePool` per process and width
(:func:`engine_pool`), unless an executor injected through
:func:`~repro.experiments.engine.parallel.engine_pool_scope` takes
precedence.  The lifecycle rules:

* **creation** — pools are keyed by width and built under a lock (daemon
  threads of the job server reach ``warm_traces``); a live pool is never
  replaced;
* **fork guard** — the registry records the pid that owns it, so a forked
  child builds its own pool instead of submitting to its parent's;
* **failure** — a cell timeout discards the pool
  (:meth:`EnginePool.discard`) without joining the hung worker, and a pool
  a worker died in (``BrokenProcessPool``, even while idle) takes no more
  work; either way the next request builds a new one;
* **arena** — each task leaves its worker's trace arena empty: the worker
  outlives the grid, the trace pages it mapped must not;
* **exit** — ``concurrent.futures``' interpreter exit hook joins the
  workers, as it does for any executor.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor

__all__ = ["EnginePool", "engine_pool"]


def _run_task(fn, *args):
    """Worker side of :meth:`EnginePool.submit`."""
    from ...trace.arena import get_arena

    try:
        return fn(*args)
    finally:
        get_arena().clear()


class EnginePool(ProcessPoolExecutor):
    """A :class:`ProcessPoolExecutor` whose tasks leave no trace mapped."""

    def __init__(self, width: int):
        super().__init__(max_workers=width)
        self.width = width

    def submit(self, fn, /, *args):
        return super().submit(_run_task, fn, *args)

    def discard(self) -> None:
        """Drop the pool from the registry and abandon it: pending work is
        cancelled, and a hung worker is not joined."""
        with _LOCK:
            if _POOLS.get(self.width) is self:
                del _POOLS[self.width]
        self.shutdown(wait=False, cancel_futures=True)


_LOCK = threading.Lock()
_POOLS: dict[int, EnginePool] = {}
_OWNER = os.getpid()


def engine_pool(width: int) -> EnginePool:
    """This process's pool of ``width`` workers, built on first use."""
    global _OWNER
    with _LOCK:
        if _OWNER != os.getpid():
            # A forked child inherits the registry but not the workers.
            _POOLS.clear()
            _OWNER = os.getpid()
        pool = _POOLS.get(width)
        # ``_broken`` is set once a worker dies, even an idle one; such a
        # pool refuses every submission.
        if pool is None or pool._broken:
            pool = _POOLS[width] = EnginePool(width)
        return pool
