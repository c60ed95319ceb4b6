"""Out-of-process layer trace: wrap each layer's public functions from outside.

:func:`install` imports every ``repro`` module, wraps the functions listed in
:func:`layer_targets` and rebinds each wrapper wherever a loaded ``repro.*``
module, class or the experiment registry holds the original.  No file under
``src/`` changes; :meth:`Installation.remove` restores every binding.

Each call of a wrapped function records one span ``(id, parent, pid, name,
start, end, hit)``.  ``name`` is ``"<layer>:<function>"``; ``hit`` is set for
result-store loads only.  Parents follow a context variable, so nesting is
tracked per thread and per asyncio task.  Two standard-library hooks carry
the parent across the boundaries the program crosses:

* ``ProcessPoolExecutor.submit`` ships the submitting span's id with the
  task, so a forked pool worker's spans name their parent in another pid;
* ``BaseEventLoop.run_in_executor`` runs thread-pool work in a copy of the
  caller's context, as ``asyncio.to_thread`` does.

Spans stay in memory.  A process appends them to ``spans-<pid>.jsonl`` in the
trace directory when a span with no parent in that process closes, and at
interpreter exit.  Forked children start with an empty buffer.
"""

from __future__ import annotations

import asyncio.base_events
import atexit
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import pkgutil
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

__all__ = ["Installation", "Recorder", "install", "layer_targets"]

#: Id of the innermost open span in this thread or task (``"<pid>-<n>"``).
_CURRENT: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "e2e_current_span", default=None
)

#: Layers whose spans record whether the call returned a result (a hit).
_HIT_LAYERS = frozenset({"store_load"})


class Recorder:
    """In-memory span buffer of one process, flushed per local root."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._reset()

    def _reset(self) -> None:
        """Start empty; also runs in every forked child (a lock held by
        another thread at fork time would otherwise stay held there)."""
        self.pid = os.getpid()
        self._ids = itertools.count()
        self._buffer: list[list] = []
        self._lock = threading.Lock()

    def enter(self) -> tuple[str, str | None, contextvars.Token]:
        sid = f"{self.pid}-{next(self._ids)}"
        parent = _CURRENT.get()
        return sid, parent, _CURRENT.set(sid)

    def exit(self, sid, parent, token, name, start, end, hit=None) -> None:
        _CURRENT.reset(token)
        with self._lock:
            self._buffer.append([sid, parent, self.pid, name, start, end, hit])
        if parent is None or not parent.startswith(f"{self.pid}-"):
            self.flush()

    def flush(self) -> None:
        with self._lock:
            spans, self._buffer = self._buffer, []
            if spans:
                with open(self.out_dir / f"spans-{self.pid}.jsonl", "a") as fh:
                    fh.writelines(json.dumps(s) + "\n" for s in spans)


def _wrap(fn, name: str, rec: Recorder):
    hit_layer = name.partition(":")[0] in _HIT_LAYERS
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            sid, parent, token = rec.enter()
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                rec.exit(sid, parent, token, name, start, time.perf_counter())

        return traced_async

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid, parent, token = rec.enter()
        start = time.perf_counter()
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            hit = (out is not None) if hit_layer else None
            rec.exit(sid, parent, token, name, start, time.perf_counter(), hit)

    return traced


def _call_in_span(parent, fn, /, *args, **kwargs):
    """Pool-worker trampoline: run ``fn`` as a child of ``parent``."""
    token = _CURRENT.set(parent)
    try:
        return fn(*args, **kwargs)
    finally:
        _CURRENT.reset(token)


def import_all() -> None:
    """Load every ``repro`` module so that every reference can be rebound."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _public_functions(module) -> list[str]:
    return [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]


def layer_targets() -> list[tuple[str, object, str]]:
    """``(layer, owner, attribute)`` for every wrapped function.

    ``owner`` is a module or a class; methods are wrapped on each class that
    defines them.  Experiment runners are wrapped separately, per id.
    """
    from repro.core import fastassoc, fastpolicy, fastsim, simulator, three_c, uniformity
    from repro.core.aux import fast as aux_fast
    from repro.core.indexing.base import IndexingScheme
    from repro.experiments import warm
    from repro.experiments.engine import cache, cells, families, parallel, store
    from repro.multithread import partitioned, smt
    from repro.service.server import ReproServer
    from repro.trace import arena, io
    from repro.workloads.base import Workload

    targets = [
        ("workloads", Workload, "generate"),
        ("trace_io", io.TraceCache, "get_or_create"),
        ("trace_io", io, "save_raw"),
        ("trace_io", io, "load_trace"),
        ("trace_arena", arena.TraceArena, "get"),
        ("warm", warm, "warm_traces"),
        ("engine_plan", parallel, "plan_cells"),
        ("engine_run", parallel, "run_cells"),
        ("engine_family", families, "execute_family"),
        ("engine_cell", cells, "execute_cell"),
        ("store_load", cache.ResultCache, "load"),
        ("store_load", store.SharedDirStore, "load"),
        ("store_save", cache.ResultCache, "store"),
        ("store_save", store.SharedDirStore, "store"),
        ("sequential", simulator, "simulate"),
        ("multithread", smt, "simulate_smt"),
        ("multithread", partitioned, "simulate_partitioned"),
        ("three_c", three_c, "classify"),
        ("server", ReproServer, "_serve_request"),
    ]
    targets += [
        ("simulator", simulator, n)
        for n in (
            "simulate_indexing",
            "simulate_set_associative",
            "simulate_lru_sweep",
            "simulate_fully_associative",
        )
    ]
    for layer, module in (
        ("fastsim", fastsim),
        ("fastpolicy", fastpolicy),
        ("fastassoc", fastassoc),
        ("aux", aux_fast),
        ("uniformity", uniformity),
    ):
        targets += [(layer, module, n) for n in _public_functions(module)]
    schemes, todo = [], [IndexingScheme]
    while todo:
        cls = todo.pop()
        schemes.append(cls)
        todo.extend(cls.__subclasses__())
    targets += [
        ("indexing", cls, "indices_of") for cls in schemes if "indices_of" in vars(cls)
    ]
    return targets


class Installation:
    """The bindings one :func:`install` replaced; :meth:`remove` restores them."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        #: ``(setter target, attribute or key, original)`` in install order.
        self._bindings: list[tuple[object, str, object]] = []

    def _bind(self, owner, attr, value) -> None:
        if isinstance(owner, dict):
            self._bindings.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._bindings.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def remove(self) -> None:
        atexit.unregister(self.recorder.flush)
        for owner, attr, original in reversed(self._bindings):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._bindings.clear()
        self.recorder.flush()


def install(out_dir: str | Path) -> Installation:
    """Wrap every layer function and start recording spans into ``out_dir``."""
    from repro.experiments.runner import EXPERIMENT_REGISTRY

    import_all()
    rec = Recorder(out_dir)
    inst = Installation(rec)
    wrappers: dict[int, tuple[object, object]] = {}
    for layer, owner, attr in layer_targets():
        fn = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = _wrap(fn, f"{layer}:{attr}", rec)
        wrappers[id(fn)] = (fn, wrapper)
        if isinstance(owner, type):
            inst._bind(owner, attr, wrapper)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "repro" and not mod_name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                inst._bind(module, attr, hit[1])
    for eid, fn in list(EXPERIMENT_REGISTRY.items()):
        inst._bind(EXPERIMENT_REGISTRY, eid, _wrap(fn, f"experiment:{eid}", rec))

    original_submit = ProcessPoolExecutor.submit

    def submit(self, fn, /, *args, **kwargs):
        return original_submit(self, _call_in_span, _CURRENT.get(), fn, *args, **kwargs)

    original_run_in_executor = asyncio.base_events.BaseEventLoop.run_in_executor

    def run_in_executor(self, executor, func, *args):
        if executor is None or isinstance(executor, ThreadPoolExecutor):
            func = functools.partial(contextvars.copy_context().run, func)
        return original_run_in_executor(self, executor, func, *args)

    inst._bind(ProcessPoolExecutor, "submit", submit)
    inst._bind(asyncio.base_events.BaseEventLoop, "run_in_executor", run_in_executor)
    os.register_at_fork(after_in_child=rec._reset)
    atexit.register(rec.flush)
    return inst
