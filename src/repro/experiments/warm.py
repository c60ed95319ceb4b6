"""Parallel trace prefetch: warm the on-disk :class:`TraceCache` up front.

Trace generation is the dominant cold-start cost of an experiment sweep:
every figure ultimately reads workload traces (plus profiling-run traces
for trainable schemes and per-thread variants for the SMT mixes) through
the content-addressed cache, and a cold cache used to be filled one trace
at a time in the parent process.  This module makes the needed-trace set
*explicit* and fills the cache concurrently:

* :class:`TraceSpec` — a frozen, picklable description of one cache entry
  (workload, seed, ref limit, scale, optional thread tag) whose
  :meth:`~TraceSpec.cache_key` reproduces exactly the key the runners use.
  A *derived* spec (``derive`` set) names a trace built from other specs
  or from a synthetic program instead of a registered workload: the
  phase concatenations of ``ext-dynamic``, the round-robin SMT mixes of
  Figures 13/14 and the I-fetch traces of ``ext-icache``;
* :func:`trace_spec` — the one resolver from an engine workload name
  (``"fft"``, ``"phase:crc+fft"``, ``"smt:fft+susan"``, ``"itrace:1"``,
  ``"itrace:1:placed"``) to its spec, so derived traces are cached,
  fingerprinted and opened by path like any workload;
* per-experiment **providers** (registered next to each figure runner via
  :func:`provides_traces`) that enumerate the specs an experiment needs, so
  ``specs_for(["fig4", "fig13"], config)`` is the complete prefetch plan;
* :func:`warm_traces` — generate every missing entry on the engine's
  process-wide worker pool (:func:`~repro.experiments.engine.pool.engine_pool`,
  shared with ``run_cells``; ``jobs=1`` is the in-process fallback) and
  optionally return content fingerprints, computed in the workers so the
  parent never loads a trace it does not otherwise need.  Entries already
  on disk are validated in-process (a header read each), so a warm call
  asks for no pool; derived specs are built after their sources.

Writes are safe under arbitrary concurrency because every cache write
(``save_raw``, and ``save_npz`` before it) is atomic (tmp +
``os.replace``): two workers racing on one key both produce the
bit-identical trace (the generation contract) and the loser's rename simply
replaces the winner's identical file.  Locked by
``tests/experiments/test_warm_traces.py``.

Entries are persisted in the raw mmap-able format (see
:mod:`repro.trace.io`), so everything downstream of a warm — pool
workers, the service, cluster nodes — maps the published files zero-copy
through the process-wide trace arena instead of decoding npz blobs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..trace.event import Trace
from ..trace.io import TraceCache
from .config import (
    MULTITHREAD_MIXES_FIG13,
    MULTITHREAD_MIXES_FIG14,
    PaperConfig,
)
from .engine.pool import engine_pool

__all__ = [
    "TraceSpec",
    "TraceWarmError",
    "WarmEntry",
    "provides_traces",
    "trace_spec_providers",
    "trace_spec",
    "workload_spec",
    "profile_spec",
    "mix_specs",
    "mix_name",
    "phase_name",
    "itrace_name",
    "load_spec",
    "specs_for",
    "warm_traces",
]


@dataclass(frozen=True)
class TraceSpec:
    """Everything that determines one trace-cache entry.

    ``thread`` mirrors the runners' key discipline: ``None`` means the
    plain single-thread key (no ``thread=`` component, as written by
    :func:`repro.experiments.runner.workload_trace`), an integer means the
    per-thread variant the SMT mixes generate.

    A derived spec names its builder in ``derive`` (a key of
    :data:`_DERIVATIONS`), the specs it combines in ``sources`` and the
    builder's arguments in ``params``; its key hashes every field but the
    name.
    """

    name: str
    seed: int
    ref_limit: int
    scale: float
    thread: int | None = None
    derive: str | None = None
    sources: tuple["TraceSpec", ...] = ()
    params: tuple = ()

    def cache_key(self) -> str:
        if self.derive is not None:
            doc = [
                self.derive,
                [s.cache_key() for s in self.sources],
                self.params,
                self.seed,
                self.ref_limit,
                self.scale,
                self.thread,
            ]
            digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:24]
            return TraceCache.key_for(self.name.replace(":", "-"), derived=digest)
        if self.thread is None:
            return TraceCache.key_for(
                self.name, seed=self.seed, limit=self.ref_limit, scale=self.scale
            )
        return TraceCache.key_for(
            self.name,
            seed=self.seed,
            limit=self.ref_limit,
            scale=self.scale,
            thread=self.thread,
        )

    def generate(self, cache: TraceCache | None = None) -> Trace:
        """Build the trace; a derived spec reads its sources through
        ``cache`` when given (they are warmed first)."""
        if self.derive is not None:
            if cache is None:
                sources = [s.generate() for s in self.sources]
            else:
                sources = [
                    cache.get_or_create(s.cache_key(), functools.partial(s.generate, cache))
                    for s in self.sources
                ]
            return _DERIVATIONS[self.derive](self, sources)
        from ..workloads import get_workload

        return get_workload(self.name).generate(
            seed=self.seed,
            ref_limit=self.ref_limit,
            scale=self.scale,
            thread=self.thread or 0,
        )

    def sort_key(self) -> tuple:
        return (
            self.name,
            self.seed,
            self.ref_limit,
            self.scale,
            -1 if self.thread is None else self.thread,
        )


class TraceWarmError(RuntimeError):
    """Trace generation failed during prefetch; carries the failing spec."""

    def __init__(self, spec: TraceSpec, cause: BaseException):
        super().__init__(f"warming trace {spec} failed: {cause}")
        self.spec = spec


@dataclass(frozen=True)
class WarmEntry:
    """Outcome of warming one spec."""

    spec: TraceSpec
    path: Path
    #: SHA-256 over (addresses, is_write, thread); ``None`` unless requested.
    fingerprint: str | None
    #: ``True`` when the entry was generated by this call (cache miss).
    generated: bool
    seconds: float


# -- spec construction -----------------------------------------------------------------


def workload_spec(name: str, config: PaperConfig, seed: int | None = None) -> TraceSpec:
    """The evaluation-trace spec :func:`runner.workload_trace` would build."""
    return TraceSpec(
        name=name,
        seed=config.seed if seed is None else seed,
        ref_limit=config.ref_limit,
        scale=config.workload_scale,
    )


def profile_spec(name: str, config: PaperConfig) -> TraceSpec:
    """The profiling-run spec (trainable schemes' off-line fitting input)."""
    if config.profile_seed_offset == 0:
        return workload_spec(name, config)
    return workload_spec(name, config, seed=config.seed + config.profile_seed_offset)


def mix_specs(mix: Sequence[str], config: PaperConfig) -> list[TraceSpec]:
    """Per-thread specs of one SMT mix (Figures 13/14 key discipline)."""
    per_thread_limit = max(1, config.ref_limit // len(mix))
    return [
        TraceSpec(
            name=name,
            seed=config.seed + i,
            ref_limit=per_thread_limit,
            scale=config.workload_scale,
            thread=i,
        )
        for i, name in enumerate(mix)
    ]


# -- derived traces --------------------------------------------------------------------


def _concat(spec: TraceSpec, sources: list[Trace]) -> Trace:
    out = sources[0]
    for trace in sources[1:]:
        out = out.concat(trace)
    return out.with_name(spec.name)


def _round_robin(spec: TraceSpec, sources: list[Trace]) -> Trace:
    from ..trace.interleave import round_robin

    return round_robin(sources, name=spec.name)


@functools.lru_cache(maxsize=4)
def _program(seed: int):
    """``ext-icache``'s synthetic program; the natural and the placed trace
    of one program share it (neither mutates it)."""
    from .ext_icache import build_program

    return build_program(seed)


def _itrace(spec: TraceSpec, sources: list[Trace]) -> Trace:
    """A synthetic program's I-fetch trace; the placed variant records the
    placement's weighted overlap costs in its meta (the cache entry's
    header), so a warm run never re-runs the placement search."""
    from ..core.address import CacheGeometry
    from ..icache import generate_itrace, optimize_placement

    params = dict(spec.params)
    layout, calls, profile = _program(spec.seed)
    meta = {}
    if params["placement"] is not None:
        layout, before, after = optimize_placement(
            layout, profile, CacheGeometry(*params["placement"])
        )
        meta = {"overlap_before": before, "overlap_after": after}
    trace = generate_itrace(
        layout,
        calls,
        line_bytes=params["line_bytes"],
        loop_iterations=params["loop_iterations"],
        name=spec.name,
    )
    return Trace(trace.addresses, name=spec.name, meta={**trace.meta, **meta})


#: Builders of derived traces, ``(spec, source traces) -> Trace``.
_DERIVATIONS: dict[str, Callable[[TraceSpec, list[Trace]], Trace]] = {
    "concat": _concat,
    "round_robin": _round_robin,
    "itrace": _itrace,
}


def phase_name(phases: Sequence[str]) -> str:
    """Engine workload name of the workloads' traces run back to back."""
    return "phase:" + "+".join(phases)


def mix_name(mix: Sequence[str]) -> str:
    """Engine workload name of an SMT mix's round-robin interleaving."""
    return "smt:" + "+".join(mix)


def itrace_name(program: int, placed: bool = False) -> str:
    """Engine workload name of ``ext-icache``'s program ``program``, in its
    natural or its optimised (placed) layout."""
    return f"itrace:{program}" + (":placed" if placed else "")


def _phase_spec(rest: str, config: PaperConfig) -> TraceSpec:
    phases = rest.split("+")
    return TraceSpec(
        phase_name(phases),
        config.seed,
        config.ref_limit,
        config.workload_scale,
        derive="concat",
        sources=tuple(workload_spec(n, config) for n in phases),
    )


def _mix_spec(rest: str, config: PaperConfig) -> TraceSpec:
    mix = rest.split("+")
    return TraceSpec(
        mix_name(mix),
        config.seed,
        config.ref_limit,
        config.workload_scale,
        derive="round_robin",
        sources=tuple(mix_specs(mix, config)),
    )


#: I-fetch references per procedure line: hot loops run their body twice.
_ITRACE_LOOPS = 2


def _itrace_spec(rest: str, config: PaperConfig) -> TraceSpec:
    program, sep, variant = rest.partition(":")
    if not program.isdigit() or variant not in (("placed",) if sep else ("",)):
        raise ValueError(f"unknown I-trace name 'itrace:{rest}'")
    g = config.geometry
    placement = (
        (g.capacity_bytes, g.line_bytes, g.ways, g.address_bits) if variant else None
    )
    # The trace depends on the program and the line size alone, not on
    # the workload knobs: ref_limit and scale are fixed.
    return TraceSpec(
        itrace_name(int(program), bool(variant)),
        config.seed + int(program),
        0,
        1.0,
        derive="itrace",
        params=(
            ("line_bytes", g.line_bytes),
            ("loop_iterations", _ITRACE_LOOPS),
            ("placement", placement),
        ),
    )


#: Derived-trace name prefixes (``"<prefix>:<rest>"``) → spec builder.
_DERIVED_NAMES: dict[str, Callable[[str, PaperConfig], TraceSpec]] = {
    "phase": _phase_spec,
    "smt": _mix_spec,
    "itrace": _itrace_spec,
}


def trace_spec(workload: str, config: PaperConfig) -> TraceSpec:
    """The spec behind an engine workload name: a derived trace for the
    ``phase:`` / ``smt:`` / ``itrace:`` names, else the workload's own
    evaluation trace."""
    prefix, sep, rest = workload.partition(":")
    if sep and prefix in _DERIVED_NAMES:
        return _DERIVED_NAMES[prefix](rest, config)
    return workload_spec(workload, config)


def load_spec(spec: TraceSpec, config: PaperConfig) -> Trace:
    """The spec's trace through the on-disk cache, materialised if absent."""
    cache = TraceCache(config.trace_cache_dir)
    return cache.get_or_create(spec.cache_key(), lambda: spec.generate(cache))


# -- per-experiment providers ----------------------------------------------------------

_PROVIDERS: dict[str, Callable[[PaperConfig], Sequence[TraceSpec]]] = {}


def provides_traces(experiment_id: str):
    """Register the trace-spec provider of one experiment (next to its
    runner, so the prefetch plan can never drift from what the figure
    actually loads)."""

    def decorator(fn: Callable[[PaperConfig], Sequence[TraceSpec]]):
        if experiment_id in _PROVIDERS:
            raise ValueError(f"duplicate trace-spec provider for {experiment_id!r}")
        _PROVIDERS[experiment_id] = fn
        return fn

    return decorator


def trace_spec_providers() -> dict[str, Callable[[PaperConfig], Sequence[TraceSpec]]]:
    return dict(_PROVIDERS)


def specs_for(experiment_ids: Iterable[str], config: PaperConfig) -> list[TraceSpec]:
    """The deduplicated prefetch plan for a set of experiments, derived
    specs' sources included.

    Experiments without a registered provider (purely synthetic ones) are
    skipped; order is deterministic (sorted by spec fields).
    """
    seen: dict[TraceSpec, None] = {}
    for eid in experiment_ids:
        provider = _PROVIDERS.get(eid)
        if provider is None:
            continue
        for spec in provider(config):
            for s in (*spec.sources, spec):
                seen.setdefault(s, None)
    return sorted(seen, key=TraceSpec.sort_key)


# -- the warmer ------------------------------------------------------------------------


def _warm_one(
    spec: TraceSpec, cache_dir: str, want_fingerprint: bool
) -> tuple[str, str | None, bool, float]:
    """Materialise one spec (worker entry point; must stay picklable)."""
    t0 = time.perf_counter()
    cache = TraceCache(cache_dir)
    key = spec.cache_key()
    existed = cache.path_for(key).exists()
    # A raw entry's header digest *is* the engine fingerprint (same byte
    # stream, same hash — pinned by test), so a warm check costs the one
    # header read that opens the entry instead of re-hashing the trace.
    _, digest = cache.open_entry(key, lambda: spec.generate(cache))
    fingerprint = digest if want_fingerprint else None
    return str(cache.path_for(key)), fingerprint, not existed, time.perf_counter() - t0


def _warm_stage(
    specs: list[TraceSpec], pooled: set[TraceSpec], pool, cache_dir: str, fingerprints: bool
) -> dict[TraceSpec, WarmEntry]:
    """Warm ``specs``: the ``pooled`` ones on ``pool``, the rest in-process."""
    futures = {
        spec: pool.submit(_warm_one, spec, cache_dir, fingerprints)
        for spec in specs
        if spec in pooled
    }
    outcomes = {}
    for spec in specs:
        try:
            if spec in futures:
                outcomes[spec] = futures[spec].result()
            else:
                outcomes[spec] = _warm_one(spec, cache_dir, fingerprints)
        except Exception as exc:
            # The pool outlives this call: leave none of its work queued.
            for future in futures.values():
                future.cancel()
            raise TraceWarmError(spec, exc) from exc
    return {
        spec: WarmEntry(spec, Path(path), fp, generated, seconds)
        for spec, (path, fp, generated, seconds) in outcomes.items()
    }


def warm_traces(
    specs: Iterable[TraceSpec],
    config: PaperConfig | None = None,
    *,
    cache_dir: str | Path | None = None,
    jobs: int | None = None,
    fingerprints: bool = False,
) -> dict[TraceSpec, WarmEntry]:
    """Materialise every spec in the trace cache, concurrently.

    Returns one :class:`WarmEntry` per (deduplicated) input spec, in input
    order.  ``jobs`` follows the engine convention: ``None``/``0`` = all
    cores, ``1`` = in-process sequential.  With ``fingerprints=True`` the
    workers also hash the trace content, which is what the experiment
    engine keys its result cache on — the parent then never has to load
    the npz files itself.  Only missing entries are generated on the
    engine's pool; the sources of derived specs are warmed first, in the
    same pass as the plain specs.

    Raises :class:`TraceWarmError` naming the first failing spec.
    """
    if cache_dir is None:
        if config is None:
            raise ValueError("warm_traces needs a config or an explicit cache_dir")
        cache_dir = config.trace_cache_dir
    cache = TraceCache(cache_dir)
    unique = list(dict.fromkeys(specs))
    if jobs is None or jobs <= 0:
        jobs = os.cpu_count() or 1

    def missing(stage):
        return [s for s in stage if not cache.path_for(s.cache_key()).exists()]

    derived = [s for s in unique if s.sources]
    # A derived entry is built from its sources: warm those of the missing
    # ones first, in the same pass as the plain specs.
    sources = [src for s in missing(derived) for src in s.sources]
    plain = list(dict.fromkeys([s for s in unique if not s.sources] + sources))
    # Entries already on disk are checked in-process: ``_warm_one`` still
    # validates each (and heals a corrupt one) at the cost of a header
    # read, far below a task's round trip.  Missing entries go to the pool
    # when a stage has two or more and ``jobs > 1``.
    stages = []
    for stage in (plain, derived):
        todo = set(missing(stage)) if jobs > 1 else set()
        stages.append((stage, todo if len(todo) > 1 else set()))
    pool = engine_pool(jobs) if any(pooled for _, pooled in stages) else None
    entries: dict[TraceSpec, WarmEntry] = {}
    for stage, pooled in stages:
        entries.update(_warm_stage(stage, pooled, pool, str(cache.root), fingerprints))
    return {spec: entries[spec] for spec in unique}
