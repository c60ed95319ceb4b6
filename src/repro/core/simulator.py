"""Trace-driven simulation engine.

* :func:`simulate` — the sequential reference engine.  Drives any
  :class:`~repro.core.caches.base.CacheModel` one access at a time,
  accumulating exact lookup cycles.  Cache objects reach it, or the exact
  kernel that replaces it, through :func:`repro.core.dispatch.dispatch`.
* :func:`simulate_lru_sweep` — the one stats-level LRU pass: an
  associativity sweep under one indexing scheme from one decode and one
  stack-distance pass (:mod:`repro.core.fastsim`; an all-direct-mapped
  sweep takes the cheaper adjacent-compare primitive instead).
  :func:`simulate_set_associative` (one ``"setassoc"`` member) and
  :func:`simulate_indexing` (one ``"direct"`` member) are its per-cell
  entry points; ``simulate_set_associative`` forwards any other policy to
  :func:`repro.core.fastpolicy.simulate_policy_set_associative`.

Both return a :class:`SimulationResult` carrying global counters, per-slot
arrays and enough timing classes to evaluate the paper's AMAT formulas.
"""

from __future__ import annotations

import numpy as np

from ..trace.event import Trace
from .address import CacheGeometry
from .caches.base import CacheModel, CacheStats
from .decompose import decode
from .fastsim import lru_miss_flags, lru_sweep_miss_flags, per_set_counts
from .indexing.base import IndexingScheme
from .result import ENGINES, SimulationResult, check_engine

__all__ = [
    "ENGINES",
    "SimulationResult",
    "check_engine",
    "simulate",
    "simulate_indexing",
    "simulate_lru_sweep",
    "simulate_set_associative",
    "simulate_fully_associative",
    "warmup_split",
]


def _result_from_stats(
    model: str, trace_name: str, stats: CacheStats, lookup_cycles: int
) -> SimulationResult:
    return SimulationResult(
        model=model,
        trace_name=trace_name,
        accesses=stats.accesses,
        hits=stats.hits,
        misses=stats.misses,
        lookup_cycles=lookup_cycles,
        slot_accesses=stats.slot_accesses.copy(),
        slot_hits=stats.slot_hits.copy(),
        slot_misses=stats.slot_misses.copy(),
        extra=dict(stats.extra),
    )


def simulate(
    cache: CacheModel,
    trace: Trace,
    warmup: int = 0,
    check_invariants_every: int = 0,
) -> SimulationResult:
    """Sequential reference engine.

    ``warmup`` accesses are simulated (contents updated) but excluded from
    statistics, following standard cache-simulation practice; 0 (the
    default) counts cold misses like the paper's whole-program runs do.
    ``check_invariants_every`` > 0 calls the model's ``check_invariants``
    periodically (used by the stress tests).
    """
    n = trace.addresses.size
    if warmup >= n and n > 0:
        raise ValueError("warmup consumes the entire trace")
    # Hoist the NumPy->Python boxing out of the hot loop: one bulk tolist()
    # yields plain ints/bools, so the per-access path never pays the
    # np.uint64.__int__ / np.bool_.__bool__ conversion cost.
    addresses = trace.addresses.tolist()
    is_write = trace.is_write.tolist()
    access = cache.access
    for i in range(warmup):
        access(addresses[i], is_write[i])
    cache.reset_stats()
    cycles = 0
    checker = getattr(cache, "check_invariants", None) if check_invariants_every else None
    for i in range(warmup, n):
        result = access(addresses[i], is_write[i])
        cycles += result.cycles
        if checker is not None and (i + 1) % check_invariants_every == 0:
            checker()
    return _result_from_stats(cache.name, trace.name, cache.stats, cycles)


def _miss_stats(
    indices: np.ndarray, miss: np.ndarray, num_sets: int, direct_mapped: bool = False
) -> CacheStats:
    """Stats of a run in which every hit is a direct hit, from its per-access
    set indices and miss flags.

    ``direct_hits`` is reported when there are hits, or always for
    ``direct_mapped``: the convention of :func:`simulate_indexing`'s results.
    """
    accesses, misses = per_set_counts(indices, miss, num_sets)
    stats = CacheStats(num_sets)
    stats.accesses = int(indices.size)
    stats.misses = int(miss.sum())
    stats.hits = stats.accesses - stats.misses
    stats.slot_accesses = accesses
    stats.slot_hits = accesses - misses
    stats.slot_misses = misses
    if stats.hits or direct_mapped:
        stats.extra["direct_hits"] = stats.hits
    return stats


def simulate_set_associative(
    scheme: IndexingScheme,
    trace: Trace,
    geometry: CacheGeometry | None = None,
    ways: int | None = None,
    policy: str = "lru",
    policy_seed: int = 0,
) -> SimulationResult:
    """Vectorised k-way LRU simulation under an indexing scheme.

    Equivalent to ``simulate(SetAssociativeCache(geometry, scheme,
    policy="lru"), trace)`` — bit-identical hits, misses, per-set histograms
    and lookup cycles, asserted by ``tests/core/test_differential.py`` — as the
    one-member ``(ways, "setassoc")`` :func:`simulate_lru_sweep`.  ``ways``
    defaults to the geometry's associativity.

    Only LRU admits the re-thresholdable stack-distance solution (the
    Mattson inclusion property); any other registered ``policy`` routes to
    the exact set-decomposed replay kernels of
    :func:`~repro.core.fastpolicy.simulate_policy_set_associative`
    (``policy_seed`` seeds the ``random`` policy's generator there).  The
    non-LRU path models the geometry's own associativity, so combining it
    with a ``ways`` override — the one configuration with no cache-model
    equivalent — still raises, as does an unknown policy name.
    """
    if policy != "lru":
        from .fastpolicy import simulate_policy_set_associative

        return simulate_policy_set_associative(
            scheme, trace, geometry=geometry, ways=ways, policy=policy, seed=policy_seed
        )
    geometry = geometry or scheme.geometry
    ways = geometry.ways if ways is None else ways
    return simulate_lru_sweep(scheme, trace, geometry, [(ways, "setassoc")])[0]


def simulate_lru_sweep(
    scheme: IndexingScheme,
    trace: Trace,
    geometry: CacheGeometry,
    specs,
) -> list[SimulationResult]:
    """One associativity *sweep* under one indexing scheme, from one pass.

    ``specs`` is a sequence of ``(ways, style)`` members sharing the
    scheme's set mapping; ``style`` names the per-cell entry point whose
    packaging each member must reproduce bit-for-bit:

    * ``"direct"`` (``ways`` must be 1) — :func:`simulate_indexing`'s
      conventions: model ``direct_mapped[<scheme>]``, ``direct_hits``
      always present.
    * ``"setassoc"`` — :func:`simulate_set_associative`'s conventions:
      model ``set_associative[<scheme>,<k>way]``, ``direct_hits`` present
      only when nonzero.

    A one-member sweep *is* the per-cell entry point, so cells run the same
    pass alone as in a family.

    All members share ``geometry``'s ``num_sets``/``offset_bits`` (the
    exactness condition the engine's family detector enforces); only the
    thresholded associativity differs, so the whole sweep costs one
    :func:`~repro.core.fastsim.lru_stack_distances` pass.  Returns one
    :class:`SimulationResult` per spec, in spec order, each bit-identical
    (per-set counts included) to its per-cell equivalent — the contract
    the ``simulate_lru_sweep`` rows of ``tests/core/test_differential.py``
    hold against the sequential caches — and naming its path
    ``fast:lru-sweep``.
    """
    specs = [(int(ways), style) for ways, style in specs]
    for ways, style in specs:
        if style not in ("direct", "setassoc"):
            raise ValueError(f"unknown sweep member style {style!r}")
        if style == "direct" and ways != 1:
            raise ValueError("style 'direct' models a direct-mapped cache (ways=1)")
        if ways < 1:
            raise ValueError("ways must be a positive integer")
    blocks, indices = decode(scheme, trace, geometry)
    flags = lru_sweep_miss_flags(blocks, indices, [ways for ways, _ in specs])
    results = []
    for ways, style in specs:
        direct = style == "direct"
        if direct:
            model = f"direct_mapped[{scheme.name}]"
        else:
            model = f"set_associative[{scheme.name},{ways}way]"
        stats = _miss_stats(indices, flags[ways], geometry.num_sets, direct_mapped=direct)
        result = _result_from_stats(model, trace.name, stats, stats.accesses)
        result.path = "fast:lru-sweep"
        results.append(result)
    return results


def simulate_fully_associative(
    trace: Trace, geometry: CacheGeometry | None = None, lines: int | None = None
) -> SimulationResult:
    """Vectorised fully-associative LRU bound (one set spanning all lines).

    Equivalent to ``simulate(FullyAssociativeCache(geometry), trace)`` —
    the single-set degenerate case of the stack-distance kernel, used by the
    3C classifier and the bounds tables where the OrderedDict-backed model
    used to dominate wall time.
    """
    if geometry is None and lines is None:
        raise ValueError("provide a geometry or an explicit line count")
    capacity = int(lines) if lines is not None else geometry.num_lines
    offset_bits = geometry.offset_bits if geometry is not None else 0
    blocks = trace.blocks(offset_bits).astype(np.int64)
    indices = np.zeros(blocks.size, dtype=np.int64)
    stats = _miss_stats(indices, lru_miss_flags(blocks, indices, capacity), 1)
    result = _result_from_stats("fully_associative", trace.name, stats, stats.accesses)
    result.path = "fast:fully-associative"
    return result


def simulate_indexing(
    scheme: IndexingScheme, trace: Trace, geometry: CacheGeometry | None = None
) -> SimulationResult:
    """Vectorised direct-mapped simulation under an indexing scheme.

    Equivalent to ``simulate(DirectMappedCache(geometry, scheme), trace)``
    (asserted by the test-suite).  Every access costs 1 lookup cycle, as in
    the paper's baseline.  This is the one-member ``(1, "direct")``
    :func:`simulate_lru_sweep`: the direct-mapped figures label results
    ``direct_mapped[<scheme>]``.
    """
    geometry = geometry or scheme.geometry
    if geometry.ways != 1:
        raise ValueError("the vectorised path models a direct-mapped cache")
    return simulate_lru_sweep(scheme, trace, geometry, [(1, "direct")])[0]


def warmup_split(trace: Trace, fraction: float = 0.1) -> tuple[Trace, Trace]:
    """Split a trace into (training/warmup prefix, evaluation suffix).

    Used by the trainable indexing schemes: the paper profiles applications
    off-line, so Givargis/Patel are fitted on the prefix and evaluated on
    the remainder (or, matching the paper's whole-trace profiling, fitted
    and evaluated on the full trace — both modes appear in the experiments).
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    cut = max(1, int(len(trace) * fraction))
    return trace[:cut], trace[cut:]
