"""Trace-driven simulation engine.

Two engines, equivalence-tested against each other:

* :func:`simulate` — the sequential reference engine.  Drives any
  :class:`~repro.core.caches.base.CacheModel` one access at a time,
  accumulating exact lookup cycles.  This is the only engine the stateful
  programmable-associativity models (column-associative, adaptive, B-cache,
  victim, partner) can use.
* :func:`simulate_set_associative` — the vectorised fast path for any
  *stateless-lookup* configuration: a scheme × geometry × ways grid point
  with LRU replacement.  Direct-mapped runs (paper Figures 4, 9, 10, 13)
  use the sort-based adjacent-compare primitive; k-way LRU runs (the
  set-associative baselines behind Figures 6/7/8/11/12/14 and the bounds
  tables) use the offline stack-distance kernel in
  :mod:`repro.core.fastsim` — one to two orders of magnitude faster than
  the sequential engine, which matters when the Givargis/Patel trainers and
  the figure sweeps run hundreds of whole-trace simulations.
  :func:`simulate_indexing` is the historical direct-mapped entry point,
  kept as the ``ways=1`` specialisation.

Both return a :class:`SimulationResult` carrying global counters, per-slot
arrays and enough timing classes to evaluate the paper's AMAT formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..trace.event import Trace
from .address import CacheGeometry
from .amat import TimingModel, amat_from_cycles
from .caches.base import CacheModel, CacheStats
from .decompose import decode
from .fastsim import (
    direct_mapped_miss_flags,
    lru_miss_flags,
    lru_sweep_miss_flags,
    per_set_counts,
)
from .indexing.base import IndexingScheme

__all__ = [
    "SimulationResult",
    "simulate",
    "simulate_indexing",
    "simulate_lru_sweep",
    "simulate_set_associative",
    "simulate_fully_associative",
    "warmup_split",
]


@dataclass
class SimulationResult:
    """Outcome of one (cache, trace) simulation."""

    model: str
    trace_name: str
    accesses: int
    hits: int
    misses: int
    lookup_cycles: int
    slot_accesses: np.ndarray
    slot_hits: np.ndarray
    slot_misses: np.ndarray
    extra: dict[str, int] = field(default_factory=dict)

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.miss_rate if self.accesses else 0.0

    def amat(self, timing: TimingModel | None = None) -> float:
        """Exact AMAT from accumulated lookup cycles."""
        return amat_from_cycles(self.lookup_cycles, self.misses, self.accesses, timing)

    def fraction(self, key: str, denominator: str) -> float:
        base: float
        if denominator in ("accesses", "hits", "misses"):
            base = getattr(self, denominator)
        else:
            base = self.extra.get(denominator, 0)
        return self.extra.get(key, 0) / base if base else 0.0

    def summary(self) -> dict[str, float | int | str]:
        return {
            "model": self.model,
            "trace": self.trace_name,
            "accesses": self.accesses,
            "misses": self.misses,
            "miss_rate": self.miss_rate,
            "lookup_cycles": self.lookup_cycles,
            **self.extra,
        }


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


def _vectorised_result(
    model: str,
    trace_name: str,
    indices: np.ndarray,
    miss: np.ndarray,
    num_sets: int,
    direct_mapped: bool = False,
) -> SimulationResult:
    """Package a miss vector into a :class:`SimulationResult` (1 cycle/access).

    Every hit is a "direct" hit.  ``DirectMappedCache`` always reports the
    ``direct_hits`` key; ``SetAssociativeCache`` omits it when there are no
    hits — ``direct_mapped`` picks which result dict to mirror.
    """
    accesses, misses = per_set_counts(indices, miss, num_sets)
    total = int(indices.size)
    total_misses = int(miss.sum())
    hits = total - total_misses
    return SimulationResult(
        model=model,
        trace_name=trace_name,
        accesses=total,
        hits=hits,
        misses=total_misses,
        lookup_cycles=total,  # one cycle per access
        slot_accesses=accesses,
        slot_hits=accesses - misses,
        slot_misses=misses,
        extra={"direct_hits": hits} if hits or direct_mapped else {},
    )


def simulate_set_associative(
    scheme: IndexingScheme,
    trace: Trace,
    geometry: CacheGeometry | None = None,
    ways: int | None = None,
    policy: str = "lru",
    warmup: int = 0,
    policy_seed: int = 0,
) -> SimulationResult:
    """Vectorised k-way LRU simulation under an indexing scheme.

    Equivalent to ``simulate(SetAssociativeCache(geometry, scheme,
    policy="lru"), trace)`` — bit-identical hits, misses, per-set histograms
    and lookup cycles, asserted by the differential test-suite — but
    computed offline with the stack-distance kernel instead of a per-access
    Python loop.  ``ways`` defaults to the geometry's associativity;
    ``ways=1`` uses the cheaper direct-mapped adjacent-compare path.

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
            scheme,
            trace,
            geometry=geometry,
            ways=ways,
            policy=policy,
            seed=policy_seed,
            warmup=warmup,
        )
    geometry = geometry or scheme.geometry
    ways = geometry.ways if ways is None else int(ways)
    if ways < 1:
        raise ValueError("ways must be a positive integer")
    blocks, indices = decode(scheme, trace, geometry)
    # Seed warmup state by computing miss flags over the full trace and
    # dropping the prefix: LRU outcomes depend only on the access history,
    # so the suffix flags are exactly those of a warmed-up cache.
    if warmup:
        if warmup >= blocks.size:
            raise ValueError("warmup consumes the entire trace")
        miss = lru_miss_flags(blocks, indices, ways)[warmup:]
        indices = indices[warmup:]
    else:
        miss = lru_miss_flags(blocks, indices, ways)
    return _vectorised_result(
        model=f"set_associative[{scheme.name},{ways}way]",
        trace_name=trace.name,
        indices=indices,
        miss=miss,
        num_sets=geometry.num_sets,
    )


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

    All members share ``geometry``'s ``num_sets``/``offset_bits`` (the
    exactness condition the engine's family detector enforces); only the
    thresholded associativity differs, so the whole sweep costs one
    :func:`~repro.core.fastsim.lru_stack_distances` pass.  Returns one
    :class:`SimulationResult` per spec, in spec order, each bit-identical
    (per-set counts included) to its per-cell equivalent — the contract
    locked down by ``tests/core/test_sweep_batching_differential.py``.
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
        if style == "direct":
            model = f"direct_mapped[{scheme.name}]"
        else:
            model = f"set_associative[{scheme.name},{ways}way]"
        results.append(
            _vectorised_result(
                model=model,
                trace_name=trace.name,
                indices=indices,
                miss=flags[ways],
                num_sets=geometry.num_sets,
                direct_mapped=style == "direct",
            )
        )
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
    miss = lru_miss_flags(blocks, indices, capacity)
    return _vectorised_result(
        model="fully_associative",
        trace_name=trace.name,
        indices=indices,
        miss=miss,
        num_sets=1,
    )


def simulate_indexing(
    scheme: IndexingScheme,
    trace: Trace,
    geometry: CacheGeometry | None = None,
    warmup: int = 0,
) -> SimulationResult:
    """Vectorised direct-mapped simulation under an indexing scheme.

    Equivalent to ``simulate(DirectMappedCache(geometry, scheme), trace)``
    (asserted by the test-suite) but vectorised end to end.  Every access
    costs 1 lookup cycle, as in the paper's baseline.  This is the ``ways=1``
    specialisation of :func:`simulate_set_associative`, kept as its own
    entry point because the direct-mapped figures label results differently.
    """
    geometry = geometry or scheme.geometry
    if geometry.ways != 1:
        raise ValueError("the vectorised path models a direct-mapped cache")
    blocks, indices = decode(scheme, trace, geometry)
    if warmup:
        if warmup >= blocks.size:
            raise ValueError("warmup consumes the entire trace")
        # Seed the "previous block per set" state by simply dropping the
        # warmup prefix after computing miss flags over the full trace:
        # direct-mapped state is fully determined by the last access per set.
        miss = direct_mapped_miss_flags(blocks, indices)[warmup:]
        indices = indices[warmup:]
    else:
        miss = direct_mapped_miss_flags(blocks, indices)
    return _vectorised_result(
        model=f"direct_mapped[{scheme.name}]",
        trace_name=trace.name,
        indices=indices,
        miss=miss,
        num_sets=geometry.num_sets,
        direct_mapped=True,
    )


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
