"""Partitioned adaptive cache for multithreaded systems (paper Fig. 14).

The paper's final experiment divides the cache equally among the threads
(thread isolation), then adds Peir-style SHT and OUT tables *spanning the
whole cache* so that a displaced block from one thread's partition can be
relocated into a lightly used (disposable) line of *another* partition —
"increasing the cache sizes available to each thread adaptively".

Two models:

* :class:`StaticPartitionedCache` — the baseline: per-thread direct-mapped
  halves, no spill (a thread's conflicts stay its own problem);
* :class:`PartitionedAdaptiveCache` — the proposal: same partitions for
  primary placement, plus global SHT/OUT relocation (3-cycle OUT-hit path,
  Eq. 8 AMAT accounting).  The SHT/OUT state and transitions are those of
  :class:`~repro.core.caches.adaptive.AdaptiveGroupAssociativeCache`,
  shared through its directories base; only the primary line differs.

Both slot streams are a pure function of ``(thread, block)``, so
:func:`simulate_partitioned` (``engine="auto"``) computes them up front.
The static baseline is then a direct-mapped array, vectorised through
:func:`~repro.core.fastsim.direct_mapped_miss_flags`; the adaptive cache
replays them through the adaptive cache's hoisted loop,
:func:`~repro.core.fastassoc._replay_adaptive`.  Both are bit-identical to
the per-access loop, which ``engine="sequential"`` forces and the
differential tests exercise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.address import CacheGeometry, is_power_of_two
from ..core.amat import TimingModel, amat_adaptive, amat_direct_mapped
from ..core.caches.adaptive import _AdaptiveDirectories
from ..core.caches.base import EMPTY, CacheStats
from ..core.fastassoc import _replay_adaptive
from ..core.fastsim import direct_mapped_miss_flags, per_set_counts
from ..core.simulator import check_engine
from ..trace.event import Trace

__all__ = [
    "StaticPartitionedCache",
    "PartitionedAdaptiveCache",
    "PartitionedResult",
    "simulate_partitioned",
]


class StaticPartitionedCache:
    """Per-thread direct-mapped partitions with hard walls."""

    name = "static_partitioned"

    def __init__(self, geometry: CacheGeometry, num_threads: int):
        if geometry.ways != 1:
            raise ValueError("partitioned caches model a direct-mapped L1")
        if not is_power_of_two(num_threads) or num_threads > geometry.num_sets:
            raise ValueError("thread count must be a power of two <= num_sets")
        self.geometry = geometry
        self.num_threads = num_threads
        self.part_sets = geometry.num_sets // num_threads
        self.stats = CacheStats(geometry.num_sets)
        self._blocks = np.full(geometry.num_sets, EMPTY, dtype=np.int64)
        self._offset_bits = geometry.offset_bits
        self.thread_hits = np.zeros(num_threads, dtype=np.int64)
        self.thread_misses = np.zeros(num_threads, dtype=np.int64)

    def primary_slot(self, block: int, thread: int) -> int:
        return thread * self.part_sets + (block & (self.part_sets - 1))

    def access(self, address: int, thread: int, is_write: bool = False) -> int:
        """Returns the lookup cycles (1 for this model)."""
        block = address >> self._offset_bits
        slot = self.primary_slot(block, thread)
        self.stats.accesses += 1
        self.stats.record_probe(slot)
        if self._blocks[slot] == block:
            self.stats.record_hit(slot, "direct")
            self.thread_hits[thread] += 1
        else:
            self._blocks[slot] = block
            self.stats.record_miss(slot)
            self.thread_misses[thread] += 1
        return 1

    def flush(self) -> None:
        self._blocks.fill(EMPTY)


class PartitionedAdaptiveCache(_AdaptiveDirectories, StaticPartitionedCache):
    """Partitions for placement + global SHT/OUT spill (Pier's tables)."""

    name = "partitioned_adaptive"

    def __init__(
        self,
        geometry: CacheGeometry,
        num_threads: int,
        sht_fraction: float = 3 / 8,
        out_fraction: float = 4 / 16,
    ):
        super().__init__(geometry, num_threads)
        self._init_directories(geometry.num_sets, sht_fraction, out_fraction)

    def access(self, address: int, thread: int, is_write: bool = False) -> int:
        block = address >> self._offset_bits
        slot = self.primary_slot(block, thread)
        self.stats.accesses += 1
        at, _ = self._place(slot, block)
        if at < 0:
            self.thread_misses[thread] += 1
            return 1
        self.thread_hits[thread] += 1
        return 1 if at == slot else self.OUT_HIT_CYCLES


@dataclass
class PartitionedResult:
    accesses: int
    hits: int
    misses: int
    direct_hits: int
    lookup_cycles: int
    thread_misses: np.ndarray
    #: How :func:`simulate_partitioned` produced the result
    #: (``fast:partitioned-static``, ``fast:partitioned-adaptive`` or
    #: ``sequential:<reason>``).  Metadata only: never stored, sent or keyed.
    path: str = field(default="", compare=False)

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def fraction_direct(self) -> float:
        return self.direct_hits / self.accesses if self.accesses else 1.0

    def amat(self, timing: TimingModel | None = None, adaptive: bool = False) -> float:
        """Paper-formula AMAT: Eq. (8) for the adaptive variant, the
        textbook form for the static baseline."""
        if adaptive:
            return amat_adaptive(self.fraction_direct, self.miss_rate, timing)
        return amat_direct_mapped(self.miss_rate, timing)


def _primary_slots(cache: StaticPartitionedCache, trace: Trace):
    """``(threads, blocks, primary slots)`` of the whole trace at once."""
    threads = np.asarray(trace.thread).astype(np.int64)
    blocks = trace.blocks(cache._offset_bits).astype(np.int64)
    return threads, blocks, threads * cache.part_sets + (blocks & (cache.part_sets - 1))


def _record(
    cache: StaticPartitionedCache,
    threads: np.ndarray,
    hit: np.ndarray,
    counts: tuple[np.ndarray, np.ndarray, np.ndarray],
    direct_hits: int,
    out_hits: int = 0,
) -> PartitionedResult:
    """Add a fast replay of a fresh cache to its stats and per-thread
    counters, as the sequential loop would, and package the result.
    ``hit`` flags each access, ``counts`` is the per-line ``(accesses,
    hits, misses)``."""
    n = hit.size
    hits = direct_hits + out_hits
    stats = cache.stats
    stats.accesses += n
    stats.hits += hits
    stats.misses += n - hits
    for key, count in (("direct_hits", direct_hits), ("out_hits", out_hits)):
        if count:
            stats.bump(key, count)
    line_accesses, line_hits, line_misses = counts
    stats.slot_accesses += line_accesses
    stats.slot_hits += line_hits
    stats.slot_misses += line_misses
    cache.thread_hits += np.bincount(threads[hit], minlength=cache.num_threads)
    cache.thread_misses += np.bincount(threads[~hit], minlength=cache.num_threads)
    return PartitionedResult(
        accesses=n,
        hits=hits,
        misses=n - hits,
        direct_hits=direct_hits,
        lookup_cycles=n + (PartitionedAdaptiveCache.OUT_HIT_CYCLES - 1) * out_hits,
        thread_misses=cache.thread_misses.copy(),
    )


def _simulate_partitioned_fast(
    cache: StaticPartitionedCache, trace: Trace
) -> PartitionedResult:
    """Vectorised path for a fresh hard-walled partitioned cache."""
    threads, blocks, slots = _primary_slots(cache, trace)
    miss = direct_mapped_miss_flags(blocks, slots)
    accesses, misses = per_set_counts(slots, miss, cache.geometry.num_sets)
    n = slots.size
    if n:
        uniq, first_in_reversed = np.unique(slots[::-1], return_index=True)
        cache._blocks[uniq] = blocks[n - 1 - first_in_reversed]
    return _record(
        cache, threads, ~miss, (accesses, accesses - misses, misses), n - int(miss.sum())
    )


def _simulate_partitioned_adaptive(
    cache: PartitionedAdaptiveCache, trace: Trace
) -> PartitionedResult:
    """Hoisted replay of a fresh partitioned adaptive cache: the partitioned
    primary slots through :func:`~repro.core.fastassoc._replay_adaptive`."""
    threads, blocks, slots = _primary_slots(cache, trace)
    counts, direct_hits, out_hits, outcome = _replay_adaptive(cache, slots, blocks)
    return _record(cache, threads, outcome > 0, counts, direct_hits, out_hits)


#: The fast path of each partitioned model (exact class only): path name
#: and kernel.  Both replay a cache whose stats are still empty.
_PARTITIONED_KERNELS = {
    StaticPartitionedCache: ("partitioned-static", _simulate_partitioned_fast),
    PartitionedAdaptiveCache: ("partitioned-adaptive", _simulate_partitioned_adaptive),
}


def simulate_partitioned(
    cache: StaticPartitionedCache, trace: Trace, engine: str = "auto"
) -> PartitionedResult:
    """Drive a partitioned cache from an interleaved multi-thread trace.

    ``engine="auto"`` (default) takes the model's fast path when the cache
    is exactly a :class:`StaticPartitionedCache` (vectorised) or a
    :class:`PartitionedAdaptiveCache` (hoisted replay) with empty stats;
    ``engine="sequential"`` forces the per-access reference loop.  Either
    way the result and the cache's end state are the same, and
    ``result.path`` names the path taken, as
    :func:`~repro.core.dispatch.dispatch` names it for cache objects.
    """
    check_engine(engine)
    addresses = trace.addresses
    threads = trace.thread
    is_write = trace.is_write
    if len(trace) and int(threads.max()) >= cache.num_threads:
        raise ValueError("trace references a thread outside the partitioning")
    kernel = _PARTITIONED_KERNELS.get(type(cache))
    if engine == "sequential":
        reason = "forced"
    elif kernel is None:
        reason = "no-kernel"
    elif cache.stats.accesses:
        reason = "warm-state"
    else:
        name, run = kernel
        result = run(cache, trace)
        result.path = f"fast:{name}"
        return result
    cycles = 0
    for i in range(addresses.size):
        cycles += cache.access(int(addresses[i]), int(threads[i]), bool(is_write[i]))
    return PartitionedResult(
        accesses=cache.stats.accesses,
        hits=cache.stats.hits,
        misses=cache.stats.misses,
        direct_hits=cache.stats.extra.get("direct_hits", 0),
        lookup_cycles=cycles,
        thread_misses=cache.thread_misses.copy(),
        path=f"sequential:{reason}",
    )
