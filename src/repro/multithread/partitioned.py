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
  primary placement, plus global SHT/OUT relocation exactly as in
  :class:`~repro.core.caches.adaptive.AdaptiveGroupAssociativeCache`
  (3-cycle OUT-hit path, Eq. 8 AMAT accounting).

The static baseline is a direct-mapped array whose slot stream is a pure
function of ``(thread, block)``, so :func:`simulate_partitioned` vectorises
it through :func:`~repro.core.fastsim.direct_mapped_miss_flags`
(``engine="auto"``; bit-identical to the sequential loop, which
``engine="sequential"`` forces and the differential tests exercise).  The
adaptive variant is stateful across threads and always runs sequentially.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..core.address import CacheGeometry, is_power_of_two
from ..core.amat import TimingModel, amat_adaptive, amat_direct_mapped
from ..core.caches.base import EMPTY, CacheStats
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


class PartitionedAdaptiveCache(StaticPartitionedCache):
    """Partitions for placement + global SHT/OUT spill (Pier's tables)."""

    name = "partitioned_adaptive"
    OUT_HIT_CYCLES = 3

    def __init__(
        self,
        geometry: CacheGeometry,
        num_threads: int,
        sht_fraction: float = 3 / 8,
        out_fraction: float = 4 / 16,
    ):
        super().__init__(geometry, num_threads)
        n = geometry.num_sets
        self.sht_capacity = max(1, int(n * sht_fraction))
        self.out_capacity = max(1, int(n * out_fraction))
        self._disposable = np.ones(n, dtype=bool)
        self._out_of_position = np.zeros(n, dtype=bool)
        self._sht: OrderedDict[int, None] = OrderedDict()
        self._out: OrderedDict[int, int] = OrderedDict()
        self._cold_pool: OrderedDict[int, None] = OrderedDict((s, None) for s in range(n))

    # SHT/OUT management mirrors AdaptiveGroupAssociativeCache (same cascade
    # guard and coldest-first pool); kept local because the slot arithmetic
    # (partitioned primary index) differs.

    def _sht_touch(self, slot: int) -> None:
        if slot in self._sht:
            self._sht.move_to_end(slot)
        else:
            self._sht[slot] = None
            if len(self._sht) > self.sht_capacity:
                cold, _ = self._sht.popitem(last=False)
                self._make_disposable(cold)
        self._disposable[slot] = False
        self._cold_pool.pop(slot, None)

    def _make_disposable(self, slot: int) -> None:
        if not self._disposable[slot]:
            self._disposable[slot] = True
            self._cold_pool[slot] = None
            self._cold_pool.move_to_end(slot)

    def _select_relocation_target(self, slot: int) -> int | None:
        if len(self._out) >= self.out_capacity and self._out:
            _, dest = next(iter(self._out.items()))
            return dest
        for cand in self._cold_pool:
            if cand != slot:
                return cand
        return None

    def access(self, address: int, thread: int, is_write: bool = False) -> int:
        block = address >> self._offset_bits
        slot = self.primary_slot(block, thread)
        self.stats.accesses += 1
        self.stats.record_probe(slot)
        if self._blocks[slot] == block:
            self._sht_touch(slot)
            self.stats.record_hit(slot, "direct")
            self.thread_hits[thread] += 1
            return 1
        alt = self._out.get(block)
        if alt is not None and self._blocks[alt] == block:
            self.stats.record_probe(alt)
            del self._out[block]
            displaced = int(self._blocks[slot])
            self._blocks[slot] = block
            self._out_of_position[slot] = False
            if displaced != EMPTY:
                self._blocks[alt] = displaced
                self._out_of_position[alt] = True
                self._disposable[alt] = False
                self._cold_pool.pop(alt, None)
                self._out[displaced] = alt
                self._out.move_to_end(displaced)
                self._trim_out()
            else:
                self._blocks[alt] = EMPTY
                self._out_of_position[alt] = False
                self._make_disposable(alt)
            self._sht_touch(slot)
            self.stats.record_hit(alt, "out")
            self.thread_hits[thread] += 1
            return self.OUT_HIT_CYCLES
        if alt is not None:
            del self._out[block]
        # Miss with optional relocation of a protected in-position victim.
        victim = int(self._blocks[slot])
        protected = (
            victim != EMPTY
            and not self._disposable[slot]
            and not self._out_of_position[slot]
        )
        if protected:
            dest = self._select_relocation_target(slot)
            if dest is not None:
                self._out.pop(int(self._blocks[dest]), None)
                self._blocks[dest] = victim
                self._disposable[dest] = False
                self._cold_pool.pop(dest, None)
                self._out_of_position[dest] = True
                self._out[victim] = dest
                self._out.move_to_end(victim)
                self._trim_out()
        elif victim != EMPTY:
            self._out.pop(victim, None)
        self._blocks[slot] = block
        self._out_of_position[slot] = False
        self._sht_touch(slot)
        self.stats.record_miss(slot)
        self.thread_misses[thread] += 1
        return 1

    def _trim_out(self) -> None:
        while len(self._out) > self.out_capacity:
            blk, dest = self._out.popitem(last=False)
            if self._blocks[dest] == blk:
                self._make_disposable(dest)

    def flush(self) -> None:
        super().flush()
        self._disposable.fill(True)
        self._out_of_position.fill(False)
        self._sht.clear()
        self._out.clear()
        self._cold_pool = OrderedDict((s, None) for s in range(self.geometry.num_sets))


@dataclass
class PartitionedResult:
    accesses: int
    hits: int
    misses: int
    direct_hits: int
    lookup_cycles: int
    thread_misses: np.ndarray

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


def _simulate_partitioned_fast(
    cache: StaticPartitionedCache, trace: Trace
) -> PartitionedResult:
    """Vectorised path for a fresh hard-walled partitioned cache."""
    threads = np.asarray(trace.thread).astype(np.int64)
    n = trace.addresses.size
    blocks = trace.blocks(cache._offset_bits).astype(np.int64)
    # The partitioned primary index, computed for the whole trace at once.
    slots = threads * cache.part_sets + (blocks & (cache.part_sets - 1))
    miss = direct_mapped_miss_flags(blocks, slots)
    hits = n - int(miss.sum())
    misses = n - hits
    thread_hits = np.bincount(threads[~miss], minlength=cache.num_threads).astype(
        np.int64
    )
    thread_misses = np.bincount(threads[miss], minlength=cache.num_threads).astype(
        np.int64
    )
    slot_accesses, slot_misses = per_set_counts(slots, miss, cache.geometry.num_sets)
    # Mirror the sequential loop's side effects on the cache object.
    stats = cache.stats
    stats.accesses += n
    stats.hits += hits
    stats.misses += misses
    if hits:
        stats.bump("direct_hits", hits)
    stats.slot_accesses += slot_accesses
    stats.slot_hits += slot_accesses - slot_misses
    stats.slot_misses += slot_misses
    cache.thread_hits += thread_hits
    cache.thread_misses += thread_misses
    if n:
        uniq, first_in_reversed = np.unique(slots[::-1], return_index=True)
        cache._blocks[uniq] = blocks[n - 1 - first_in_reversed]
    return PartitionedResult(
        accesses=n,
        hits=hits,
        misses=misses,
        direct_hits=hits,
        lookup_cycles=n,
        thread_misses=thread_misses,
    )


def simulate_partitioned(
    cache: StaticPartitionedCache, trace: Trace, engine: str = "auto"
) -> PartitionedResult:
    """Drive a partitioned cache from an interleaved multi-thread trace.

    ``engine="auto"`` (default) vectorises the hard-walled static baseline
    (exact: a plain :class:`StaticPartitionedCache`, fresh state); the
    adaptive subclass — stateful SHT/OUT tables spanning partitions — always
    runs the sequential reference loop, which ``engine="sequential"`` forces
    for every model.
    """
    check_engine(engine)
    addresses = trace.addresses
    threads = trace.thread
    is_write = trace.is_write
    if len(trace) and int(threads.max()) >= cache.num_threads:
        raise ValueError("trace references a thread outside the partitioning")
    if (
        engine == "auto"
        and type(cache) is StaticPartitionedCache
        and cache.stats.accesses == 0
    ):
        return _simulate_partitioned_fast(cache, trace)
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
    )
