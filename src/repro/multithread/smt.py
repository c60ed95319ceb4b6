"""Shared-L1 SMT cache with per-thread indexing (paper Section IV.E, Fig. 13).

An SMT core's threads share the L1; the paper's proposal gives each thread
its *own* indexing function (their experiments use odd-multiplier with a
different multiplier per thread) so the threads' hot lines land on
different sets instead of fighting over the same ones.

:class:`SMTSharedCache` is a direct-mapped shared array whose set index is
computed by the accessing thread's scheme from a
:class:`~repro.core.selector.ThreadSchemeTable`.  Lines store full block
identities, so correctness holds even though different threads hash
differently (threads have disjoint address spaces in our workloads, as
separate processes under SMT do).

:func:`simulate_smt` drives it from an interleaved multi-thread trace and
reports global and per-thread miss statistics.  Because the structure is a
direct-mapped array whose index stream is a pure per-thread function of the
addresses, the whole simulation vectorises: ``engine="auto"`` (the default)
groups the (slot, block) stream by slot once
(:class:`~repro.core.decompose.SetStream`, slots from per-thread index
arrays) and reads from that one grouping the misses (the run heads), the
cross-eviction count (the previous access to the same slot) and the final
contents (each slot's last access) — bit-identical to the sequential loop
(locked down by the differential tests), including the final cache
contents and stats.
``engine="sequential"`` forces the reference loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.address import CacheGeometry
from ..core.caches.base import EMPTY, CacheStats
from ..core.decompose import SetStream
from ..core.fastsim import per_set_counts
from ..core.selector import ThreadSchemeTable
from ..core.simulator import check_engine
from ..trace.event import Trace

__all__ = ["SMTSharedCache", "SMTResult", "simulate_smt"]


class SMTSharedCache:
    """Direct-mapped shared L1 with a per-thread index function."""

    name = "smt_shared"

    def __init__(self, geometry: CacheGeometry, schemes: ThreadSchemeTable):
        if geometry.ways != 1:
            raise ValueError("the SMT shared cache models a direct-mapped L1")
        for s in schemes.schemes:
            if s.geometry.num_sets != geometry.num_sets:
                raise ValueError("per-thread scheme geometry mismatch")
        self.geometry = geometry
        self.schemes = schemes
        self.stats = CacheStats(geometry.num_sets)
        self._blocks = np.full(geometry.num_sets, EMPTY, dtype=np.int64)
        self._owner = np.full(geometry.num_sets, -1, dtype=np.int16)
        self._offset_bits = geometry.offset_bits
        self.thread_hits = np.zeros(len(schemes), dtype=np.int64)
        self.thread_misses = np.zeros(len(schemes), dtype=np.int64)
        self.cross_evictions = 0  # thread A evicting thread B's line

    def access(self, address: int, thread: int, is_write: bool = False) -> bool:
        """Returns True on hit."""
        block = address >> self._offset_bits
        slot = self.schemes.scheme_for(thread).index_of(address)
        self.stats.accesses += 1
        self.stats.record_probe(slot)
        if self._blocks[slot] == block:
            self.stats.record_hit(slot, "direct")
            self.thread_hits[thread] += 1
            self._owner[slot] = thread
            return True
        if self._blocks[slot] != EMPTY and self._owner[slot] != thread:
            self.cross_evictions += 1
        self._blocks[slot] = block
        self._owner[slot] = thread
        self.stats.record_miss(slot)
        self.thread_misses[thread] += 1
        return False

    def flush(self) -> None:
        self._blocks.fill(EMPTY)
        self._owner.fill(-1)


@dataclass
class SMTResult:
    """Outcome of a shared-cache SMT simulation."""

    accesses: int
    misses: int
    thread_hits: np.ndarray
    thread_misses: np.ndarray
    cross_evictions: int
    slot_accesses: np.ndarray
    slot_misses: np.ndarray
    extra: dict[str, float] = field(default_factory=dict)
    #: How :func:`simulate_smt` produced the result (``fast:smt`` or
    #: ``sequential:<reason>``).  Metadata only: never stored, sent or keyed.
    path: str = field(default="", compare=False)

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def thread_miss_rate(self, thread: int) -> float:
        total = self.thread_hits[thread] + self.thread_misses[thread]
        return float(self.thread_misses[thread] / total) if total else 0.0


def _simulate_smt_fast(cache: SMTSharedCache, trace: Trace) -> SMTResult:
    """Vectorised path: requires a fresh (never-accessed) shared cache."""
    addresses = trace.addresses
    threads = np.asarray(trace.thread)
    n = addresses.size
    n_threads = len(cache.schemes)
    blocks = trace.blocks(cache._offset_bits).astype(np.int64)
    slots = np.zeros(n, dtype=np.int64)
    for t, scheme in enumerate(cache.schemes.schemes):
        mask = threads == t
        if np.any(mask):
            slots[mask] = np.asarray(scheme.indices_of(addresses[mask]), dtype=np.int64)
    # The shared array stores full block identities, so hit/miss is exactly
    # the direct-mapped recurrence over the interleaved (slot, block) stream:
    # the misses are the run heads of the slot-grouped stream.
    stream = SetStream.of(blocks, slots)
    miss = stream.unsort(~stream.repeat)
    # Owner of a slot before access i is the thread of the previous access to
    # that slot (every access, hit or miss, takes ownership); a cross
    # eviction is a miss on a previously-touched slot owned by another thread.
    # That previous access is the one before i in its slot's group.
    heads = stream.bounds[:-1]
    prev_sorted = np.empty(n, dtype=np.int64)
    prev_sorted[1:] = stream.order[:-1]
    prev_sorted[heads] = -1
    prev = stream.unsort(prev_sorted)
    warm = prev >= 0
    cross = miss & warm & (threads[np.maximum(prev, 0)] != threads)
    hit = ~miss
    thread_hits = np.bincount(threads[hit], minlength=n_threads).astype(np.int64)
    thread_misses = np.bincount(threads[miss], minlength=n_threads).astype(np.int64)
    slot_accesses, slot_misses = per_set_counts(slots, miss, cache.geometry.num_sets)
    slot_hits = slot_accesses - slot_misses
    hits = int(hit.sum())
    misses = n - hits
    cross_evictions = int(np.count_nonzero(cross))
    # Leave the cache object exactly as the sequential loop would: counters,
    # per-slot stats, ownership and final contents all match.
    stats = cache.stats
    stats.accesses += n
    stats.hits += hits
    stats.misses += misses
    if hits:
        stats.bump("direct_hits", hits)
    stats.slot_accesses += slot_accesses
    stats.slot_hits += slot_hits
    stats.slot_misses += slot_misses
    cache.thread_hits += thread_hits
    cache.thread_misses += thread_misses
    cache.cross_evictions += cross_evictions
    # Each touched slot ends holding its group's last access.
    touched = stream.sorted_gid[heads]
    last_pos = stream.order[stream.bounds[1:] - 1]
    cache._blocks[touched] = blocks[last_pos]
    cache._owner[touched] = threads[last_pos]
    return SMTResult(
        accesses=n,
        misses=misses,
        thread_hits=thread_hits,
        thread_misses=thread_misses,
        cross_evictions=cross_evictions,
        slot_accesses=slot_accesses,
        slot_misses=slot_misses,
    )


def simulate_smt(cache: SMTSharedCache, trace: Trace, engine: str = "auto") -> SMTResult:
    """Drive a shared cache from an interleaved multi-thread trace.

    ``engine="auto"`` (default) uses the vectorised fast path whenever it is
    exact — a plain :class:`SMTSharedCache` (not a subclass) starting from a
    fresh state; ``engine="sequential"`` forces the one-access-at-a-time
    reference loop (used by the differential tests).  ``result.path`` names
    the path taken, as :func:`~repro.core.dispatch.dispatch` names it for
    cache objects.
    """
    check_engine(engine)
    addresses = trace.addresses
    threads = trace.thread
    is_write = trace.is_write
    n_threads = len(cache.schemes)
    if len(trace) and int(threads.max()) >= n_threads:
        raise ValueError("trace references a thread with no indexing scheme")
    if engine == "sequential":
        reason = "forced"
    elif type(cache) is not SMTSharedCache:
        reason = "no-kernel"
    elif cache.stats.accesses:
        reason = "warm-state"
    else:
        result = _simulate_smt_fast(cache, trace)
        result.path = "fast:smt"
        return result
    for i in range(addresses.size):
        cache.access(int(addresses[i]), int(threads[i]), bool(is_write[i]))
    return SMTResult(
        accesses=cache.stats.accesses,
        misses=cache.stats.misses,
        thread_hits=cache.thread_hits.copy(),
        thread_misses=cache.thread_misses.copy(),
        cross_evictions=cache.cross_evictions,
        slot_accesses=cache.stats.slot_accesses.copy(),
        slot_misses=cache.stats.slot_misses.copy(),
        path=f"sequential:{reason}",
    )
