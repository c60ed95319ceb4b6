"""Exact kernels for the Section III bound and the extension models.

Three cache objects replay one access at a time in their reference
classes: the clairvoyant MIN bound (:class:`BeladyCache`), the
skewed-associative comparator (:class:`SkewedAssociativeCache`) and
on-line scheme switching (:class:`DynamicIndexCache`).  Each kernel here
decodes the trace once, vectorised, and then runs one loop over plain
lists (or, for dynamic indexing, one vectorised pass per window), with no
``AccessResult``, ``record_*`` or ``bump`` call per access:

* **Belady.** A miss at capacity evicts the resident block reused farthest
  in the future.  The kernel keeps the residents in a heap keyed
  ``(-next use, fill order)``.  A hit pushes the block's new entry and
  leaves the old one stale.  The stale entry's next use is the hit's own
  position, so it sorts below every live entry and is never popped while
  one is left; the heap is rebuilt from the residents when stale entries
  outnumber them.  Next uses are distinct positions except ``NEVER``, so
  the fill order breaks exactly the ties ``max(self._resident, ...)``
  breaks: among never-reused blocks, the first inserted.
* **Skewed.** Every bank's indices come from one ``indices_of`` call per
  bank; the lines and global-LRU stamps live in flat lists (slot
  ``bank * bank_sets + index``, as the model numbers them), and every
  access advances the clock and re-stamps the line it hits or fills, as
  the loop does.
* **Dynamic.** Between two window boundaries the index scheme is fixed,
  so a window is a direct-mapped run seeded with the previous window's end
  state: an access misses iff the block last seen in its set (within the
  window, else resident at its start) differs.  At each boundary the
  kernel writes the window's counters, ring buffer, tick and array into
  the cache and calls the model's own ``_maybe_switch``, so the reference
  code decides every switch (and its flush).

Each kernel leaves the result and the end state of
:func:`~repro.core.simulator.simulate` on a cold cache
(``tests/core/test_differential.py``).  They are entries of
:data:`repro.core.dispatch.KERNELS` (``fast:belady``, ``fast:skewed``,
``fast:dynamic``), which refuses a warm cache.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..trace.event import Trace
from .caches.base import EMPTY
from .caches.fully_associative import BeladyCache
from .caches.skewed import SkewedAssociativeCache
from .decompose import SetStream, decode
from .dynamic import DynamicIndexCache
from .fastassoc import _finalize
from .fastsim import per_set_counts
from .simulator import SimulationResult, _result_from_stats, simulate

__all__ = ["simulate_belady", "simulate_dynamic", "simulate_skewed"]


def simulate_belady(cache: BeladyCache, trace: Trace) -> SimulationResult:
    """MIN replacement from a heap of ``(-next use, fill order, block)``."""
    n = len(trace)
    blocks = trace.blocks(cache.geometry.offset_bits).astype(np.int64)
    if n > cache._trace.size or not np.array_equal(blocks, cache._trace[:n]):
        return simulate(cache, trace)  # raises where the loop raises
    blk = blocks.tolist()
    nxt = cache._next_use[:n].tolist()
    resident = cache._resident
    filled: dict[int, int] = {}  # block -> fill order
    heap: list[tuple[int, int, int]] = []
    cap = cache.capacity_lines
    push, pop = heapq.heappush, heapq.heappop
    hits = 0
    for i in range(n):
        b = blk[i]
        nu = nxt[i]
        if b in resident:
            resident[b] = nu
            push(heap, (-nu, filled[b], b))
            hits += 1
            if len(heap) > 4 * cap:
                heap = [(-v, filled[r], r) for r, v in resident.items()]
                heapq.heapify(heap)
            continue
        if len(resident) >= cap:
            while True:
                key, _, victim = pop(heap)
                if resident.get(victim) == -key:
                    break
            del resident[victim]
            del filled[victim]
        resident[b] = nu
        filled[b] = i
        push(heap, (-nu, i, b))
    cache._cursor = n
    return _finalize(
        cache,
        trace,
        accesses=n,
        hits=hits,
        misses=n - hits,
        cycles=n,
        slot_accesses=[n],
        slot_hits=[hits],
        slot_misses=[n - hits],
        extra={"direct_hits": hits},
    )


def simulate_skewed(cache: SkewedAssociativeCache, trace: Trace) -> SimulationResult:
    """One loop over each access's candidate lines, stamps in a flat list."""
    n = len(trace)
    decoded = [decode(scheme, trace, cache.bank_geometry) for scheme in cache.schemes]
    blocks = decoded[0][0]
    candidates = [idx + bank * cache._bank_sets for bank, (_, idx) in enumerate(decoded)]
    num_slots = cache.stats.num_slots
    slot_accesses = np.bincount(
        np.concatenate(candidates), minlength=num_slots
    ).tolist()
    lines = cache._blocks.ravel().tolist()
    stamp = cache._stamp.ravel().tolist()
    clock = cache._clock
    hit_l = [0] * num_slots
    mis_l = [0] * num_slots
    for b, cand in zip(blocks.tolist(), zip(*(c.tolist() for c in candidates))):
        clock += 1
        for s in cand:
            if lines[s] == b:
                stamp[s] = clock
                hit_l[s] += 1
                break
        else:
            # Fill an invalid candidate first, else the least recently
            # stamped (the first such, as np.argmin picks).
            for victim in cand:
                if lines[victim] == EMPTY:
                    break
            else:
                victim = min(cand, key=stamp.__getitem__)
            lines[victim] = b
            stamp[victim] = clock
            mis_l[cand[0]] += 1
    shape = cache._blocks.shape
    cache._blocks[:] = np.reshape(lines, shape)
    cache._stamp[:] = np.reshape(stamp, shape)
    cache._clock = clock
    hits = sum(hit_l)
    return _finalize(
        cache,
        trace,
        accesses=n,
        hits=hits,
        misses=n - hits,
        cycles=n,
        slot_accesses=slot_accesses,
        slot_hits=hit_l,
        slot_misses=mis_l,
        extra={"direct_hits": hits},
    )


def simulate_dynamic(cache: DynamicIndexCache, trace: Trace) -> SimulationResult:
    """One seeded direct-mapped pass per window; ``_maybe_switch`` between."""
    n = len(trace)
    geometry = cache.geometry
    num_sets = geometry.num_sets
    cache.reset_stats()
    stats = cache.stats
    resident = cache._blocks
    ring, history = cache._ring, cache.history
    decoded: list[tuple] = []  # (scheme, its indices over the whole trace)
    blocks = np.zeros(0, dtype=np.int64)
    step = max(cache.window, 1)
    for start in range(0, n, step):
        end = min(start + step, n)
        scheme = cache.current
        indices = next((idx for s, idx in decoded if s is scheme), None)
        if indices is None:
            blocks, indices = decode(scheme, trace, geometry)
            decoded.append((scheme, indices))
        blk, idx = blocks[start:end], indices[start:end]
        stream = SetStream.of(blk, idx)
        miss = ~stream.repeat
        heads = stream.bounds[:-1]
        head_sets = stream.sorted_gid[heads]
        miss[heads] = resident[head_sets] != stream.sorted_blk[heads]
        resident[head_sets] = stream.sorted_blk[stream.bounds[1:] - 1]
        miss = stream.unsort(miss)
        accesses, misses = per_set_counts(idx, miss, num_sets)
        window_misses = int(misses.sum())
        hits = (end - start) - window_misses
        stats.accesses += end - start
        stats.hits += hits
        stats.misses += window_misses
        stats.slot_accesses += accesses
        stats.slot_hits += accesses - misses
        stats.slot_misses += misses
        if hits:
            stats.bump("direct_hits", hits)
        tail = np.arange(max(start, end - history), end)
        ring[tail % history] = blocks[tail]
        cache._ring_pos = end % history
        cache._ring_fill = min(end, history)
        cache._tick = end
        cache._window_accesses += end - start
        cache._window_misses += window_misses
        if cache._window_accesses >= cache.window:
            cache._maybe_switch()
    return _result_from_stats(cache.name, trace.name, stats, n)
