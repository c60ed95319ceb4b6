"""The auxiliary structures: victim cache, miss cache, stream buffers.

Each structure implements the small :class:`AuxStructure` protocol the
:class:`~repro.core.aux.augmented.AugmentedCache` wrapper drives on every
main-array miss.  These methods are the sequential reference.  The replay
fast path (:mod:`repro.core.aux.fast`) does not call them: it runs one
fused loop that keeps the same state inline and writes it back into the
objects at the end, so the two engines are independent implementations
that ``tests/core/test_aux_differential.py`` holds equal.

Per main-array miss, in order:

1. ``probe(block, stats)`` — first structure to return True services the
   access (its ``hit_class``/``hit_cycles`` label the hit);
2. ``on_eviction(block, stats)`` — the block displaced from the main
   array is offered down the structure chain; a victim buffer absorbs it
   and returns its own overflow (or ``None``), everything else passes it
   through unchanged;
3. ``on_main_miss(block, stats)`` — every structure that did *not*
   service the access observes the main-array miss (stream buffers in
   ``allocate="always"`` mode allocate here);
4. ``on_full_miss(block, stats)`` — only when no structure serviced the
   access (miss cache allocation, stream buffers in the default
   ``allocate="miss"`` mode).

``stats`` is the wrapper's :class:`~repro.core.caches.base.CacheStats`;
structures use it only to ``bump`` their own extra counters (prefetch
issue counts and the like) — hit/miss accounting belongs to the wrapper.

For the three structures here the protocol reduces to the fused loop's
per-event rules: only a victim buffer acts on the displaced block, only a
miss cache or a ``"miss"``-mode stream buffer acts on a full miss, and a
stream-buffer queue is always ``range(h, h + depth)`` (allocation creates
it; a head hit pops ``h`` and appends the old tail + 1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict, deque

from ..caches.base import CacheStats

__all__ = ["AuxStructure", "VictimBuffer", "MissCache", "StreamBuffer"]


class AuxStructure(ABC):
    """One auxiliary structure beside a main cache array."""

    #: Short identity used in combo specs and model names ("vc"/"mc"/"sb").
    name: str = "aux"
    #: Stats class of a hit serviced here (becomes ``extra["<class>_hits"]``).
    hit_class: str = "aux"
    #: Lookup cycles billed for a hit serviced here.
    hit_cycles: int = 2
    #: Whether contents must stay disjoint from the main array (victim
    #: buffer: yes, by the swap semantics; miss cache: no, duplication is
    #: its defining trait; stream buffers hold not-yet-delivered blocks).
    exclusive: bool = False

    @abstractmethod
    def probe(self, block: int, stats: CacheStats) -> bool:
        """Service a main-array miss for ``block`` if resident here."""

    def on_eviction(self, block: int, stats: CacheStats) -> int | None:
        """Offer a block displaced from the main array; return what still
        leaves the hierarchy (``None`` if absorbed without overflow)."""
        return block

    def on_main_miss(self, block: int, stats: CacheStats) -> None:
        """Observe a main-array miss this structure did not service."""

    def on_full_miss(self, block: int, stats: CacheStats) -> None:
        """Observe a miss no structure serviced (the block is fetched)."""

    @abstractmethod
    def contents(self) -> set[int]:
        """Resident block addresses (for invariant checks)."""

    @abstractmethod
    def flush(self) -> None:
        """Invalidate all contents."""

    def check_invariants(self) -> None:
        pass

    @property
    def label(self) -> str:
        """Combo-spec label, e.g. ``vc4`` (used in canonical model names)."""
        return f"{self.name}{self.lines}"


class VictimBuffer(AuxStructure):
    """Jouppi's victim cache: a small fully-associative buffer of lines
    evicted from the main array.

    A probe hit removes the line (the wrapper swaps it back into the main
    array and offers the displaced line to :meth:`on_eviction`); insertion
    order is eviction order, the oldest entry overflowing first.  Because
    a resident entry can only ever be *removed* by a hit — never touched
    in place — insertion-order replacement and LRU coincide here.
    """

    name = "vc"
    hit_class = "victim"
    hit_cycles = 2
    exclusive = True

    def __init__(self, lines: int):
        if lines < 1:
            raise ValueError("victim buffer needs at least one line")
        self.lines = lines
        self._entries: OrderedDict[int, None] = OrderedDict()

    def probe(self, block: int, stats: CacheStats) -> bool:
        if block in self._entries:
            del self._entries[block]
            return True
        return False

    def on_eviction(self, block: int, stats: CacheStats) -> int | None:
        overflow = None
        if len(self._entries) >= self.lines:
            overflow, _ = self._entries.popitem(last=False)
        self._entries[block] = None
        return overflow

    def contents(self) -> set[int]:
        return set(self._entries)

    def flush(self) -> None:
        self._entries.clear()

    def check_invariants(self) -> None:
        assert len(self._entries) <= self.lines


class MissCache(AuxStructure):
    """Jouppi's miss cache: a small fully-associative LRU buffer filled
    with the *missed* line itself (allocate-on-miss).

    A probe hit refreshes the entry's recency and leaves it resident (the
    wrapper copies the block into the main array, so the miss cache
    deliberately duplicates main-array contents — the space cost that
    makes the victim cache strictly better per Jouppi's comparison).
    """

    name = "mc"
    hit_class = "miss_cache"
    hit_cycles = 2
    exclusive = False

    def __init__(self, lines: int):
        if lines < 1:
            raise ValueError("miss cache needs at least one line")
        self.lines = lines
        self._entries: OrderedDict[int, None] = OrderedDict()

    def probe(self, block: int, stats: CacheStats) -> bool:
        if block in self._entries:
            self._entries.move_to_end(block)
            return True
        return False

    def on_full_miss(self, block: int, stats: CacheStats) -> None:
        if block in self._entries:
            self._entries.move_to_end(block)
            return
        if len(self._entries) >= self.lines:
            self._entries.popitem(last=False)
        self._entries[block] = None

    def contents(self) -> set[int]:
        return set(self._entries)

    def flush(self) -> None:
        self._entries.clear()

    def check_invariants(self) -> None:
        assert len(self._entries) <= self.lines


class StreamBuffer(AuxStructure):
    """Jouppi's stream buffers: ``streams`` FIFO queues of ``depth``
    sequentially prefetched blocks each.

    A queue only ever hits on its *head* entry (the classic design: the
    head comparator is the cheap one); a head hit delivers the block,
    advances the queue and prefetches the next sequential block at the
    tail, keeping the stream running.  Allocation replaces the
    least-recently-used queue with a fresh ``[b+1 .. b+depth]`` stream —
    on every unserviced main-array miss when ``allocate="always"``, or
    only on misses no structure serviced (the default, ``"miss"``, which
    avoids re-allocating streams for misses a victim/miss cache already
    absorbed).

    Counters bumped into the wrapper's stats: ``stream_prefetches`` (every
    block ever enqueued — the denominator of prefetch *accuracy*) and
    ``stream_allocs`` (queues started).

    Allocation does not check whether a queue already runs the same
    stream, as in Jouppi's design: ``a``, ``a + span``, ``a`` (``span``
    mapping to the same set) leaves two queues headed at ``a + 1``.  The
    duplicate costs one queue of capacity and is kept on purpose.
    """

    name = "sb"
    hit_class = "stream"
    hit_cycles = 1
    exclusive = False

    _ALLOCATE_MODES = ("miss", "always")

    def __init__(self, depth: int, streams: int = 4, allocate: str = "miss"):
        if depth < 1:
            raise ValueError("stream buffer needs a prefetch depth of at least 1")
        if streams < 1:
            raise ValueError("stream buffer needs at least one queue")
        if allocate not in self._ALLOCATE_MODES:
            raise ValueError(
                f"unknown allocate-on-miss policy {allocate!r}; "
                f"known: {self._ALLOCATE_MODES}"
            )
        self.lines = depth  # queue depth doubles as the structure's size knob
        self.depth = depth
        self.streams = streams
        self.allocate = allocate
        #: LRU order: index 0 is the replacement candidate, -1 the MRU.
        self._queues: list[deque[int]] = []

    def probe(self, block: int, stats: CacheStats) -> bool:
        for i, queue in enumerate(self._queues):
            if queue and queue[0] == block:
                queue.popleft()
                queue.append((queue[-1] + 1) if queue else block + 1)
                stats.bump("stream_prefetches")
                self._queues.append(self._queues.pop(i))  # MRU
                return True
        return False

    def _allocate(self, block: int, stats: CacheStats) -> None:
        if len(self._queues) >= self.streams:
            self._queues.pop(0)
        self._queues.append(deque(range(block + 1, block + 1 + self.depth)))
        stats.bump("stream_allocs")
        stats.bump("stream_prefetches", self.depth)

    def on_main_miss(self, block: int, stats: CacheStats) -> None:
        if self.allocate == "always":
            self._allocate(block, stats)

    def on_full_miss(self, block: int, stats: CacheStats) -> None:
        if self.allocate == "miss":
            self._allocate(block, stats)

    def contents(self) -> set[int]:
        return {b for q in self._queues for b in q}

    def flush(self) -> None:
        self._queues.clear()

    def check_invariants(self) -> None:
        assert len(self._queues) <= self.streams
        assert all(len(q) <= self.depth for q in self._queues)

    @property
    def label(self) -> str:
        return f"sb{self.depth}"
