"""Adaptive group-associative cache (paper Section III.B; Peir et al.,
ASPLOS'98).

A direct-mapped array augmented with:

* **SHT** (set-reference history table) — an LRU list of the most recently
  used set indexes.  Sets present in the SHT are "hot"; their lines are
  protected.  Lines of sets that age out of the SHT become *disposable*
  (``d`` bit set), i.e. fair game for holding other sets' displaced data.
* **OUT** (out-of-position directory) — an LRU map from block identity to
  the alternate line currently holding it.  Probed in parallel with the
  cache, so an OUT hit costs 3 cycles total (per the paper's Section IV.B
  AMAT accounting) instead of 1.

Behaviour per access (following the paper's prose):

1. primary probe: hit → 1 cycle, SHT updated with the set.
2. primary miss → OUT probe: hit → 3 cycles; the block is swapped into its
   primary line and the displaced primary occupant takes over the alternate
   line (OUT updated to track it).
3. both miss → a true miss.  If the primary line is disposable — or holds an
   *out-of-position* block (one that was itself relocated here; such blocks
   are covered by the OUT directory and are never relocated a second time,
   which would cascade) — it is simply replaced.  If it holds a protected
   in-position victim, that victim is relocated into a disposable line: the
   *coldest* one (the line whose set aged out of the SHT longest ago) while
   the OUT has room, else the line named by the OUT's LRU entry, per the
   paper ("if the OUT directory is full then the least-recently used slot in
   the OUT directory is used"; its disposable bit is reset and the evicted
   tag recorded).

Default table sizes follow the paper's Section IV: SHT = 3/8 and
OUT = 4/16 (=1/4) of the number of cache sets.

The tables and these steps live in one base class, shared with the Fig. 14
partitioned cache (:mod:`repro.multithread.partitioned`), which differs only
in how an access finds its primary line.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..address import CacheGeometry
from ..indexing.base import IndexingScheme
from ..indexing.modulo import ModuloIndexing
from .base import EMPTY, AccessResult, CacheModel

__all__ = ["AdaptiveGroupAssociativeCache"]


class _AdaptiveDirectories:
    """The SHT/OUT state of a direct-mapped line array and its transitions.

    The one implementation of the policy above, shared by
    :class:`AdaptiveGroupAssociativeCache` and the thread-partitioned
    :class:`~repro.multithread.partitioned.PartitionedAdaptiveCache`, which
    differ only in how an access finds its primary line.  A host class has
    a ``stats`` (:class:`~repro.core.caches.base.CacheStats`) and calls
    :meth:`_init_directories` from its constructor.
    """

    #: Extra cycles charged on an OUT-directory hit (paper Eq. 8 uses 3 total).
    OUT_HIT_CYCLES = 3

    def _init_directories(self, num_lines: int, sht_fraction: float, out_fraction: float) -> None:
        self.sht_capacity = max(1, int(num_lines * sht_fraction))
        self.out_capacity = max(1, int(num_lines * out_fraction))
        self._blocks = np.full(num_lines, EMPTY, dtype=np.int64)
        self._disposable = np.ones(num_lines, dtype=bool)  # empty lines start disposable
        self._out_of_position = np.zeros(num_lines, dtype=bool)
        self._sht: OrderedDict[int, None] = OrderedDict()  # set index, LRU order
        self._out: OrderedDict[int, int] = OrderedDict()  # block -> alternate slot
        # Disposable lines ordered coldest-first (aging out of the SHT
        # appends; re-protection removes).  Seeded with every line.
        self._cold_pool: OrderedDict[int, None] = OrderedDict((s, None) for s in range(num_lines))

    # -- SHT management ------------------------------------------------------------

    def _sht_touch(self, slot: int) -> None:
        """Mark ``slot`` most-recently-used; demote the set it displaces."""
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

    # -- OUT management --------------------------------------------------------------

    def _select_relocation_target(self, slot: int) -> int | None:
        """Destination per the paper: the coldest disposable line while the
        OUT has room, else the line of the OUT's LRU entry."""
        if len(self._out) >= self.out_capacity and self._out:
            _, dest = next(iter(self._out.items()))  # LRU end
            return dest
        for cand in self._cold_pool:
            if cand != slot:
                return cand
        return None

    def _trim_out(self) -> None:
        while len(self._out) > self.out_capacity:
            blk, dest = self._out.popitem(last=False)
            # The block loses directory coverage; its line becomes disposable.
            if self._blocks[dest] == blk:
                self._make_disposable(dest)

    # -- access -----------------------------------------------------------------------

    def _place(self, slot: int, block: int) -> tuple[int, int | None]:
        """Access ``block`` whose primary line is ``slot``, recording the
        probes and the hit or miss.  Returns the line that hit (``slot`` on
        a direct hit, the alternate line on an OUT hit, -1 on a miss) and
        the block a miss evicted."""
        stats = self.stats
        stats.record_probe(slot)

        if self._blocks[slot] == block:
            self._sht_touch(slot)
            stats.record_hit(slot, "direct")
            return slot, None

        # OUT directory probed in parallel with the cache.
        alt = self._out.get(block)
        if alt is not None and self._blocks[alt] == block:
            stats.record_probe(alt)
            del self._out[block]
            displaced = int(self._blocks[slot])
            # Swap into the primary position for future 1-cycle hits.
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
            stats.record_hit(alt, "out")
            return alt, None
        if alt is not None:
            # Stale directory entry (alternate line was reused); drop it.
            del self._out[block]

        # True miss.
        evicted: int | None = None
        victim = int(self._blocks[slot])
        protected = (
            victim != EMPTY
            and not self._disposable[slot]
            and not self._out_of_position[slot]
        )
        if protected:
            dest = self._select_relocation_target(slot)
            if dest is not None:
                evicted_from_dest = int(self._blocks[dest])
                if evicted_from_dest != EMPTY:
                    evicted = evicted_from_dest
                    self._out.pop(evicted_from_dest, None)
                self._blocks[dest] = victim
                self._disposable[dest] = False
                self._cold_pool.pop(dest, None)
                self._out_of_position[dest] = True
                self._out[victim] = dest
                self._out.move_to_end(victim)
                self._trim_out()
            else:
                # No disposable line available: fall back to eviction.  The
                # victim's OUT entry, if any, stays: in a partitioned cache
                # whose threads share a block it names another copy.
                evicted = victim
        elif victim != EMPTY:
            # Disposable or out-of-position line: plain replacement.
            evicted = victim
            self._out.pop(victim, None)
        self._blocks[slot] = block
        self._out_of_position[slot] = False
        self._sht_touch(slot)
        stats.record_miss(slot)
        return -1, evicted

    # -- management ---------------------------------------------------------------------

    def contents(self) -> set[int]:
        return {int(b) for b in self._blocks if b != EMPTY}

    def check_invariants(self) -> None:
        """Table bounds, the cold pool, and two facts that hold while each
        block has one primary line (always in the AGAC; in a partitioned
        cache while no block is shared by two threads): no block is
        resident twice, and no block resident in position has an OUT
        entry."""
        resident = self._blocks[self._blocks != EMPTY]
        assert np.unique(resident).size == resident.size, "duplicate resident block"
        in_position = self._blocks[(self._blocks != EMPTY) & ~self._out_of_position]
        assert not any(int(b) in self._out for b in in_position), "in-position block in OUT"
        assert len(self._out) <= self.out_capacity
        assert len(self._sht) <= self.sht_capacity
        for slot in self._cold_pool:
            assert self._disposable[slot], "pool member not disposable"
        self.stats.check_invariants()

    def flush(self) -> None:
        self._blocks.fill(EMPTY)
        self._disposable.fill(True)
        self._out_of_position.fill(False)
        self._sht.clear()
        self._out.clear()
        self._cold_pool = OrderedDict((s, None) for s in range(self._blocks.size))


class AdaptiveGroupAssociativeCache(_AdaptiveDirectories, CacheModel):
    """Direct-mapped array + SHT/OUT directories + disposable bits."""

    name = "adaptive"

    def __init__(
        self,
        geometry: CacheGeometry,
        indexing: IndexingScheme | None = None,
        sht_fraction: float = 3 / 8,
        out_fraction: float = 4 / 16,
    ):
        if geometry.ways != 1:
            raise ValueError("adaptive group-associative cache is built on a 1-way geometry")
        super().__init__(geometry, num_slots=geometry.num_sets)
        self.indexing = indexing if indexing is not None else ModuloIndexing(geometry)
        self._init_directories(geometry.num_sets, sht_fraction, out_fraction)
        self._offset_bits = geometry.offset_bits

    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        slot = self.indexing.index_of(block << self._offset_bits)
        at, evicted = self._place(slot, block)
        if at < 0:
            return AccessResult(False, 1, slot, slot, evicted_block=evicted)
        if at == slot:
            return AccessResult(True, 1, slot, slot, hit_class="direct")
        return AccessResult(True, self.OUT_HIT_CYCLES, slot, at, hit_class="out")

    # -- AMAT fraction (Eq. 8 input) ----------------------------------------------

    @property
    def fraction_direct_hits(self) -> float:
        """Share of *hits* serviced by the primary probe (1 cycle)."""
        if not self.stats.hits:
            return 1.0
        return self.stats.extra.get("direct_hits", 0) / self.stats.hits
