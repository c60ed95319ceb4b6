"""Fully-associative cache — the theoretical uniformity bound.

Section III opens by noting that a fully-associative cache with a perfect
replacement policy accesses all lines uniformly and lower-bounds the miss
rate of the techniques under study.  This model provides the realistic
LRU/FIFO/random variants; :class:`BeladyCache` implements the clairvoyant
MIN/OPT policy for the true bound (it must be given the future trace).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..address import CacheGeometry
from .base import AccessResult, CacheModel

__all__ = ["FullyAssociativeCache", "BeladyCache"]

#: :class:`BeladyCache`'s next use of a block that is never accessed again.
NEVER = int(np.iinfo(np.int64).max)


class FullyAssociativeCache(CacheModel):
    """Single set spanning all lines; OrderedDict-backed LRU/FIFO."""

    name = "fully_associative"

    def __init__(self, geometry: CacheGeometry, policy: str = "lru"):
        super().__init__(geometry, num_slots=1)
        if policy not in ("lru", "fifo"):
            raise ValueError("FullyAssociativeCache supports 'lru' or 'fifo'")
        self.policy_name = policy
        self.capacity_lines = geometry.num_lines
        self._resident: OrderedDict[int, None] = OrderedDict()

    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        self.stats.record_probe(0)
        if block in self._resident:
            if self.policy_name == "lru":
                self._resident.move_to_end(block)
            self.stats.record_hit(0, "direct")
            return AccessResult(True, 1, 0, 0, hit_class="direct")
        evicted = None
        if len(self._resident) >= self.capacity_lines:
            evicted, _ = self._resident.popitem(last=False)
        self._resident[block] = None
        self.stats.record_miss(0)
        return AccessResult(False, 1, 0, 0, evicted_block=evicted)

    def contents(self) -> set[int]:
        return set(self._resident)

    def flush(self) -> None:
        self._resident.clear()


class BeladyCache(CacheModel):
    """Clairvoyant MIN replacement: evict the block reused farthest in future.

    Requires the complete block-address trace up front; :meth:`access` must be
    called with exactly that trace, in order.  Used only as an analytic bound.
    """

    name = "belady"

    def __init__(self, geometry: CacheGeometry, trace_blocks: np.ndarray):
        super().__init__(geometry, num_slots=1)
        self.capacity_lines = geometry.num_lines
        blocks = np.asarray(trace_blocks, dtype=np.int64).ravel()
        self._trace = blocks
        self._cursor = 0
        # next_use[i] = position of the next occurrence of blocks[i], or
        # NEVER: a stable sort lines each block's occurrences up in order.
        order = np.argsort(blocks, kind="stable")
        same = blocks[order[1:]] == blocks[order[:-1]]
        self._next_use = np.full(blocks.size, NEVER, dtype=np.int64)
        self._next_use[order[:-1][same]] = order[1:][same]
        self._resident: dict[int, int] = {}  # block -> its next-use position

    def _access_block(self, block: int, is_write: bool) -> AccessResult:
        i = self._cursor
        if i >= self._trace.size or int(self._trace[i]) != block:
            raise RuntimeError("BeladyCache accessed out of order with its trace")
        self._cursor += 1
        self.stats.record_probe(0)
        nxt = int(self._next_use[i])
        if block in self._resident:
            self._resident[block] = nxt
            self.stats.record_hit(0, "direct")
            return AccessResult(True, 1, 0, 0, hit_class="direct")
        evicted = None
        if len(self._resident) >= self.capacity_lines:
            # Evict the resident block whose next use is farthest away.
            evicted = max(self._resident, key=self._resident.__getitem__)
            del self._resident[evicted]
        self._resident[block] = nxt
        self.stats.record_miss(0)
        return AccessResult(False, 1, 0, 0, evicted_block=evicted)

    def contents(self) -> set[int]:
        return set(self._resident)

    def flush(self) -> None:
        self._resident.clear()
