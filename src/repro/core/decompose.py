"""Set decomposition: the shared front end of the exact fast kernels.

Every technique the paper compares is an address-to-set mapping, and every
fast kernel (:mod:`~repro.core.fastsim`, :mod:`~repro.core.fastpolicy`,
:mod:`~repro.core.fastassoc`, :mod:`~repro.core.aux.fast`) starts the same
way: decode the trace to ``(blocks, set indices)``, sort the stream stably by
group, collapse adjacent same-(group, block) repeats and find the group
bounds.  This module is that one pass:

* :func:`decode` — the only place a fast path calls ``indices_of``.
* :class:`SetStream` — the stably grouped view of a block stream, with the
  repeat compression and the previous-block-in-group shift computed lazily,
  so a kernel pays only for what it reads.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..trace.event import Trace
from .address import CacheGeometry
from .caches.base import EMPTY
from .indexing.base import IndexingScheme


def decode(
    scheme: IndexingScheme, trace: Trace, geometry: CacheGeometry
) -> tuple[np.ndarray, np.ndarray]:
    """``(blocks, indices)`` of a trace: ``int64`` block addresses and the
    set index of each access under ``scheme``.

    Indices are computed from the offset-zeroed addresses
    (``block << offset_bits``), exactly as the sequential caches index, so
    a scheme that reads offset bits maps every access to the same set on
    both engines.
    """
    off = np.uint64(geometry.offset_bits)
    addrs = trace.blocks(off) << off
    indices = np.ascontiguousarray(scheme.indices_of(addrs), dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= geometry.num_sets):
        raise ValueError("indexing scheme produced an out-of-range set index")
    # Shift back in place and reinterpret: ``addrs`` is a fresh array only
    # this call holds, so the blocks cost no second trace-sized array.
    addrs >>= off
    return addrs.view(np.int64), indices


class SetStream:
    """A block stream sorted stably by group id (program order within each
    group), in *sorted coordinates*.

    ``order`` maps sorted position → program position; ``sorted_gid`` and
    ``sorted_blk`` are the group ids and blocks in sorted order; ``bounds``
    holds each group's start offset plus the final end, so group ``k`` is
    ``[bounds[k], bounds[k + 1])``.  Group ids must be non-negative.

    The derived views are computed on first use.  A *repeat* is an access
    whose group and block both equal the previous sorted access's; the
    *kept* stream holds the run heads (every non-repeat), ``run_len`` the
    length of each run, and ``kept_bounds`` the group bounds within the
    kept arrays.
    """

    def __init__(self, order, sorted_gid, sorted_blk, bounds):
        self.order = order
        self.sorted_gid = sorted_gid
        self.sorted_blk = sorted_blk
        self.bounds = bounds

    @classmethod
    def of(cls, blocks: np.ndarray, group_ids: np.ndarray) -> "SetStream":
        blocks = np.asarray(blocks)
        gids = np.ascontiguousarray(group_ids, dtype=np.int64)
        if blocks.shape != gids.shape:
            raise ValueError("blocks and group ids must have equal shape")
        n = gids.size
        if n and int(gids.max()) < (1 << 62) // n:
            # Packed key gid * n + position is unique, sorts by (group,
            # program order) and decodes both the permutation and the sorted
            # ids — several times faster than a stable argsort plus a gather.
            # In-place steps keep the peak at three id-sized arrays.
            key = gids * np.int64(n)
            key += np.arange(n, dtype=np.int64)
            key.sort()
            sorted_gid = key // n
            key -= sorted_gid * n
            order = key
        else:  # ids too large to pack without overflow
            order = np.argsort(gids, kind="stable")
            sorted_gid = gids[order]
        starts = np.flatnonzero(sorted_gid[1:] != sorted_gid[:-1]) + 1
        bounds = np.concatenate(([0], starts, [n])) if n else np.zeros(1, np.int64)
        return cls(order, sorted_gid, blocks[order], bounds)

    @property
    def n(self) -> int:
        return int(self.order.size)

    def unsort(self, values: np.ndarray) -> np.ndarray:
        """Scatter a per-sorted-position array back to program order."""
        out = np.empty_like(values)
        out[self.order] = values
        return out

    @cached_property
    def repeat(self) -> np.ndarray:
        """True where an access repeats the previous access to its group."""
        rep = np.zeros(self.n, dtype=bool)
        rep[1:] = self.sorted_blk[1:] == self.sorted_blk[:-1]
        rep[self.bounds[:-1]] = False
        return rep

    @cached_property
    def kept_pos(self) -> np.ndarray:
        """Sorted positions of the run heads."""
        return np.flatnonzero(~self.repeat)

    @cached_property
    def run_len(self) -> np.ndarray:
        return np.diff(np.append(self.kept_pos, self.n))

    @cached_property
    def kept_gid(self) -> np.ndarray:
        return self.sorted_gid[self.kept_pos]

    @cached_property
    def kept_blk(self) -> np.ndarray:
        return self.sorted_blk[self.kept_pos]

    @cached_property
    def kept_bounds(self) -> np.ndarray:
        # A group's first access is never a repeat, so every group start is
        # a run head.
        return np.searchsorted(self.kept_pos, self.bounds)

    @cached_property
    def prev_blk(self) -> np.ndarray:
        """``int64`` block of the previous access to the same group
        (``EMPTY`` on each group's first access)."""
        prev = np.empty(self.n, dtype=np.int64)
        prev[1:] = self.sorted_blk[:-1]
        prev[self.bounds[:-1]] = EMPTY
        return prev
