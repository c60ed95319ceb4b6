"""Vectorised cache-simulation primitives (direct-mapped and k-way LRU).

A direct-mapped cache has a one-line "history" per set, so its hit/miss
outcome stream is a pure function of, per set, the sequence of block
addresses mapped there: an access misses iff it is the first access to its
set or the previous access to the same set carried a different block.

That observation turns direct-mapped simulation into sort + adjacent-compare,
which NumPy executes orders of magnitude faster than a Python loop.  This is
the fast path behind every indexing-scheme experiment (paper Figures 4, 9,
10, 13) and behind the Patel index search, which needs thousands of
whole-trace miss counts.

k-way LRU generalises the same idea through the classic *stack-distance*
observation (Mattson et al.): under LRU, an access hits a ``k``-way set iff
fewer than ``k`` distinct other blocks of the same set were touched since
the previous access to the same block.  :func:`lru_miss_flags` computes the
exact per-access reuse distances offline — stable sort by set, a
previous-occurrence pass, then an offline dominance-counting pass (the
vectorised equivalent of a Fenwick-tree sweep) — in O(n log n) NumPy work
with no per-access Python objects.  At ``ways=1`` it degenerates to
:func:`direct_mapped_miss_flags`.

The sequential engine in :mod:`repro.core.simulator` computes the same
outcomes one access at a time; the test-suite proves the two agree on random
and adversarial traces for every registered indexing scheme and for
ways ∈ {1, 2, 4, 8}.
"""

from __future__ import annotations

import numpy as np

from .decompose import SetStream

__all__ = [
    "direct_mapped_miss_flags",
    "direct_mapped_miss_count",
    "lru_miss_flags",
    "lru_miss_count",
    "lru_stack_distances",
    "lru_sweep_miss_flags",
    "per_set_counts",
]


def direct_mapped_miss_flags(blocks: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Boolean miss vector for a direct-mapped cache.

    Parameters
    ----------
    blocks:
        Block addresses (byte address with the offset dropped), any integer
        dtype; identity of the cached data.
    indices:
        Set index of each access under the indexing scheme being evaluated.

    Returns
    -------
    A boolean array: ``True`` where the access misses (cold or conflict).
    """
    # A run head misses: it starts its set's group (cold miss) or differs
    # from the block previously resident in the same set (conflict/capacity).
    stream = SetStream.of(blocks, indices)
    return stream.unsort(~stream.repeat)


def direct_mapped_miss_count(blocks: np.ndarray, indices: np.ndarray) -> int:
    """Total miss count; the Patel search's cost function (paper Eq. 6)."""
    return int(direct_mapped_miss_flags(blocks, indices).sum())


# -- k-way LRU via offline stack distances ------------------------------------------


def _previous_occurrence(sorted_idx: np.ndarray, sorted_blk: np.ndarray) -> np.ndarray:
    """``prev[j]`` = latest ``t < j`` with the same (set, block), else ``-1``.

    Positions are in the set-grouped (stably sorted by set) coordinate
    system, so equal pairs are adjacent after one more stable sort by block.
    """
    n = sorted_idx.size
    prev = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev
    # Primary key: set (already grouped); secondary: block; ties keep
    # program order because lexsort is stable.
    order = np.lexsort((sorted_blk, sorted_idx))
    same = (sorted_idx[order[1:]] == sorted_idx[order[:-1]]) & (
        sorted_blk[order[1:]] == sorted_blk[order[:-1]]
    )
    prev[order[1:][same]] = order[:-1][same]
    return prev


def _count_before_leq(
    values: np.ndarray, query_pos: np.ndarray, query_val: np.ndarray
) -> np.ndarray:
    """Offline dominance counting: ``#{t < query_pos[q] : values[t] <= query_val[q]}``.

    The vectorised stand-in for a Fenwick-tree sweep: a bottom-up
    merge-sort-shaped pass.  At level ``w`` every window of ``2w`` positions
    is split into a left half (potential ``t``) and a right half (potential
    queries); the contribution of each left half to its sibling's queries is
    one ``searchsorted`` over a single concatenated key array, where keys are
    offset by the window id so windows occupy disjoint key ranges.  Every
    (t, query) pair with ``t < query_pos`` is counted at exactly one level —
    the level where ``t`` and the query first fall into sibling halves.
    O(n log² n) work, all of it inside NumPy.
    """
    n = int(values.size)
    nq = int(query_pos.size)
    counts = np.zeros(nq, dtype=np.int64)
    if n == 0 or nq == 0:
        return counts
    # Keys are window_id * stride + (value + 1); values live in [-1, n).
    stride = np.int64(n + 2)
    positions = np.arange(n, dtype=np.int64)
    shifted = values.astype(np.int64) + 1
    q_shifted = query_val.astype(np.int64) + 1

    # Base case: all (t, query) pairs sharing one W0-aligned window, counted
    # by direct broadcast comparison — one vector op replaces the bottom
    # log2(W0) levels, where the per-level sort/searchsorted overhead would
    # dominate the tiny windows.
    base = 16
    n_padded = -(-n // base) * base
    padded = np.full(n_padded, np.int64(n + 1))  # sentinel > every threshold
    padded[:n] = shifted
    windows = padded.reshape(-1, base)
    gathered = windows[query_pos // base]
    local = (query_pos % base)[:, None]
    offsets = np.arange(base, dtype=np.int64)[None, :]
    counts += ((gathered <= q_shifted[:, None]) & (offsets < local)).sum(axis=1)

    w = base
    while w < n:
        width = 2 * w
        # t in the left half of its window, queries in the right half.
        left_mask = (positions % width) < w
        q_in_right = (query_pos % width) >= w
        if np.any(q_in_right):
            left_keys = np.sort(
                (positions[left_mask] // width) * stride + shifted[left_mask]
            )
            q_window = query_pos[q_in_right] // width
            q_keys = q_window * stride + q_shifted[q_in_right]
            hi = np.searchsorted(left_keys, q_keys, side="right")
            # Every window before q_window holds exactly w left-half
            # positions (only the final window can be partial, and no query
            # lies beyond it), so the start offset is pure arithmetic — no
            # second searchsorted needed.
            counts[q_in_right] += hi - q_window * w
        w = width
    return counts


def lru_stack_distances(blocks: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Exact per-access LRU stack distances under an arbitrary set mapping.

    Returns an ``int64`` array: ``distance[i]`` is the number of *distinct
    other* blocks of access ``i``'s set touched since the previous access to
    the same block, or ``-1`` for a cold (first-ever) access.  An access hits
    a ``k``-way LRU set iff ``0 <= distance[i] < k`` — the Mattson inclusion
    property, which yields miss vectors for *every* associativity from one
    pass.
    """
    stream = SetStream.of(blocks, indices)
    # Exact stream compression: an access repeating the previous access to
    # its set touches the set's MRU block, so its stack distance is 0 — and
    # removing it changes no other access's distinct-in-window count (the
    # window that contains the repeat also contains the adjacent original:
    # if the original *were* the window's left boundary p(j), the repeat
    # would be an occurrence of block(j) inside (p(j), j), contradicting
    # p(j)'s definition).  The costly dominance pass then runs only on the
    # direct-mapped-miss substream, typically a small fraction of the trace.
    kept_idx = stream.kept_gid
    kept_blk = stream.kept_blk
    prev = _previous_occurrence(kept_idx, kept_blk)
    warm = np.flatnonzero(prev >= 0)
    dist_kept = np.full(kept_idx.size, -1, dtype=np.int64)
    if warm.size:
        p = prev[warm]
        # #{t < j : prev[t] <= p(j)} counts (a) every t <= p(j) — trivially,
        # since prev[t] < t — and (b) the first in-window occurrence of each
        # distinct block between p(j) and j, which all share j's set because
        # set groups are contiguous.  Subtracting the p(j)+1 trivial hits
        # leaves exactly the distinct-others count: the stack distance.
        dist_kept[warm] = _count_before_leq(prev, warm, p) - (p + 1)
    dist_sorted = np.zeros(stream.n, dtype=np.int64)
    dist_sorted[stream.kept_pos] = dist_kept
    return stream.unsort(dist_sorted)


def lru_miss_flags(blocks: np.ndarray, indices: np.ndarray, ways: int) -> np.ndarray:
    """Boolean miss vector for a ``ways``-way LRU cache under any set mapping.

    Exact and bit-identical to driving
    :class:`~repro.core.caches.set_associative.SetAssociativeCache` (LRU
    policy) one access at a time, for any associativity and any
    (not necessarily power-of-two) set-index range; ``ways=1`` degenerates to
    :func:`direct_mapped_miss_flags` and is routed there directly.
    """
    if ways < 1:
        raise ValueError("ways must be a positive integer")
    if ways == 1:
        return direct_mapped_miss_flags(blocks, indices)
    distances = lru_stack_distances(blocks, indices)
    return (distances < 0) | (distances >= ways)


def lru_sweep_miss_flags(
    blocks: np.ndarray, indices: np.ndarray, ways_list
) -> dict[int, np.ndarray]:
    """Miss vectors for *every* requested associativity from one distance pass.

    The Mattson inclusion property makes the per-access stack distance a
    sufficient statistic for LRU hit/miss at any associativity, so an
    associativity sweep costs one :func:`lru_stack_distances` pass plus one
    cheap threshold per member instead of one full pass per member.  Each
    returned vector is bit-identical to ``lru_miss_flags(blocks, indices,
    ways)`` for that ``ways`` (``ways=1`` included: ``distance != 0`` is
    exactly the direct-mapped outcome).

    Returns ``{ways: boolean miss vector}`` over the distinct requested
    associativities.
    """
    ways_list = [int(w) for w in ways_list]
    if any(w < 1 for w in ways_list):
        raise ValueError("ways must be positive integers")
    if not ways_list:
        return {}
    distances = lru_stack_distances(blocks, indices)
    return {
        w: (distances < 0) | (distances >= w) for w in dict.fromkeys(ways_list)
    }


def lru_miss_count(blocks: np.ndarray, indices: np.ndarray, ways: int) -> int:
    """Total k-way LRU miss count (associativity sweeps, bounds tables)."""
    return int(lru_miss_flags(blocks, indices, ways).sum())


def per_set_counts(
    indices: np.ndarray, miss: np.ndarray, num_sets: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-set (accesses, misses) histograms from an outcome vector.

    Accepts any integer dtype for ``indices`` — including unsigned and
    platform index dtypes (``uint32``/``uintp``), which ``np.bincount``
    rejects on some platforms — by casting to ``int64`` up front.
    """
    indices = np.asarray(indices)
    if indices.dtype != np.int64:
        if not np.issubdtype(indices.dtype, np.integer):
            raise TypeError(f"indices must be integers, got dtype {indices.dtype}")
        indices = indices.astype(np.int64)
    miss = np.asarray(miss, dtype=bool)
    if indices.shape != miss.shape:
        raise ValueError("indices and miss must have equal shape")
    accesses = np.bincount(indices, minlength=num_sets).astype(np.int64)
    misses = np.bincount(indices[miss], minlength=num_sets).astype(np.int64)
    return accesses, misses
