"""Patel application-specific index search (paper Section II.F, ICCAD'04).

Patel et al. search over index-bit combinations for the one minimising the
conflict cost of a trace (paper Eqs. 6-7: the summed conflict patterns, i.e.
the number of times an address finds its set occupied by a different block).
The paper *describes* the method but excludes it from the evaluation as
intractable — an exhaustive search over C(27, 10) ≈ 8.4M bit subsets, each
needing a whole-trace simulation.

We implement a bounded variant as an extension, with the exact cost function
(direct-mapped miss count via the vectorised simulator) and two budgeted
search strategies:

* greedy forward selection — grow the bit set one position at a time, keeping
  the bit whose addition yields the lowest miss count (each step refines the
  previous step's set grouping instead of sorting, :func:`greedy_positions`);
* first-improvement local search — swap selected/unselected bits while any
  swap lowers the cost, up to a move budget.

With both budgets set high and a tiny address width this recovers the true
optimum (verified in tests against brute force); with defaults it is a
practical approximation the original authors also resort to for large
traces.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..address import CacheGeometry, gather_bits, gather_bits_vec
from ..fastsim import direct_mapped_miss_count
from .base import TrainableIndexingScheme, register_scheme
from .bit_select import candidate_bit_positions

__all__ = ["PatelIndexing", "exhaustive_best_positions", "greedy_positions"]


def _cost(blocks: np.ndarray, positions: tuple[int, ...]) -> int:
    """Trace miss count when indexing by ``positions`` over block addresses."""
    indices = gather_bits_vec(blocks, positions)
    return direct_mapped_miss_count(blocks, indices)


def _run_heads(stream: np.ndarray) -> int:
    """The first access plus every change of block."""
    return int(stream.size and 1 + np.count_nonzero(stream[1:] != stream[:-1]))


def _heads_only(stream: np.ndarray) -> np.ndarray:
    keep = np.ones(stream.size, dtype=bool)
    keep[1:] = stream[1:] != stream[:-1]
    return stream[keep]


def greedy_positions(
    blocks: np.ndarray, candidates: tuple[int, ...], count: int
) -> tuple[list[int], int]:
    """Greedy forward selection of ``count`` bits, each the first candidate
    whose addition gives the fewest misses; returns the bits and their
    ``_cost``.

    Incremental, with no sort: the stream is kept grouped by the selected
    bits, each set contiguous and in program order, so its miss count is its
    run-head count (a block always maps to one set, so a change of set is a
    change of block).  Adding a bit splits every set stably into its bit-0
    and bit-1 accesses: a candidate's cost is the run-head count of the two
    filtered streams, and the chosen bit's refinement is their
    concatenation.  A run is one block, so one bit value, and never splits:
    the stream is kept at its run heads, as long as the current cost.
    """
    blocks = np.asarray(blocks, dtype=np.uint64).ravel()
    stream = _heads_only(blocks)
    selected: list[int] = []
    remaining = list(candidates)
    cost = stream.size
    for _ in range(count):
        best_bit, best_cost, best_ones = None, None, None
        for bit in remaining:
            ones = (stream & np.uint64(1 << bit)) != 0
            c = _run_heads(stream[~ones]) + _run_heads(stream[ones])
            if best_cost is None or c < best_cost:
                best_bit, best_cost, best_ones = bit, c, ones
        assert best_bit is not None
        selected.append(best_bit)
        remaining.remove(best_bit)
        stream = _heads_only(np.concatenate([stream[~best_ones], stream[best_ones]]))
        cost = best_cost
    return selected, cost


def exhaustive_best_positions(
    blocks: np.ndarray, candidates: tuple[int, ...], count: int
) -> tuple[tuple[int, ...], int]:
    """True optimum by enumeration — exponential; for tests and tiny pools."""
    best: tuple[int, ...] | None = None
    best_cost = None
    for combo in itertools.combinations(candidates, count):
        c = _cost(blocks, combo)
        if best_cost is None or c < best_cost:
            best, best_cost = combo, c
    assert best is not None and best_cost is not None
    return best, best_cost


@register_scheme
class PatelIndexing(TrainableIndexingScheme):
    """Budgeted conflict-cost-minimising bit selection."""

    name = "patel"

    def __init__(
        self,
        geometry: CacheGeometry,
        max_swap_moves: int = 64,
        include_offset_bits: bool = False,
    ):
        super().__init__(geometry)
        self.max_swap_moves = max_swap_moves
        self.include_offset_bits = include_offset_bits
        self.positions: tuple[int, ...] = ()
        self.cost_: int | None = None
        self._candidates = candidate_bit_positions(geometry, include_offset_bits)
        self._shift = 0 if include_offset_bits else geometry.offset_bits

    # -- training ----------------------------------------------------------------

    def fit(self, addresses: np.ndarray) -> "PatelIndexing":
        addresses = np.asarray(addresses, dtype=np.uint64).ravel()
        if addresses.size == 0:
            raise ValueError("empty profiling trace")
        blocks = addresses >> np.uint64(self.geometry.offset_bits)
        m = self.geometry.index_bits
        # Work in block-address bit coordinates to keep gather cheap, then
        # translate back to byte-address positions at the end.
        block_candidates = tuple(p - self.geometry.offset_bits for p in self._candidates
                                 if p >= self.geometry.offset_bits)
        selected, _ = greedy_positions(blocks, block_candidates, m)
        selected, cost = self._local_search(blocks, block_candidates, selected)
        self.positions = tuple(p + self.geometry.offset_bits for p in selected)
        self.cost_ = cost
        self._fitted = True
        return self

    def _local_search(
        self, blocks: np.ndarray, candidates: tuple[int, ...], selected: list[int]
    ) -> tuple[list[int], int]:
        current = list(selected)
        cost = _cost(blocks, tuple(current))
        moves = 0
        improved = True
        while improved and moves < self.max_swap_moves:
            improved = False
            outside = [b for b in candidates if b not in current]
            for i, inner in enumerate(current):
                for outer in outside:
                    trial = list(current)
                    trial[i] = outer
                    c = _cost(blocks, tuple(trial))
                    moves += 1
                    if c < cost:
                        current, cost = trial, c
                        improved = True
                        break
                    if moves >= self.max_swap_moves:
                        break
                if improved or moves >= self.max_swap_moves:
                    break
        return current, cost

    # -- mapping ----------------------------------------------------------------

    def index_of(self, address: int) -> int:
        self._require_fitted()
        return gather_bits(address, self.positions)

    def indices_of(self, addresses: np.ndarray) -> np.ndarray:
        self._require_fitted()
        return gather_bits_vec(np.asarray(addresses, dtype=np.uint64), self.positions).astype(np.int64)
