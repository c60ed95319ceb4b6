"""Property-based tests for the vectorised kernels (Hypothesis).

The differential harness (``test_differential.py``) pins the kernels to
*specific* reference models; this file pins their *algebraic* properties
over machine-generated inputs:

* ``lru_miss_flags(..., ways=1)`` is exactly the direct-mapped recurrence;
* miss counts are monotonically non-increasing in associativity (the
  Mattson/LRU inclusion property — the very fact the kernel exploits);
* every access sequence pays at least its cold misses, and the fully-
  degenerate ``ways >= distinct blocks per set`` run pays *only* cold misses;
* :func:`per_set_counts` accepts unsigned / platform index dtypes (the
  ``np.bincount`` foot-gun this PR fixed) and handles empty traces and
  single-set geometries.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.fastsim import (
    direct_mapped_miss_flags,
    lru_miss_flags,
    lru_stack_distances,
    per_set_counts,
)

#: Small universes force heavy aliasing, the interesting regime.
access_arrays = st.integers(min_value=0, max_value=400).flatmap(
    lambda n: st.tuples(
        hnp.arrays(np.int64, n, elements=st.integers(min_value=0, max_value=40)),
        hnp.arrays(np.int64, n, elements=st.integers(min_value=0, max_value=11)),
    )
)


class TestKernelProperties:
    @given(access_arrays)
    @settings(max_examples=120, deadline=None)
    def test_ways_one_equals_direct_mapped(self, arrays):
        blocks, indices = arrays
        np.testing.assert_array_equal(
            lru_miss_flags(blocks, indices, 1),
            direct_mapped_miss_flags(blocks, indices),
        )

    @given(access_arrays)
    @settings(max_examples=120, deadline=None)
    def test_misses_monotone_non_increasing_in_ways(self, arrays):
        blocks, indices = arrays
        counts = [
            int(lru_miss_flags(blocks, indices, w).sum()) for w in (1, 2, 3, 4, 8, 16, 64)
        ]
        assert counts == sorted(counts, reverse=True)

    @given(access_arrays)
    @settings(max_examples=120, deadline=None)
    def test_cold_misses_bound_every_associativity(self, arrays):
        blocks, indices = arrays
        # Distinct (set, block) pairs = compulsory misses under any ways.
        cold = len(set(zip(indices.tolist(), blocks.tolist())))
        for ways in (1, 2, 8):
            assert int(lru_miss_flags(blocks, indices, ways).sum()) >= cold
        # With more ways than distinct blocks nothing is ever evicted.
        assert int(lru_miss_flags(blocks, indices, 64).sum()) == cold

    @given(access_arrays)
    @settings(max_examples=120, deadline=None)
    def test_stack_distance_structure(self, arrays):
        blocks, indices = arrays
        dist = lru_stack_distances(blocks, indices)
        # Exactly the first occurrence of each (set, block) pair is cold.
        cold = len(set(zip(indices.tolist(), blocks.tolist())))
        assert int((dist < 0).sum()) == cold
        # Warm distances are bounded by the set's distinct-block population.
        assert dist.max(initial=-1) < max(len(blocks), 1)


class TestPerSetCountsEdgeCases:
    @pytest.mark.parametrize(
        "dtype", [np.uint8, np.uint32, np.uint64, np.int32, np.intp, np.uintp]
    )
    def test_accepts_any_integer_dtype(self, dtype):
        indices = np.array([0, 3, 3, 1, 0, 3], dtype=dtype)
        miss = np.array([1, 0, 1, 0, 0, 1], dtype=bool)
        acc, mis = per_set_counts(indices, miss, 4)
        assert acc.tolist() == [2, 1, 0, 3]
        assert mis.tolist() == [1, 0, 0, 2]
        assert acc.dtype == np.int64 and mis.dtype == np.int64

    def test_rejects_non_integer_dtype(self):
        with pytest.raises(TypeError):
            per_set_counts(np.array([0.0, 1.0]), np.array([True, False]), 2)

    def test_empty_trace(self):
        acc, mis = per_set_counts(
            np.empty(0, dtype=np.uint32), np.empty(0, dtype=bool), 8
        )
        assert acc.shape == (8,) and mis.shape == (8,)
        assert int(acc.sum()) == 0 and int(mis.sum()) == 0

    def test_single_set(self):
        indices = np.zeros(5, dtype=np.uint64)
        miss = np.array([True, False, False, True, False])
        acc, mis = per_set_counts(indices, miss, 1)
        assert acc.tolist() == [5] and mis.tolist() == [2]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            per_set_counts(np.array([0, 1]), np.array([True]), 2)
