"""Simulation-engine tests: the vectorised fast path must agree exactly
with the sequential reference engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.address import PAPER_L1_GEOMETRY, CacheGeometry
from repro.core.caches import DirectMappedCache
from repro.core.fastsim import direct_mapped_miss_flags, per_set_counts
from repro.core.indexing import (
    ModuloIndexing,
    OddMultiplierIndexing,
    PrimeModuloIndexing,
    XorIndexing,
)
from repro.core.simulator import simulate, simulate_indexing, warmup_split
from repro.trace import Trace, sequential_sweep, uniform_trace, zipf_trace

G = PAPER_L1_GEOMETRY


class TestFastsim:
    def test_empty_trace(self):
        flags = direct_mapped_miss_flags(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert flags.size == 0

    def test_first_access_is_miss(self):
        flags = direct_mapped_miss_flags(np.array([1, 1, 1]), np.array([0, 0, 0]))
        assert flags.tolist() == [True, False, False]

    def test_conflict_detected(self):
        # Two blocks alternating in one set: every access misses.
        flags = direct_mapped_miss_flags(np.array([1, 2, 1, 2]), np.array([0, 0, 0, 0]))
        assert flags.all()

    def test_independent_sets(self):
        flags = direct_mapped_miss_flags(np.array([1, 2, 1, 2]), np.array([0, 1, 0, 1]))
        assert flags.tolist() == [True, True, False, False]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            direct_mapped_miss_flags(np.array([1, 2]), np.array([0]))

    def test_per_set_counts(self):
        idx = np.array([0, 0, 3, 3, 3])
        miss = np.array([True, False, True, False, False])
        acc, mis = per_set_counts(idx, miss, 4)
        assert acc.tolist() == [2, 0, 0, 3]
        assert mis.tolist() == [1, 0, 0, 1]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3)), min_size=1, max_size=200))
    def test_matches_naive_model(self, pairs):
        """Property: sort-based miss flags equal a dict-based DM model."""
        blocks = np.array([b for b, _ in pairs], dtype=np.int64)
        indices = np.array([s for _, s in pairs], dtype=np.int64)
        flags = direct_mapped_miss_flags(blocks, indices)
        resident: dict[int, int] = {}
        for i, (b, s) in enumerate(pairs):
            expected_miss = resident.get(s) != b
            assert flags[i] == expected_miss
            resident[s] = b


class TestVectorisedVsSequential:
    @pytest.mark.parametrize(
        "scheme_factory",
        [ModuloIndexing, XorIndexing, PrimeModuloIndexing, lambda g: OddMultiplierIndexing(g, 31)],
    )
    def test_engines_agree(self, scheme_factory, zipf):
        scheme = scheme_factory(G)
        fast = simulate_indexing(scheme, zipf, G)
        slow = simulate(DirectMappedCache(G, scheme), zipf)
        assert fast.misses == slow.misses
        assert fast.accesses == slow.accesses
        np.testing.assert_array_equal(fast.slot_misses, slow.slot_misses)
        np.testing.assert_array_equal(fast.slot_accesses, slow.slot_accesses)

    def test_engines_agree_on_sweep(self):
        t = sequential_sweep(10_000, stride=32)
        scheme = ModuloIndexing(G)
        assert simulate_indexing(scheme, t).misses == simulate(DirectMappedCache(G, scheme), t).misses

    def test_rejects_multiway_geometry(self, zipf):
        g2 = CacheGeometry(32 * 1024, 32, 2)
        with pytest.raises(ValueError):
            simulate_indexing(ModuloIndexing(G), zipf, g2)

    def test_lookup_cycles_one_per_access(self, zipf):
        res = simulate_indexing(ModuloIndexing(G), zipf)
        assert res.lookup_cycles == res.accesses


class TestWarmup:
    def test_warmup_excluded_from_stats(self, zipf):
        res = simulate(DirectMappedCache(G), zipf, warmup=5000)
        assert res.accesses == len(zipf) - 5000

    def test_warmup_engines_agree(self, zipf):
        """Direct-mapped state is the last block per set, so the kernel's
        full-trace flags past the prefix are a warmed-up ``simulate``'s."""
        scheme = ModuloIndexing(G)
        blocks = zipf.blocks(G.offset_bits).astype(np.int64)
        indices = scheme.indices_of(zipf.addresses)
        fast = direct_mapped_miss_flags(blocks, indices)[3000:]
        slow = simulate(DirectMappedCache(G, scheme), zipf, warmup=3000)
        assert int(fast.sum()) == slow.misses
        _, slot_misses = per_set_counts(indices[3000:], fast, G.num_sets)
        np.testing.assert_array_equal(slot_misses, slow.slot_misses)

    def test_warmup_reduces_cold_misses(self, uniform):
        cold = simulate_indexing(ModuloIndexing(G), uniform)
        warm = simulate(DirectMappedCache(G), uniform, warmup=10_000)
        assert warm.miss_rate <= cold.miss_rate + 0.05

    def test_warmup_too_long_rejected(self, zipf):
        with pytest.raises(ValueError):
            simulate(DirectMappedCache(G), zipf, warmup=len(zipf))


class TestWarmupSplit:
    def test_split_lengths(self, zipf):
        train, test = warmup_split(zipf, 0.25)
        assert len(train) == len(zipf) // 4
        assert len(train) + len(test) == len(zipf)

    def test_bad_fraction(self, zipf):
        with pytest.raises(ValueError):
            warmup_split(zipf, 0.0)


class TestSimulationResult:
    def test_amat_uses_cycles(self, zipf):
        res = simulate_indexing(ModuloIndexing(G), zipf)
        from repro.core.amat import TimingModel

        t = TimingModel(miss_penalty=10)
        assert res.amat(t) == pytest.approx(1.0 + res.miss_rate * 10)

    def test_summary_keys(self, zipf):
        s = simulate_indexing(ModuloIndexing(G), zipf).summary()
        assert {"model", "trace", "accesses", "misses", "miss_rate"} <= set(s)

    def test_fraction_helper(self, zipf):
        res = simulate_indexing(ModuloIndexing(G), zipf)
        assert res.fraction("direct_hits", "accesses") == pytest.approx(res.hit_rate)

    def test_invariant_check_hook(self, zipf):
        from repro.core.caches import ColumnAssociativeCache

        res = simulate(ColumnAssociativeCache(G), zipf, check_invariants_every=2000)
        assert res.accesses == len(zipf)
