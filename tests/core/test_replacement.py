"""Replacement-policy tests, including an oracle cross-check for LRU."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fastpolicy
from repro.core.address import CacheGeometry
from repro.core.fastpolicy import simulate_policy_sweep
from repro.core.indexing import ModuloIndexing
from repro.core.replacement import (
    POLICIES,
    FIFOPolicy,
    LFUPolicy,
    LRUPolicy,
    MRUPolicy,
    PLRUPolicy,
    RandomPolicy,
    make_policy,
)
from repro.core.simulator import simulate_indexing
from repro.trace import uniform_trace


class TestRegistry:
    def test_all_policies_registered(self):
        assert set(POLICIES) == {"lru", "fifo", "random", "plru", "mru", "lfu"}

    def test_make_policy(self):
        p = make_policy("lru", 4, 2)
        assert isinstance(p, LRUPolicy)

    def test_make_unknown_raises(self):
        with pytest.raises(KeyError):
            make_policy("belady", 4, 2)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            LRUPolicy(0, 2)


class TestLRU:
    def test_evicts_least_recent(self):
        p = LRUPolicy(1, 4)
        for way in range(4):
            p.touch(0, way)
        p.touch(0, 0)  # way 1 now oldest
        assert p.victim(0) == 1

    def test_untouched_ways_preferred(self):
        p = LRUPolicy(2, 4)
        p.touch(0, 0)
        p.touch(0, 2)
        assert p.victim(0) in (1, 3)

    def test_sets_independent(self):
        p = LRUPolicy(2, 2)
        p.touch(0, 0)
        p.touch(0, 1)
        # Set 1 untouched: any way is a valid victim (stamp -1).
        assert p.victim(1) in (0, 1)
        assert p.victim(0) == 0

    def test_invalidate_resets(self):
        p = LRUPolicy(1, 2)
        p.touch(0, 0)
        p.touch(0, 1)
        p.invalidate(0, 1)
        assert p.victim(0) == 1

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=60))
    def test_against_ordered_dict_oracle(self, touches):
        """LRUPolicy.victim must agree with an OrderedDict LRU model."""
        p = LRUPolicy(1, 4)
        oracle: OrderedDict[int, None] = OrderedDict((w, None) for w in range(4))
        for way in touches:
            p.touch(0, way)
            oracle.move_to_end(way)
        assert p.victim(0) == next(iter(oracle))


class TestFIFO:
    def test_hits_do_not_reorder(self):
        p = FIFOPolicy(1, 2)
        p.fill(0, 0)
        p.fill(0, 1)
        p.touch(0, 0)  # a hit
        assert p.victim(0) == 0

    def test_fill_order(self):
        p = FIFOPolicy(1, 3)
        for way in (2, 0, 1):
            p.fill(0, way)
        assert p.victim(0) == 2


class TestRandom:
    def test_deterministic_given_seed(self):
        a = RandomPolicy(1, 8, seed=42)
        b = RandomPolicy(1, 8, seed=42)
        assert [a.victim(0) for _ in range(20)] == [b.victim(0) for _ in range(20)]

    def test_reset_replays(self):
        p = RandomPolicy(1, 8, seed=7)
        first = [p.victim(0) for _ in range(10)]
        p.reset()
        assert [p.victim(0) for _ in range(10)] == first

    def test_in_range(self):
        p = RandomPolicy(1, 4, seed=0)
        assert all(0 <= p.victim(0) < 4 for _ in range(100))


class TestPLRU:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            PLRUPolicy(1, 3)

    def test_victim_avoids_most_recent(self):
        p = PLRUPolicy(1, 4)
        for way in range(4):
            p.touch(0, way)
        # The most recently touched way is never the PLRU victim.
        assert p.victim(0) != 3

    def test_two_way_is_exact_lru(self):
        p = PLRUPolicy(1, 2)
        lru = LRUPolicy(1, 2)
        rng = np.random.default_rng(0)
        for way in rng.integers(0, 2, size=50):
            p.touch(0, int(way))
            lru.touch(0, int(way))
            assert p.victim(0) == lru.victim(0)

    def test_single_way(self):
        p = PLRUPolicy(1, 1)
        p.touch(0, 0)
        assert p.victim(0) == 0


class TestMRU:
    def test_evicts_most_recent_when_full(self):
        p = MRUPolicy(1, 3)
        for way in range(3):
            p.touch(0, way)
        assert p.victim(0) == 2

    def test_prefers_untouched(self):
        p = MRUPolicy(1, 3)
        p.touch(0, 0)
        assert p.victim(0) == 1


class TestTieBreakContracts:
    """Lock the tie-break determinism the fastpolicy kernels replicate.

    The module docstring of :mod:`repro.core.replacement` promises that
    every argmin/argmax victim walk resolves ties toward the lowest way
    index and that ``RandomPolicy`` replays word-for-word across
    ``reset()``.  These regressions pin that contract: if any of them
    breaks, :mod:`repro.core.fastpolicy` is no longer bit-exact.
    """

    def test_lfu_equal_counts_pick_lowest_way(self):
        p = LFUPolicy(1, 4)
        for way in range(4):
            p.touch(0, way)  # all counts equal (1)
        assert p.victim(0) == 0
        p.touch(0, 0)  # way 0 now ahead; 1..3 tie at 1
        assert p.victim(0) == 1

    def test_lfu_zero_count_ties_pick_lowest_way(self):
        assert LFUPolicy(1, 4).victim(0) == 0

    def test_fifo_never_filled_ties_pick_lowest_way(self):
        p = FIFOPolicy(1, 4)
        assert p.victim(0) == 0
        p.fill(0, 0)
        assert p.victim(0) == 1  # ways 1..3 still tie at -1

    def test_mru_untouched_ties_pick_lowest_way(self):
        p = MRUPolicy(1, 4)
        assert p.victim(0) == 0
        p.touch(0, 2)
        assert p.victim(0) == 0  # untouched {0,1,3}: lowest first

    def test_mru_full_victim_is_previous_touch(self):
        # The strictly increasing clock makes argmax unique: the victim is
        # exactly the way of the set's previous touch (the reduction the
        # MRU fast kernel relies on).
        p = MRUPolicy(1, 4)
        rng = np.random.default_rng(3)
        for way in range(4):
            p.touch(0, way)
        for way in rng.integers(0, 4, size=60):
            p.touch(0, int(way))
            assert p.victim(0) == int(way)

    def test_lru_untouched_ties_pick_lowest_way(self):
        p = LRUPolicy(1, 4)
        p.touch(0, 1)
        assert p.victim(0) == 0  # untouched {0,2,3} tie at -1

    def test_plru_all_zero_bits_walk_to_way_zero(self):
        for ways in (1, 2, 4, 8):
            assert PLRUPolicy(1, ways).victim(0) == 0, ways

    def test_plru_retouch_idempotent(self):
        # Re-touching the most recent way rewrites the same bits — the
        # property that lets the fast kernel collapse hit runs.
        p = PLRUPolicy(1, 8)
        rng = np.random.default_rng(5)
        for way in rng.integers(0, 8, size=40):
            p.touch(0, int(way))
            before = p._bits.copy()
            p.touch(0, int(way))
            np.testing.assert_array_equal(p._bits, before)

    def test_random_victim_sequence_word_exact_across_reset(self):
        # The exact draw stream (not just its distribution) is contract:
        # the Random fast kernel reconstructs the post-run generator by
        # advancing a fresh one, which is only exact if reset() replays
        # word-for-word.
        p = RandomPolicy(4, 8, seed=2011)
        first = [p.victim(i % 4) for i in range(64)]
        state = p._rng.bit_generator.state
        p.reset()
        assert [p.victim(i % 4) for i in range(64)] == first
        assert p._rng.bit_generator.state == state

    def test_random_touch_and_fill_consume_no_randomness(self):
        p = RandomPolicy(2, 4, seed=9)
        state = p._rng.bit_generator.state
        p.touch(0, 1)
        p.fill(1, 2)
        assert p._rng.bit_generator.state == state

    def test_random_bulk_draws_match_scalar(self):
        # NumPy's bulk integers() must consume the PCG64 stream exactly
        # like scalar draws (the Random kernel's bulk mode; fastpolicy
        # probes this at runtime and falls back if it ever changes).
        for ways in (2, 4, 8):
            a = np.random.default_rng(42)
            b = np.random.default_rng(42)
            scal = [int(a.integers(ways)) for _ in range(50)]
            bulk = b.integers(ways, size=50).tolist()
            assert scal == bulk, ways
            assert a.bit_generator.state == b.bit_generator.state, ways


class TestLFU:
    def test_evicts_least_frequent(self):
        p = LFUPolicy(1, 3)
        for way, count in ((0, 5), (1, 2), (2, 7)):
            for _ in range(count):
                p.touch(0, way)
        assert p.victim(0) == 1

    def test_fill_resets_count(self):
        p = LFUPolicy(1, 2)
        for _ in range(10):
            p.touch(0, 0)
        p.touch(0, 1)
        p.touch(0, 1)
        p.fill(0, 0)  # new block in way 0: count back to 1
        assert p.victim(0) == 0


def test_one_way_sweep_replays_no_policy_loop(monkeypatch):
    """One way leaves no victim choice, so a 1-way sweep takes the
    direct-mapped outcome for every policy without a replay loop."""

    def refuse(*args):
        raise AssertionError("policy replay loop for a 1-way cache")

    for name in dir(fastpolicy):
        if name.startswith("_replay_"):
            monkeypatch.setattr(fastpolicy, name, refuse)
    g1 = CacheGeometry(capacity_bytes=256, line_bytes=16, ways=1, address_bits=16)
    scheme, trace = ModuloIndexing(g1), uniform_trace(2000, span_bytes=1 << 12)
    direct = simulate_indexing(scheme, trace, g1)
    for res in simulate_policy_sweep(scheme, trace, g1, POLICIES):
        assert res.misses == direct.misses
        np.testing.assert_array_equal(res.slot_misses, direct.slot_misses)
