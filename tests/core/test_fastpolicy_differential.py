"""Set-associative caches under every replacement policy: the differential
harness's policy rows under the fastpolicy suite's test names, and the
policy-kernel checks that are not row comparisons.

The rows and the trace zoo live in ``test_differential.py``; each test
here takes its rows with ``groups``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.caches import SetAssociativeCache
from repro.core.decompose import decode
from repro.core.dispatch import dispatch
from repro.core.fastpolicy import (
    FAST_POLICIES,
    _kernel_outcomes,
    simulate_policy_set_associative,
    simulate_policy_sweep,
)
from repro.core.indexing import ModuloIndexing
from repro.core.replacement import POLICIES
from repro.core.simulator import simulate
from differential_support import assert_same_state
from test_differential import TINY4, groups, run_rows, zoo


class TestStatsEngine:
    @groups(
        SetAssociativeCache,
        {f"{g}-{p}": f"{g}4/{p}" for g in ("tiny", "small") for p in POLICIES},
    )
    def test_all_schemes_all_traces(self, rows):
        run_rows(rows)

    @groups(SetAssociativeCache, {f"{p}-{w}": f"{w}way/{p}" for w in (1, 2, 8) for p in POLICIES})
    def test_associativities(self, rows):
        run_rows(rows)

    @groups(SetAssociativeCache, {str(s): f"seed{s}/random" for s in (0, 1, 2011)})
    def test_random_policy_seeds(self, rows):
        run_rows(rows)

    @pytest.mark.parametrize("policy", FAST_POLICIES)
    def test_warmup_agrees(self, policy):
        """A warmed-up ``simulate`` and the fast run of its prefix add up to
        the fast run of the whole trace, per set."""
        scheme = ModuloIndexing(TINY4)
        trace = zoo(TINY4, "random")[:2500]
        full = simulate_policy_set_associative(scheme, trace, TINY4, policy=policy)
        head = simulate_policy_set_associative(scheme, trace[:500], TINY4, policy=policy)
        warm = simulate(SetAssociativeCache(TINY4, scheme, policy=policy), trace, warmup=500)
        assert warm.accesses == len(trace) - 500
        for name in ("accesses", "hits", "misses", "lookup_cycles"):
            assert getattr(head, name) + getattr(warm, name) == getattr(full, name)
        for name in ("slot_accesses", "slot_hits", "slot_misses"):
            np.testing.assert_array_equal(
                getattr(head, name) + getattr(warm, name), getattr(full, name)
            )

    def test_covers_every_registered_policy(self):
        assert set(FAST_POLICIES) == set(POLICIES)

    def test_miss_flags_match_sequential(self):
        scheme = ModuloIndexing(TINY4)
        trace = zoo(TINY4, "conflict")
        blocks, indices = decode(scheme, trace, TINY4)
        for policy in FAST_POLICIES:
            flags, _ways, _private = _kernel_outcomes(
                blocks, indices, TINY4.num_sets, TINY4.ways, policy, 5
            )
            seq = simulate_policy_set_associative(
                scheme, trace, TINY4, policy=policy, seed=5, engine="sequential"
            )
            assert int(flags.sum()) == seq.misses, policy

    def test_rejections(self):
        scheme = ModuloIndexing(TINY4)
        trace = zoo(TINY4, "single")
        with pytest.raises(ValueError, match="unknown engine"):
            simulate_policy_set_associative(scheme, trace, TINY4, policy="fifo", engine="turbo")
        with pytest.raises(ValueError, match="unknown replacement policy"):
            simulate_policy_set_associative(scheme, trace, TINY4, policy="bogus")
        with pytest.raises(ValueError, match="associativity"):
            simulate_policy_set_associative(scheme, trace, TINY4, ways=2, policy="fifo")
        # CacheGeometry itself enforces power-of-two ways, so the PLRU
        # constraint is only reachable through the raw-array kernel API.
        one = np.array([1], dtype=np.int64)
        with pytest.raises(ValueError, match="power-of-two"):
            _kernel_outcomes(one, one * 0, 1, 6, "plru", 0)


class TestPolicySweep:
    @groups("simulate_policy_sweep", {g: f"{g}4" for g in ("tiny", "small")})
    def test_sweep_equals_per_cell_equals_sequential(self, rows):
        run_rows(rows)

    def test_sweep_validates_before_work(self):
        with pytest.raises(ValueError, match="unknown replacement policy"):
            simulate_policy_sweep(
                ModuloIndexing(TINY4), zoo(TINY4, "random"), TINY4, ["lru", "bogus"]
            )

    def test_sweep_preserves_order_and_models(self):
        scheme = ModuloIndexing(TINY4)
        policies = ["mru", "lru", "fifo"]
        results = simulate_policy_sweep(scheme, zoo(TINY4, "hot"), TINY4, policies)
        assert [r.model for r in results] == [
            f"set_associative[{scheme.name},4way,{p}]" for p in policies
        ]


class TestSimulatePolicy:
    @groups(SetAssociativeCache, {p: f"tiny4/{p}/modulo" for p in POLICIES})
    def test_auto_equals_sequential_with_state(self, rows):
        run_rows(rows)

    @pytest.mark.parametrize("policy", FAST_POLICIES)
    def test_dirty_cache_falls_back_but_agrees(self, policy):
        """A second run over the same object is not pristine: the dispatcher
        must take the sequential engine and still match it exactly."""
        t1, t2 = zoo(TINY4, "hot")[:800], zoo(TINY4, "random")[:800]
        fast_cache = SetAssociativeCache(TINY4, policy=policy, seed=11)
        slow_cache = SetAssociativeCache(TINY4, policy=policy, seed=11)
        dispatch(fast_cache, t1)
        simulate(slow_cache, t1)
        fast = dispatch(fast_cache, t2)
        assert fast.path == "sequential:warm-state"
        assert_same_state(fast, simulate(slow_cache, t2), f"{policy}/dirty")
        assert_same_state(fast_cache, slow_cache, f"{policy}/dirty")

    def test_warmup_agrees(self):
        """``simulate``'s warmup changes the stats only: it leaves the end
        state of the kernel's full replay."""
        trace = zoo(TINY4, "random")[:2000]
        fast_cache = SetAssociativeCache(TINY4, policy="fifo")
        slow_cache = SetAssociativeCache(TINY4, policy="fifo")
        fast = dispatch(fast_cache, trace)
        assert fast.path == "fast:policy"
        slow = simulate(slow_cache, trace, warmup=300)
        assert slow.accesses == len(trace) - 300
        head = simulate(SetAssociativeCache(TINY4, policy="fifo"), trace[:300])
        assert head.misses + slow.misses == fast.misses
        np.testing.assert_array_equal(fast_cache._blocks, slow_cache._blocks)
        np.testing.assert_array_equal(fast_cache.policy._stamp, slow_cache.policy._stamp)
        assert fast_cache.policy._clock == slow_cache.policy._clock

    def test_invariant_checking_falls_back(self):
        trace = zoo(TINY4, "random")[:500]
        res = dispatch(SetAssociativeCache(TINY4, policy="lfu"), trace, check_invariants_every=100)
        assert res.misses == simulate(SetAssociativeCache(TINY4, policy="lfu"), trace).misses
        assert res.path == "sequential:invariants"

    def test_subclass_falls_back(self):
        class Sub(SetAssociativeCache):
            pass

        trace = zoo(TINY4, "hot")[:400]
        res = dispatch(Sub(TINY4, policy="fifo"), trace)
        assert res.path == "sequential:no-kernel"
        assert res.misses == simulate(SetAssociativeCache(TINY4, policy="fifo"), trace).misses

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            dispatch(SetAssociativeCache(TINY4), zoo(TINY4, "single"), engine="turbo")
