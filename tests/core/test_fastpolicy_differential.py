"""Differential tests: the fastpolicy engines ≡ the sequential engine.

Fourth instalment of the differential-testing contract (see DESIGN.md):
the set-decomposed replay kernels in :mod:`repro.core.fastpolicy` must be
*bit-identical* to driving :class:`~repro.core.caches.SetAssociativeCache`
one access at a time through :func:`~repro.core.simulator.simulate` —
equal :class:`~repro.core.simulator.SimulationResult` (totals, lookup
cycles, per-set histograms, ``extra`` hit classes) **and** equal post-run
cache-object state (contents, policy stamps/counts/bits, the Random
policy's exact generator position), across:

* every registered replacement policy (LRU, FIFO, PLRU, MRU, LFU,
  seeded Random) × every registered indexing scheme × the adversarial
  trace zoo (random, hot-reuse, ping-pong, repeat-heavy, empty, single);
* associativities 1 / 2 / 8 (PLRU power-of-two constraint respected);
* the :func:`~repro.core.fastpolicy.simulate_policy_sweep` sweep path —
  shared set decomposition ≡ the per-cell path ≡ sequential, per-set
  counts included;
* warmup splits, pristine-gate fallbacks (dirty caches take the
  sequential engine but still agree), and engine/config rejection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.address import CacheGeometry
from repro.core.caches.set_associative import SetAssociativeCache
from repro.core.fastpolicy import (
    FAST_POLICIES,
    has_policy_fast_path,
    policy_miss_flags,
    simulate_policy,
    simulate_policy_set_associative,
    simulate_policy_sweep,
)
from repro.core.indexing import (
    BitSelectIndexing,
    GivargisIndexing,
    GivargisXorIndexing,
    ModuloIndexing,
    OddMultiplierIndexing,
    PatelIndexing,
    PrimeModuloIndexing,
    XorIndexing,
)
from repro.core.replacement import POLICIES, RandomPolicy
from repro.core.simulator import simulate
from repro.trace import Trace

TINY4 = CacheGeometry(capacity_bytes=512, line_bytes=16, ways=4, address_bits=16)
SMALL4 = CacheGeometry(capacity_bytes=4096, line_bytes=16, ways=4)


def geometry_with_ways(ways: int) -> CacheGeometry:
    return CacheGeometry(
        capacity_bytes=128 * 16 * ways // 8,
        line_bytes=16,
        ways=ways,
        address_bits=16,
    )


# -- trace zoo --------------------------------------------------------------------


def random_trace(geometry: CacheGeometry, n: int = 4000, seed: int = 7) -> Trace:
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, 1 << geometry.address_bits, size=n, dtype=np.uint64)
    return Trace(addrs, name="random")


def hot_trace(geometry: CacheGeometry, n: int = 4000, seed: int = 9) -> Trace:
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 1 << geometry.address_bits, size=64, dtype=np.uint64)
    addrs = pool[rng.integers(0, len(pool), size=n)]
    return Trace(addrs, name="hot")


def conflict_trace(geometry: CacheGeometry, n: int = 3000) -> Trace:
    """ways+1 blocks cycling through one set: every policy's eviction path."""
    line = geometry.line_bytes
    span = geometry.num_sets * line
    k = geometry.ways + 1
    addrs = np.array([(3 * line + i * span) % (1 << geometry.address_bits)
                      for i in range(k)], dtype=np.uint64)
    return Trace(np.tile(addrs, n // k + 1)[:n], name="conflict")


def repeat_heavy_trace(geometry: CacheGeometry, n: int = 2000, seed: int = 13) -> Trace:
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        addr = int(rng.integers(0, 1 << geometry.address_bits))
        out.extend([addr] * int(rng.integers(1, 9)))
    return Trace(np.array(out[:n], dtype=np.uint64), name="repeats")


def empty_trace() -> Trace:
    return Trace(np.empty(0, dtype=np.uint64), name="empty")


def single_access_trace(geometry: CacheGeometry) -> Trace:
    return Trace(np.array([7 * geometry.line_bytes], dtype=np.uint64), name="single")


def trace_zoo(geometry: CacheGeometry) -> list[Trace]:
    return [
        random_trace(geometry),
        hot_trace(geometry),
        conflict_trace(geometry),
        repeat_heavy_trace(geometry),
        empty_trace(),
        single_access_trace(geometry),
    ]


def scheme_lineup(geometry: CacheGeometry, fit_trace: Trace) -> list:
    fit_addrs = fit_trace.addresses
    bit_positions = tuple(
        range(geometry.offset_bits, geometry.offset_bits + geometry.index_bits)
    )[::-1]
    factories = [
        lambda: ModuloIndexing(geometry),
        lambda: XorIndexing(geometry),
        lambda: OddMultiplierIndexing(geometry, 9),
        lambda: PrimeModuloIndexing(geometry),
        lambda: BitSelectIndexing(geometry, bit_positions),
        lambda: GivargisIndexing(geometry).fit(fit_addrs),
        # Reads offset bits: both engines must index the offset-zeroed address.
        lambda: GivargisIndexing(geometry, include_offset_bits=True).fit(fit_addrs),
        lambda: GivargisXorIndexing(geometry).fit(fit_addrs),
        lambda: PatelIndexing(geometry, max_swap_moves=4).fit(fit_addrs),
    ]
    schemes = []
    for make in factories:
        try:
            schemes.append(make())
        except ValueError:
            pass
    return schemes


# -- equality helpers -------------------------------------------------------------


def assert_results_identical(fast, slow, ctx: str) -> None:
    assert fast.model == slow.model, ctx
    assert fast.trace_name == slow.trace_name, ctx
    assert fast.accesses == slow.accesses, ctx
    assert fast.hits == slow.hits, ctx
    assert fast.misses == slow.misses, ctx
    assert fast.lookup_cycles == slow.lookup_cycles, ctx
    assert fast.extra == slow.extra, ctx
    np.testing.assert_array_equal(fast.slot_accesses, slow.slot_accesses, err_msg=ctx)
    np.testing.assert_array_equal(fast.slot_hits, slow.slot_hits, err_msg=ctx)
    np.testing.assert_array_equal(fast.slot_misses, slow.slot_misses, err_msg=ctx)


def assert_cache_state_identical(fast_cache, slow_cache, ctx: str) -> None:
    np.testing.assert_array_equal(fast_cache._blocks, slow_cache._blocks, err_msg=ctx)
    fp, sp = fast_cache.policy, slow_cache.policy
    assert type(fp) is type(sp), ctx
    if hasattr(sp, "_stamp"):
        np.testing.assert_array_equal(fp._stamp, sp._stamp, err_msg=ctx)
        assert fp._clock == sp._clock, ctx
    if hasattr(sp, "_count"):
        np.testing.assert_array_equal(fp._count, sp._count, err_msg=ctx)
    if hasattr(sp, "_bits"):
        np.testing.assert_array_equal(fp._bits, sp._bits, err_msg=ctx)
    if isinstance(sp, RandomPolicy):
        assert fp._rng.bit_generator.state == sp._rng.bit_generator.state, ctx


# -- the stats-level engine -------------------------------------------------------


class TestStatsEngine:
    @pytest.mark.parametrize("policy", FAST_POLICIES)
    @pytest.mark.parametrize("geometry", [TINY4, SMALL4], ids=["tiny", "small"])
    def test_all_schemes_all_traces(self, geometry, policy):
        fit = random_trace(geometry, n=2000, seed=99)
        for scheme in scheme_lineup(geometry, fit):
            for trace in trace_zoo(geometry):
                ctx = f"{policy}/{scheme.name}/{trace.name}"
                fast = simulate_policy_set_associative(
                    scheme, trace, geometry, policy=policy, seed=3
                )
                slow = simulate_policy_set_associative(
                    scheme, trace, geometry, policy=policy, seed=3,
                    engine="sequential",
                )
                assert_results_identical(fast, slow, ctx)

    @pytest.mark.parametrize("ways", [1, 2, 8])
    @pytest.mark.parametrize("policy", FAST_POLICIES)
    def test_associativities(self, policy, ways):
        geometry = geometry_with_ways(ways)
        scheme = XorIndexing(geometry)
        for trace in (conflict_trace(geometry), random_trace(geometry, n=3000)):
            ctx = f"{policy}/{ways}way/{trace.name}"
            fast = simulate_policy_set_associative(
                scheme, trace, geometry, policy=policy
            )
            slow = simulate_policy_set_associative(
                scheme, trace, geometry, policy=policy, engine="sequential"
            )
            assert_results_identical(fast, slow, ctx)

    @pytest.mark.parametrize("policy", FAST_POLICIES)
    def test_warmup_agrees(self, policy):
        geometry = TINY4
        scheme = ModuloIndexing(geometry)
        trace = random_trace(geometry, n=2500, seed=41)
        fast = simulate_policy_set_associative(
            scheme, trace, geometry, policy=policy, warmup=500
        )
        slow = simulate_policy_set_associative(
            scheme, trace, geometry, policy=policy, warmup=500, engine="sequential"
        )
        assert_results_identical(fast, slow, f"{policy}/warmup")

    @pytest.mark.parametrize("seed", [0, 1, 2011])
    def test_random_policy_seeds(self, seed):
        geometry = TINY4
        scheme = ModuloIndexing(geometry)
        trace = random_trace(geometry, n=5000, seed=17)
        fast = simulate_policy_set_associative(
            scheme, trace, geometry, policy="random", seed=seed
        )
        slow = simulate_policy_set_associative(
            scheme, trace, geometry, policy="random", seed=seed, engine="sequential"
        )
        assert_results_identical(fast, slow, f"seed={seed}")

    def test_covers_every_registered_policy(self):
        assert set(FAST_POLICIES) == set(POLICIES)

    def test_miss_flags_match_sequential(self):
        geometry = TINY4
        scheme = ModuloIndexing(geometry)
        trace = conflict_trace(geometry)
        blocks = trace.blocks(geometry.offset_bits).astype(np.int64)
        indices = scheme.indices_of(trace.addresses)
        for policy in FAST_POLICIES:
            flags = policy_miss_flags(
                blocks, indices, geometry.ways, policy,
                num_sets=geometry.num_sets, seed=5,
            )
            seq = simulate_policy_set_associative(
                scheme, trace, geometry, policy=policy, seed=5, engine="sequential"
            )
            assert int(flags.sum()) == seq.misses, policy

    def test_rejections(self):
        geometry = TINY4
        scheme = ModuloIndexing(geometry)
        trace = single_access_trace(geometry)
        with pytest.raises(ValueError, match="unknown engine"):
            simulate_policy_set_associative(
                scheme, trace, geometry, policy="fifo", engine="turbo"
            )
        with pytest.raises(ValueError, match="unknown replacement policy"):
            simulate_policy_set_associative(scheme, trace, geometry, policy="bogus")
        with pytest.raises(ValueError, match="associativity"):
            simulate_policy_set_associative(
                scheme, trace, geometry, ways=2, policy="fifo"
            )
        # CacheGeometry itself enforces power-of-two ways, so the PLRU
        # constraint is only reachable through the raw-array kernel API.
        blocks = np.array([1], dtype=np.int64)
        indices = np.array([0], dtype=np.int64)
        with pytest.raises(ValueError, match="power-of-two"):
            policy_miss_flags(blocks, indices, 6, "plru")


# -- the sweep path ---------------------------------------------------------------


class TestPolicySweep:
    @pytest.mark.parametrize("geometry", [TINY4, SMALL4], ids=["tiny", "small"])
    def test_sweep_equals_per_cell_equals_sequential(self, geometry):
        scheme = XorIndexing(geometry)
        policies = list(FAST_POLICIES)
        for trace in trace_zoo(geometry):
            swept = simulate_policy_sweep(scheme, trace, geometry, policies, seed=3)
            seq = simulate_policy_sweep(
                scheme, trace, geometry, policies, seed=3, engine="sequential"
            )
            assert len(swept) == len(policies)
            for policy, a, b in zip(policies, swept, seq):
                ctx = f"{policy}/{trace.name}"
                assert_results_identical(a, b, ctx)
                cell = simulate_policy_set_associative(
                    scheme, trace, geometry, policy=policy, seed=3
                )
                assert_results_identical(a, cell, ctx + "/per-cell")

    def test_sweep_validates_before_work(self):
        geometry = TINY4
        scheme = ModuloIndexing(geometry)
        with pytest.raises(ValueError, match="unknown replacement policy"):
            simulate_policy_sweep(
                scheme, random_trace(geometry), geometry, ["lru", "bogus"]
            )

    def test_sweep_preserves_order_and_models(self):
        geometry = TINY4
        scheme = ModuloIndexing(geometry)
        policies = ["mru", "lru", "fifo"]
        results = simulate_policy_sweep(
            scheme, hot_trace(geometry), geometry, policies
        )
        assert [r.model for r in results] == [
            f"set_associative[{scheme.name},4way,{p}]" for p in policies
        ]


# -- the cache-object dispatcher --------------------------------------------------


class TestSimulatePolicy:
    @pytest.mark.parametrize("policy", FAST_POLICIES)
    def test_auto_equals_sequential_with_state(self, policy):
        geometry = TINY4
        for trace in trace_zoo(geometry):
            ctx = f"{policy}/{trace.name}"
            fast_cache = SetAssociativeCache(geometry, policy=policy, seed=11)
            slow_cache = SetAssociativeCache(geometry, policy=policy, seed=11)
            assert has_policy_fast_path(fast_cache), ctx
            fast = simulate_policy(fast_cache, trace)
            slow = simulate(slow_cache, trace)
            assert_results_identical(fast, slow, ctx)
            assert_cache_state_identical(fast_cache, slow_cache, ctx)
            fast_cache.stats.check_invariants()

    @pytest.mark.parametrize("policy", FAST_POLICIES)
    def test_dirty_cache_falls_back_but_agrees(self, policy):
        """A second run over the same object is not pristine: the dispatcher
        must take the sequential engine and still match it exactly."""
        geometry = TINY4
        t1 = hot_trace(geometry, n=800, seed=3)
        t2 = random_trace(geometry, n=800, seed=4)
        fast_cache = SetAssociativeCache(geometry, policy=policy, seed=11)
        slow_cache = SetAssociativeCache(geometry, policy=policy, seed=11)
        simulate_policy(fast_cache, t1)
        simulate(slow_cache, t1)
        assert not has_policy_fast_path(fast_cache)
        fast = simulate_policy(fast_cache, t2)
        slow = simulate(slow_cache, t2)
        assert_results_identical(fast, slow, f"{policy}/dirty")
        assert_cache_state_identical(fast_cache, slow_cache, f"{policy}/dirty")

    def test_warmup_agrees(self):
        geometry = TINY4
        trace = random_trace(geometry, n=2000, seed=19)
        fast_cache = SetAssociativeCache(geometry, policy="fifo")
        slow_cache = SetAssociativeCache(geometry, policy="fifo")
        fast = simulate_policy(fast_cache, trace, warmup=300)
        slow = simulate(slow_cache, trace, warmup=300)
        assert_results_identical(fast, slow, "warmup")
        assert_cache_state_identical(fast_cache, slow_cache, "warmup")

    def test_invariant_checking_falls_back(self):
        geometry = TINY4
        trace = random_trace(geometry, n=500, seed=23)
        res = simulate_policy(
            SetAssociativeCache(geometry, policy="lfu"),
            trace,
            check_invariants_every=100,
        )
        seq = simulate(SetAssociativeCache(geometry, policy="lfu"), trace)
        assert res.misses == seq.misses

    def test_subclass_falls_back(self):
        class Sub(SetAssociativeCache):
            pass

        geometry = TINY4
        assert not has_policy_fast_path(Sub(geometry, policy="fifo"))
        trace = hot_trace(geometry, n=400)
        res = simulate_policy(Sub(geometry, policy="fifo"), trace)
        seq = simulate(SetAssociativeCache(geometry, policy="fifo"), trace)
        assert res.misses == seq.misses

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            simulate_policy(
                SetAssociativeCache(TINY4), single_access_trace(TINY4), engine="turbo"
            )
