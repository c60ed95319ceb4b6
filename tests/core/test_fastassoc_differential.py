"""Differential tests: the fastassoc engine ≡ the sequential engine.

Third instalment of the differential-testing contract (see DESIGN.md): the
set-decomposed programmable-associativity fast paths in
:mod:`repro.core.fastassoc` must be *bit-identical* to the sequential
reference engine driving the real cache models — equal
:class:`~repro.core.simulator.SimulationResult` (totals, lookup cycles,
per-slot histograms, ``extra`` hit/miss classes) **and** equal post-run
cache-object state, across:

* :class:`~repro.core.caches.ColumnAssociativeCache` — every registered
  indexing scheme as the primary index, both ``protect_conventional``
  variants, random + adversarial traces;
* :class:`~repro.core.caches.BalancedCache` — several (mapping factor, BAS)
  operating points, LRU stamps and programmable-index registers included;
* :class:`~repro.core.caches.PartnerIndexCache` — rebalance periods chosen
  to exercise none/one/many windows, link tables and window counters
  included;
* :class:`~repro.core.caches.AdaptiveGroupAssociativeCache` — the hoisted
  (but still sequential-order) transliteration under modulo, XOR,
  odd-multiplier and prime-modulo primary indexes, SHT/OUT/cold-pool dict
  *ordering* included;
* their :func:`~repro.core.dispatch.dispatch` entries — ``auto`` ≡
  ``sequential``, the paths of fallbacks for invariant checking / non-LRU
  policies, and rejection of unknown engines.

``check_invariants()`` is spot-checked on the fast-path cache objects: the
reconstructed state must satisfy each model's own structural invariants.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.address import CacheGeometry
from repro.core.caches import (
    AdaptiveGroupAssociativeCache,
    BalancedCache,
    ColumnAssociativeCache,
    PartnerIndexCache,
)
from repro.core.dispatch import dispatch
from repro.core.fastassoc import (
    simulate_adaptive,
    simulate_bcache,
    simulate_column_associative,
    simulate_partner,
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
from repro.core.simulator import simulate
from repro.trace import Trace

TINY = CacheGeometry(capacity_bytes=128, line_bytes=16, ways=1, address_bits=16)
SMALL = CacheGeometry(capacity_bytes=1024, line_bytes=16, ways=1)


# -- trace zoo --------------------------------------------------------------------


def random_trace(geometry: CacheGeometry, n: int = 4000, seed: int = 7) -> Trace:
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, 1 << geometry.address_bits, size=n, dtype=np.uint64)
    return Trace(addrs, name="random")


def hot_trace(geometry: CacheGeometry, n: int = 4000, seed: int = 9) -> Trace:
    """Zipf-ish reuse: the MRU-compression sweet spot."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 1 << geometry.address_bits, size=64, dtype=np.uint64)
    addrs = pool[rng.integers(0, len(pool), size=n)]
    return Trace(addrs, name="hot")


def pair_pingpong_trace(geometry: CacheGeometry, n: int = 1200) -> Trace:
    """A, B, A, B on one column-associative pair: every access swaps/rehashes."""
    line = geometry.line_bytes
    half = geometry.num_sets // 2 or 1
    a = np.uint64(3 * line)
    b = np.uint64((3 + half) * line)  # same pair {s, s ^ MSB}, other half
    c = np.uint64((3 + 2 * half * geometry.num_sets) * line)  # conflicts with a
    addrs = np.empty(n, dtype=np.uint64)
    addrs[0::3] = a
    addrs[1::3] = c
    addrs[2::3] = b
    return Trace(addrs % np.uint64(1 << geometry.address_bits), name="pingpong")


def repeat_heavy_trace(geometry: CacheGeometry, n: int = 2000, seed: int = 13) -> Trace:
    """Long runs of the same block — stresses the repeat compression."""
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
        pair_pingpong_trace(geometry),
        repeat_heavy_trace(geometry),
        empty_trace(),
        single_access_trace(geometry),
    ]


def scheme_lineup(geometry: CacheGeometry, fit_trace: Trace) -> list:
    """Every registered scheme (trainables fitted); geometry-rejects skipped."""
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


def assert_colassoc_state_identical(fast_cache, slow_cache, ctx: str) -> None:
    np.testing.assert_array_equal(fast_cache._blocks, slow_cache._blocks, err_msg=ctx)
    np.testing.assert_array_equal(fast_cache._rehash, slow_cache._rehash, err_msg=ctx)
    assert fast_cache.stats.extra == slow_cache.stats.extra, ctx


def assert_bcache_state_identical(fast_cache, slow_cache, ctx: str) -> None:
    np.testing.assert_array_equal(fast_cache._blocks, slow_cache._blocks, err_msg=ctx)
    np.testing.assert_array_equal(fast_cache._pi_reg, slow_cache._pi_reg, err_msg=ctx)
    np.testing.assert_array_equal(
        fast_cache.policy._stamp, slow_cache.policy._stamp, err_msg=ctx
    )
    assert fast_cache.policy._clock == slow_cache.policy._clock, ctx


def assert_partner_state_identical(fast_cache, slow_cache, ctx: str) -> None:
    np.testing.assert_array_equal(fast_cache._blocks, slow_cache._blocks, err_msg=ctx)
    np.testing.assert_array_equal(fast_cache._stamp, slow_cache._stamp, err_msg=ctx)
    np.testing.assert_array_equal(fast_cache._linked, slow_cache._linked, err_msg=ctx)
    np.testing.assert_array_equal(fast_cache._partner, slow_cache._partner, err_msg=ctx)
    np.testing.assert_array_equal(
        fast_cache._is_donor, slow_cache._is_donor, err_msg=ctx
    )
    np.testing.assert_array_equal(
        fast_cache._window_accesses, slow_cache._window_accesses, err_msg=ctx
    )
    np.testing.assert_array_equal(
        fast_cache._window_misses, slow_cache._window_misses, err_msg=ctx
    )
    assert fast_cache._clock == slow_cache._clock, ctx
    assert fast_cache._since_rebalance == slow_cache._since_rebalance, ctx


def assert_adaptive_state_identical(fast_cache, slow_cache, ctx: str) -> None:
    np.testing.assert_array_equal(fast_cache._blocks, slow_cache._blocks, err_msg=ctx)
    np.testing.assert_array_equal(
        fast_cache._out_of_position, slow_cache._out_of_position, err_msg=ctx
    )
    np.testing.assert_array_equal(
        fast_cache._disposable, slow_cache._disposable, err_msg=ctx
    )
    # Dict *ordering* matters: SHT/OUT/cold-pool are recency structures.
    assert list(fast_cache._sht.items()) == list(slow_cache._sht.items()), ctx
    assert list(fast_cache._out.items()) == list(slow_cache._out.items()), ctx
    assert list(fast_cache._cold_pool.items()) == list(slow_cache._cold_pool.items()), ctx


# -- column-associative -----------------------------------------------------------


class TestColumnAssociative:
    @pytest.mark.parametrize("protect", [True, False], ids=["protect", "noprotect"])
    @pytest.mark.parametrize("geometry", [TINY, SMALL], ids=["tiny", "small"])
    def test_all_schemes_all_traces(self, geometry, protect):
        fit = random_trace(geometry, n=2000, seed=99)
        for scheme in scheme_lineup(geometry, fit):
            for trace in trace_zoo(geometry):
                ctx = f"{scheme.name}/{trace.name}/protect={protect}"
                fast_cache = ColumnAssociativeCache(
                    geometry, indexing=scheme, protect_conventional=protect
                )
                slow_cache = ColumnAssociativeCache(
                    geometry, indexing=scheme, protect_conventional=protect
                )
                fast = simulate_column_associative(fast_cache, trace)
                slow = simulate(slow_cache, trace)
                assert_results_identical(fast, slow, ctx)
                assert_colassoc_state_identical(fast_cache, slow_cache, ctx)
                fast_cache.check_invariants()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_seeds(self, seed):
        trace = random_trace(SMALL, n=8000, seed=seed)
        fast_cache = ColumnAssociativeCache(SMALL)
        slow_cache = ColumnAssociativeCache(SMALL)
        fast = simulate_column_associative(fast_cache, trace)
        slow = simulate(slow_cache, trace)
        assert_results_identical(fast, slow, f"seed={seed}")
        assert_colassoc_state_identical(fast_cache, slow_cache, f"seed={seed}")

    def test_extras_partition_totals(self):
        trace = hot_trace(SMALL, n=5000)
        res = simulate_column_associative(ColumnAssociativeCache(SMALL), trace)
        e = res.extra
        assert e.get("first_probe_hits", 0) + e.get("rehash_hits", 0) == res.hits
        assert e.get("direct_misses", 0) + e.get("rehash_misses", 0) == res.misses


# -- B-cache ----------------------------------------------------------------------


class TestBCache:
    @pytest.mark.parametrize("mf,bas", [(2, 2), (2, 4), (4, 2), (4, 4)])
    @pytest.mark.parametrize("geometry", [TINY, SMALL], ids=["tiny", "small"])
    def test_operating_points_all_traces(self, geometry, mf, bas):
        for trace in trace_zoo(geometry):
            ctx = f"mf={mf}/bas={bas}/{trace.name}"
            try:
                fast_cache = BalancedCache(geometry, mapping_factor=mf, bas=bas)
                slow_cache = BalancedCache(geometry, mapping_factor=mf, bas=bas)
            except ValueError:
                pytest.skip(f"geometry rejects {ctx}")
            fast = simulate_bcache(fast_cache, trace)
            slow = simulate(slow_cache, trace)
            assert_results_identical(fast, slow, ctx)
            assert_bcache_state_identical(fast_cache, slow_cache, ctx)
            fast_cache.check_invariants()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_seeds(self, seed):
        trace = random_trace(SMALL, n=8000, seed=seed)
        fast_cache = BalancedCache(SMALL)
        slow_cache = BalancedCache(SMALL)
        fast = simulate_bcache(fast_cache, trace)
        slow = simulate(slow_cache, trace)
        assert_results_identical(fast, slow, f"seed={seed}")
        assert_bcache_state_identical(fast_cache, slow_cache, f"seed={seed}")

    def test_non_lru_policy_rejected(self):
        cache = BalancedCache(SMALL, policy="random")
        with pytest.raises(ValueError):
            simulate_bcache(cache, random_trace(SMALL, n=10))

    def test_every_hit_is_a_direct_hit(self):
        trace = hot_trace(SMALL, n=5000)
        res = simulate_bcache(BalancedCache(SMALL), trace)
        assert res.extra.get("direct_hits", 0) == res.hits
        assert res.lookup_cycles == res.accesses  # single-cycle decode


# -- partner cache ----------------------------------------------------------------


class TestPartnerCache:
    @pytest.mark.parametrize("period", [16, 64, 257, 100_000])
    @pytest.mark.parametrize("geometry", [TINY, SMALL], ids=["tiny", "small"])
    def test_rebalance_periods_all_traces(self, geometry, period):
        for trace in trace_zoo(geometry):
            ctx = f"period={period}/{trace.name}"
            fast_cache = PartnerIndexCache(geometry, rebalance_period=period)
            slow_cache = PartnerIndexCache(geometry, rebalance_period=period)
            fast = simulate_partner(fast_cache, trace)
            slow = simulate(slow_cache, trace)
            assert_results_identical(fast, slow, ctx)
            assert_partner_state_identical(fast_cache, slow_cache, ctx)
            fast_cache.stats.check_invariants()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_seeds_many_windows(self, seed):
        trace = random_trace(SMALL, n=8000, seed=seed)
        fast_cache = PartnerIndexCache(SMALL, rebalance_period=97)
        slow_cache = PartnerIndexCache(SMALL, rebalance_period=97)
        fast = simulate_partner(fast_cache, trace)
        slow = simulate(slow_cache, trace)
        assert_results_identical(fast, slow, f"seed={seed}")
        assert_partner_state_identical(fast_cache, slow_cache, f"seed={seed}")

    def test_mid_window_resume(self):
        """Running two traces back to back equals running their concatenation
        (the fast path must leave ``_since_rebalance`` mid-window exact)."""
        t1 = random_trace(SMALL, n=111, seed=5)
        t2 = random_trace(SMALL, n=222, seed=6)
        both = Trace(
            np.concatenate([t1.addresses, t2.addresses]), name=t2.name
        )
        split_cache = PartnerIndexCache(SMALL, rebalance_period=70)
        simulate_partner(split_cache, t1)
        split = simulate_partner(split_cache, t2)
        whole_cache = PartnerIndexCache(SMALL, rebalance_period=70)
        simulate(whole_cache, t1)
        whole = simulate(whole_cache, t2)
        assert_results_identical(split, whole, "mid-window resume")
        assert_partner_state_identical(split_cache, whole_cache, "mid-window resume")

    def test_extras_partition_hits(self):
        trace = random_trace(SMALL, n=6000, seed=8)
        res = simulate_partner(PartnerIndexCache(SMALL, rebalance_period=64), trace)
        e = res.extra
        assert e.get("direct_hits", 0) + e.get("partner_hits", 0) == res.hits
        assert e.get("partner_misses", 0) <= res.misses


# -- adaptive (hoisted sequential) ------------------------------------------------


class TestAdaptive:
    @pytest.mark.parametrize("geometry", [TINY, SMALL], ids=["tiny", "small"])
    def test_all_traces(self, geometry):
        for trace in trace_zoo(geometry):
            fast_cache = AdaptiveGroupAssociativeCache(geometry)
            slow_cache = AdaptiveGroupAssociativeCache(geometry)
            fast = simulate_adaptive(fast_cache, trace)
            slow = simulate(slow_cache, trace)
            assert_results_identical(fast, slow, trace.name)
            assert_adaptive_state_identical(fast_cache, slow_cache, trace.name)
            fast_cache.check_invariants()

    @pytest.mark.parametrize("geometry", [TINY, SMALL], ids=["tiny", "small"])
    @pytest.mark.parametrize(
        "make_indexing",
        [XorIndexing, lambda g: OddMultiplierIndexing(g, 9), PrimeModuloIndexing],
        ids=["xor", "odd_multiplier", "prime_modulo"],
    )
    def test_untrainable_primary_index(self, geometry, make_indexing):
        """The ``Adaptive_Cache:<scheme>`` cells take this path."""
        for trace in trace_zoo(geometry):
            fast_cache = AdaptiveGroupAssociativeCache(geometry, indexing=make_indexing(geometry))
            slow_cache = AdaptiveGroupAssociativeCache(geometry, indexing=make_indexing(geometry))
            fast = simulate_adaptive(fast_cache, trace)
            slow = simulate(slow_cache, trace)
            assert_results_identical(fast, slow, trace.name)
            assert_adaptive_state_identical(fast_cache, slow_cache, trace.name)
            fast_cache.check_invariants()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_seeds_paper_fractions(self, seed):
        trace = random_trace(SMALL, n=8000, seed=seed)
        kw = dict(sht_fraction=3 / 8, out_fraction=4 / 16)
        fast_cache = AdaptiveGroupAssociativeCache(SMALL, **kw)
        slow_cache = AdaptiveGroupAssociativeCache(SMALL, **kw)
        fast = simulate_adaptive(fast_cache, trace)
        slow = simulate(slow_cache, trace)
        assert_results_identical(fast, slow, f"seed={seed}")
        assert_adaptive_state_identical(fast_cache, slow_cache, f"seed={seed}")


# -- the dispatch entries ---------------------------------------------------------


class TestSimulateProgassoc:
    def _models(self, geometry):
        return [
            ColumnAssociativeCache(geometry),
            ColumnAssociativeCache(geometry, protect_conventional=False),
            BalancedCache(geometry),
            PartnerIndexCache(geometry, rebalance_period=64),
            AdaptiveGroupAssociativeCache(geometry),
        ]

    def test_auto_equals_sequential(self):
        trace = random_trace(SMALL, n=5000, seed=23)
        for auto_cache, seq_cache in zip(self._models(SMALL), self._models(SMALL)):
            auto = dispatch(auto_cache, trace, engine="auto")
            seq = dispatch(seq_cache, trace, engine="sequential")
            assert_results_identical(auto, seq, type(auto_cache).__name__)
            assert auto.path.startswith("fast:"), type(auto_cache).__name__
            assert seq.path == "sequential:forced"

    def test_has_fast_path(self):
        trace = random_trace(SMALL, n=200, seed=41)
        paths = [dispatch(cache, trace).path for cache in self._models(SMALL)]
        assert paths == [
            "fast:colassoc",
            "fast:colassoc",
            "fast:bcache",
            "fast:partner",
            "fast:adaptive",
        ]
        rand = dispatch(BalancedCache(SMALL, policy="random"), trace)
        assert rand.path == "sequential:no-kernel"

    def test_invariant_checking_falls_back(self):
        trace = random_trace(SMALL, n=1000, seed=31)
        res = dispatch(BalancedCache(SMALL), trace, check_invariants_every=100)
        seq = simulate(BalancedCache(SMALL), trace)
        assert res.misses == seq.misses
        assert res.path == "sequential:invariants"

    def test_non_lru_bcache_takes_sequential_under_auto(self):
        trace = random_trace(SMALL, n=2000, seed=37)
        rand_cache = BalancedCache(SMALL, policy="random", seed=4)
        ref_cache = BalancedCache(SMALL, policy="random", seed=4)
        auto = dispatch(rand_cache, trace)
        seq = simulate(ref_cache, trace)
        assert_results_identical(auto, seq, "rand-policy fallback")
        assert auto.path == "sequential:no-kernel"

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            dispatch(
                ColumnAssociativeCache(SMALL), random_trace(SMALL, n=10), engine="turbo"
            )
