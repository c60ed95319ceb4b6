"""Column-associative, B-Cache, partner and adaptive caches: the
differential harness's rows under the fastassoc suite's test names, and
the checks of these models that are not row comparisons.

The rows and the trace zoo live in ``test_differential.py``; each test
here takes its rows with ``rows``/``groups``.
"""

from __future__ import annotations

import pytest

from repro.core.caches import (
    AdaptiveGroupAssociativeCache,
    BalancedCache,
    ColumnAssociativeCache,
    PartnerIndexCache,
)
from repro.core.dispatch import dispatch
from repro.core.fastassoc import simulate_bcache, simulate_column_associative, simulate_partner
from repro.core.simulator import simulate
from differential_support import assert_same_state
from test_differential import GEOMETRIES, SMALL, groups, rows, run_rows, zoo

MID_WINDOW = rows(PartnerIndexCache, "small/period70/mid-window-resume")


class TestColumnAssociative:
    @groups(
        ColumnAssociativeCache,
        {f"{g}-{p}": f"{g}/{p}" for g in GEOMETRIES for p in ("protect", "noprotect")},
    )
    def test_all_schemes_all_traces(self, rows):
        run_rows(rows)

    @groups(ColumnAssociativeCache, {str(s): f"small/seed{s}" for s in range(4)})
    def test_randomized_seeds(self, rows):
        run_rows(rows)

    def test_extras_partition_totals(self):
        res = simulate_column_associative(ColumnAssociativeCache(SMALL), zoo(SMALL, "hot"))
        e = res.extra
        assert e.get("first_probe_hits", 0) + e.get("rehash_hits", 0) == res.hits
        assert e.get("direct_misses", 0) + e.get("rehash_misses", 0) == res.misses


class TestBCache:
    @groups(
        BalancedCache,
        {
            f"{g}-{mf}-{bas}": f"{g}/mf{mf}/bas{bas}"
            for g in GEOMETRIES
            for mf, bas in ((2, 2), (2, 4), (4, 2), (4, 4))
        },
    )
    def test_operating_points_all_traces(self, rows):
        run_rows(rows)

    @groups(BalancedCache, {str(s): f"small/seed{s}" for s in range(4)})
    def test_randomized_seeds(self, rows):
        run_rows(rows)

    def test_non_lru_policy_rejected(self):
        with pytest.raises(ValueError):
            simulate_bcache(BalancedCache(SMALL, policy="random"), zoo(SMALL, "single"))

    def test_every_hit_is_a_direct_hit(self):
        res = simulate_bcache(BalancedCache(SMALL), zoo(SMALL, "hot"))
        assert res.extra.get("direct_hits", 0) == res.hits
        assert res.lookup_cycles == res.accesses  # single-cycle decode


class TestPartnerCache:
    @groups(
        PartnerIndexCache,
        {f"{g}-{p}": f"{g}/period{p}" for g in GEOMETRIES for p in (16, 64, 257, 100_000)},
    )
    def test_rebalance_periods_all_traces(self, rows):
        run_rows(rows)

    @groups(PartnerIndexCache, {str(s): f"small/period97/seed{s}" for s in range(4)})
    def test_randomized_seeds_many_windows(self, rows):
        run_rows(rows)

    def test_mid_window_resume(self):
        run_rows(MID_WINDOW)

    def test_extras_partition_hits(self):
        res = simulate_partner(PartnerIndexCache(SMALL, rebalance_period=64), zoo(SMALL, "hot"))
        e = res.extra
        assert e.get("direct_hits", 0) + e.get("partner_hits", 0) == res.hits
        assert e.get("partner_misses", 0) <= res.misses


class TestAdaptive:
    @groups(AdaptiveGroupAssociativeCache, {g: f"{g}/modulo" for g in GEOMETRIES})
    def test_all_traces(self, rows):
        run_rows(rows)

    @groups(
        AdaptiveGroupAssociativeCache,
        {
            f"{name}-{g}": f"{g}/{label}"
            for name, label in (("xor", "xor"), ("odd_multiplier", "odd9"), ("prime_modulo", "prime"))
            for g in GEOMETRIES
        },
    )
    def test_untrainable_primary_index(self, rows):
        run_rows(rows)

    @groups(
        AdaptiveGroupAssociativeCache,
        {str(s): f"small/paper-fractions/seed{s}" for s in range(3)},
    )
    def test_randomized_seeds_paper_fractions(self, rows):
        run_rows(rows)


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
        trace = zoo(SMALL, "random")
        for auto_cache, seq_cache in zip(self._models(SMALL), self._models(SMALL)):
            name = type(auto_cache).__name__
            auto = dispatch(auto_cache, trace, engine="auto")
            seq = dispatch(seq_cache, trace, engine="sequential")
            assert auto.path.startswith("fast:"), name
            assert seq.path == "sequential:forced", name
            assert_same_state(auto, seq, name)
            assert_same_state(auto_cache, seq_cache, name)

    def test_has_fast_path(self):
        trace = zoo(SMALL, "random")[:200]
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
        trace = zoo(SMALL, "random")[:1000]
        res = dispatch(BalancedCache(SMALL), trace, check_invariants_every=100)
        assert res.misses == simulate(BalancedCache(SMALL), trace).misses
        assert res.path == "sequential:invariants"

    def test_non_lru_bcache_takes_sequential_under_auto(self):
        trace = zoo(SMALL, "random")[:2000]
        rand_cache = BalancedCache(SMALL, policy="random", seed=4)
        ref_cache = BalancedCache(SMALL, policy="random", seed=4)
        auto = dispatch(rand_cache, trace)
        assert auto.path == "sequential:no-kernel"
        assert_same_state(auto, simulate(ref_cache, trace), "rand-policy fallback")

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            dispatch(ColumnAssociativeCache(SMALL), zoo(SMALL, "single"), engine="turbo")
