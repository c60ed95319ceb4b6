"""Property-based tests for the fastassoc engine (Hypothesis).

The differential suite pins the fast paths to the sequential reference on a
fixed trace zoo; this file pins the *structural claims* the engine's
docstring proves, over machine-generated traces:

* **MRU-repeat invariance** (column-associative): duplicating any access in
  place adds exactly one first-probe hit — one access, one hit, one lookup
  cycle on the primary slot — and changes nothing else, including the final
  tag/rehash state.  This is the compression theorem the fast path relies
  on, tested *behaviourally* rather than by reading the implementation.
* **Run-repeat invariance** (B-cache): duplicating an access adds exactly
  one direct hit and leaves every other access's outcome unchanged (the
  duplicate re-touches the cluster's already-most-recent line, preserving
  all relative LRU orders).
* **Per-group outcome independence** (column-associative): replaying each
  set-pair's substream alone, on a fresh cache, reproduces the full run's
  counters exactly when summed — no information flows between pairs.
* **Extras partition totals** for every model in the family.
* A randomized mini-differential for the partner cache's windowed
  decomposition (rebalance period drawn by Hypothesis).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.address import CacheGeometry
from repro.core.caches import (
    AdaptiveGroupAssociativeCache,
    BalancedCache,
    ColumnAssociativeCache,
    PartnerIndexCache,
)
from repro.core.dispatch import dispatch
from repro.core.fastassoc import (
    simulate_bcache,
    simulate_column_associative,
    simulate_partner,
)
from repro.core.simulator import simulate
from repro.trace import Trace

TINY = CacheGeometry(capacity_bytes=128, line_bytes=16, ways=1, address_bits=16)

#: Small address universes force heavy aliasing inside few pairs/clusters.
trace_arrays = st.integers(min_value=1, max_value=300).flatmap(
    lambda n: st.lists(
        st.integers(min_value=0, max_value=(1 << 12) - 1), min_size=n, max_size=n
    )
)


def make_trace(raw: list[int]) -> Trace:
    return Trace(np.array(raw, dtype=np.uint64) * np.uint64(TINY.line_bytes), name="h")


def duplicated(trace: Trace, pos: int) -> Trace:
    addrs = trace.addresses
    dup = np.insert(addrs, pos + 1, addrs[pos])
    return Trace(dup, name=trace.name)


class TestMruRepeatInvariance:
    @given(trace_arrays, st.integers(min_value=0, max_value=10_000), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_duplicate_access_is_one_first_probe_hit(self, raw, pos_seed, protect):
        trace = make_trace(raw)
        pos = pos_seed % len(trace)
        base_cache = ColumnAssociativeCache(TINY, protect_conventional=protect)
        dup_cache = ColumnAssociativeCache(TINY, protect_conventional=protect)
        base = simulate_column_associative(base_cache, trace)
        dup = simulate_column_associative(dup_cache, duplicated(trace, pos))
        assert dup.accesses == base.accesses + 1
        assert dup.hits == base.hits + 1
        assert dup.misses == base.misses
        assert dup.lookup_cycles == base.lookup_cycles + 1
        assert dup.extra.get("first_probe_hits", 0) == base.extra.get(
            "first_probe_hits", 0
        ) + 1
        for key in ("rehash_hits", "direct_misses", "rehash_misses"):
            assert dup.extra.get(key, 0) == base.extra.get(key, 0), key
        # The duplicate's slot bump lands on the block's *primary* index.
        slot = base_cache.indexing.index_of(int(trace.addresses[pos]))
        delta_acc = dup.slot_accesses - base.slot_accesses
        delta_hit = dup.slot_hits - base.slot_hits
        assert delta_acc[slot] == 1 and int(np.abs(delta_acc).sum()) == 1
        assert delta_hit[slot] == 1 and int(np.abs(delta_hit).sum()) == 1
        np.testing.assert_array_equal(dup.slot_misses, base.slot_misses)
        # Zero state change.
        np.testing.assert_array_equal(base_cache._blocks, dup_cache._blocks)
        np.testing.assert_array_equal(base_cache._rehash, dup_cache._rehash)


class TestBCacheRunRepeatInvariance:
    @given(trace_arrays, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_duplicate_access_is_one_direct_hit(self, raw, pos_seed):
        trace = make_trace(raw)
        pos = pos_seed % len(trace)
        base = simulate_bcache(BalancedCache(TINY), trace)
        dup = simulate_bcache(BalancedCache(TINY), duplicated(trace, pos))
        assert dup.accesses == base.accesses + 1
        assert dup.hits == base.hits + 1
        assert dup.misses == base.misses
        assert dup.lookup_cycles == base.lookup_cycles + 1
        assert dup.extra["direct_hits"] == base.extra.get("direct_hits", 0) + 1
        np.testing.assert_array_equal(dup.slot_misses, base.slot_misses)


class TestPerGroupIndependence:
    @given(trace_arrays, st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_pair_substreams_replay_independently(self, raw, protect):
        trace = make_trace(raw)
        full_cache = ColumnAssociativeCache(TINY, protect_conventional=protect)
        full = simulate_column_associative(full_cache, trace)

        indexing = full_cache.indexing
        b1 = indexing.indices_of(trace.addresses)
        half = TINY.num_sets // 2
        pair = b1 & (half - 1)

        acc = np.zeros(TINY.num_sets, dtype=np.int64)
        hit = np.zeros(TINY.num_sets, dtype=np.int64)
        mis = np.zeros(TINY.num_sets, dtype=np.int64)
        totals = {"accesses": 0, "hits": 0, "misses": 0, "lookup_cycles": 0}
        extras: dict[str, int] = {}
        for p in np.unique(pair):
            sub = Trace(trace.addresses[pair == p], name="sub")
            res = simulate_column_associative(
                ColumnAssociativeCache(TINY, protect_conventional=protect), sub
            )
            acc += res.slot_accesses
            hit += res.slot_hits
            mis += res.slot_misses
            for k in totals:
                totals[k] += getattr(res, k)
            for k, v in res.extra.items():
                extras[k] = extras.get(k, 0) + v

        assert totals["accesses"] == full.accesses
        assert totals["hits"] == full.hits
        assert totals["misses"] == full.misses
        assert totals["lookup_cycles"] == full.lookup_cycles
        assert extras == full.extra
        np.testing.assert_array_equal(acc, full.slot_accesses)
        np.testing.assert_array_equal(hit, full.slot_hits)
        np.testing.assert_array_equal(mis, full.slot_misses)


class TestExtrasPartitionTotals:
    @given(trace_arrays)
    @settings(max_examples=40, deadline=None)
    def test_every_model(self, raw):
        trace = make_trace(raw)
        col = dispatch(ColumnAssociativeCache(TINY), trace)
        assert (
            col.extra.get("first_probe_hits", 0) + col.extra.get("rehash_hits", 0)
            == col.hits
        )
        assert (
            col.extra.get("direct_misses", 0) + col.extra.get("rehash_misses", 0)
            == col.misses
        )
        bc = dispatch(BalancedCache(TINY), trace)
        assert bc.extra.get("direct_hits", 0) == bc.hits
        pc = dispatch(PartnerIndexCache(TINY, rebalance_period=32), trace)
        assert (
            pc.extra.get("direct_hits", 0) + pc.extra.get("partner_hits", 0) == pc.hits
        )
        ad = dispatch(AdaptiveGroupAssociativeCache(TINY), trace)
        assert ad.extra.get("direct_hits", 0) + ad.extra.get("out_hits", 0) == ad.hits
        for res in (col, bc, pc, ad):
            assert res.hits + res.misses == res.accesses


class TestPartnerWindowedDifferential:
    @given(trace_arrays, st.integers(min_value=1, max_value=40))
    @settings(max_examples=50, deadline=None)
    def test_fast_equals_sequential_for_drawn_periods(self, raw, period):
        trace = make_trace(raw)
        fast_cache = PartnerIndexCache(TINY, rebalance_period=period)
        slow_cache = PartnerIndexCache(TINY, rebalance_period=period)
        fast = simulate_partner(fast_cache, trace)
        slow = simulate(slow_cache, trace)
        assert (fast.accesses, fast.hits, fast.misses, fast.lookup_cycles) == (
            slow.accesses,
            slow.hits,
            slow.misses,
            slow.lookup_cycles,
        )
        assert fast.extra == slow.extra
        np.testing.assert_array_equal(fast.slot_misses, slow.slot_misses)
        np.testing.assert_array_equal(fast_cache._blocks, slow_cache._blocks)
        assert fast_cache._since_rebalance == slow_cache._since_rebalance
