"""Cross-technique integration properties.

These tests pin the *relationships* between models that any correct cache
simulator must exhibit, over randomised traces:

* Belady/MIN lower-bounds every same-capacity organisation, and equals an
  exhaustive search over eviction choices on every tiny trace;
* accounting identities hold for every model;
* bijective index schemes preserve total traffic and merely permute it;
* fresh instances replay identically (no hidden global state);
* a one-thread partitioned cache is its one-array counterpart.

Every model runs through :func:`~repro.core.dispatch.dispatch` under both
engines, so the properties hold for each fast kernel as well as for the
per-access loop.
"""

from __future__ import annotations

import functools
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.address import CacheGeometry
from repro.core.caches import (
    AdaptiveGroupAssociativeCache,
    BalancedCache,
    BeladyCache,
    ColumnAssociativeCache,
    DirectMappedCache,
    PartnerIndexCache,
    SetAssociativeCache,
    SkewedAssociativeCache,
    VictimCache,
)
from repro.core.dispatch import ENGINES, dispatch
from repro.core.indexing import ModuloIndexing, OddMultiplierIndexing, XorIndexing
from repro.core.simulator import simulate
from repro.multithread import (
    PartitionedAdaptiveCache,
    StaticPartitionedCache,
    simulate_partitioned,
)
from repro.trace import Trace
from differential_support import assert_same_state

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "core"))
import test_differential as harness  # noqa: E402  (the harness's trace zoo)

#: Small cache so short random traces exercise real contention.
G = CacheGeometry(capacity_bytes=2048, line_bytes=32, ways=1, address_bits=20)

ALL_MODELS = [
    ("direct_mapped", lambda: DirectMappedCache(G)),
    ("2way", lambda: SetAssociativeCache(G.with_ways(2))),
    ("column", lambda: ColumnAssociativeCache(G)),
    ("column_unguarded", lambda: ColumnAssociativeCache(G, protect_conventional=False)),
    ("adaptive", lambda: AdaptiveGroupAssociativeCache(G)),
    ("bcache", lambda: BalancedCache(G)),
    ("victim", lambda: VictimCache(G, victim_lines=4)),
    ("partner", lambda: PartnerIndexCache(G, rebalance_period=256)),
    ("skewed", lambda: SkewedAssociativeCache(G)),
]


def random_trace(seed: int, n: int = 1500) -> Trace:
    rng = np.random.default_rng(seed)
    # Mix of hot blocks and a cold tail over 8x the cache capacity.
    hot = rng.integers(0, 2048, size=n // 2)
    cold = rng.integers(0, 16 * 1024, size=n - n // 2)
    addrs = np.concatenate([hot, cold])
    rng.shuffle(addrs)
    return Trace(addrs.astype(np.uint64), name=f"rand{seed}")


@pytest.mark.parametrize("seed", range(5))
class TestBeladyBound:
    def test_min_lower_bounds_everything(self, seed):
        trace = random_trace(seed)
        blocks = trace.blocks(G.offset_bits).astype(np.int64)
        for engine in ENGINES:
            optimal = dispatch(BeladyCache(G, blocks), trace, engine=engine).misses
            for name, factory in ALL_MODELS:
                misses = dispatch(factory(), trace, engine=engine).misses
                assert misses >= optimal, f"{name} beat Belady (impossible), {engine}"


def brute_force_min(blocks: tuple[int, ...], capacity: int) -> int:
    """The fewest misses over every choice of victim at every full miss."""

    @functools.lru_cache(maxsize=None)
    def fewest(i: int, resident: frozenset) -> int:
        if i == len(blocks):
            return 0
        b = blocks[i]
        if b in resident:
            return fewest(i + 1, resident)
        if len(resident) < capacity:
            return 1 + fewest(i + 1, resident | {b})
        return 1 + min(fewest(i + 1, resident - {v} | {b}) for v in resident)

    return fewest(0, frozenset())


def tiny_traces(max_len: int, max_blocks: int):
    """Every block sequence of up to ``max_len`` accesses over up to
    ``max_blocks`` blocks, once per renaming of its blocks (each block is
    numbered by its first access): renaming changes no miss count."""
    for n in range(max_len + 1):
        for seq in itertools.product(range(max_blocks), repeat=n):
            if all(b <= max(seq[:i], default=-1) + 1 for i, b in enumerate(seq)):
                yield seq


@pytest.mark.parametrize("capacity", [1, 2, 3])
def test_belady_equals_brute_force_min(capacity):
    """MIN is optimal: on every trace of up to 8 accesses over up to 4
    blocks, both engines' Belady misses equal the exhaustive search's."""
    g = CacheGeometry(capacity_bytes=64, line_bytes=16, ways=1, address_bits=16)
    for seq in tiny_traces(8, 4):
        trace = Trace(np.array(seq, dtype=np.uint64) * np.uint64(16), name="tiny")
        expected = brute_force_min(seq, capacity)
        for engine in ENGINES:
            cache = BeladyCache(g, np.array(seq, dtype=np.int64))
            cache.capacity_lines = capacity  # any line count, not a power of two
            assert dispatch(cache, trace, engine=engine).misses == expected, (seq, engine)


@pytest.mark.parametrize("name,factory", ALL_MODELS, ids=[n for n, _ in ALL_MODELS])
class TestAccountingIdentities:
    def test_identities(self, name, factory):
        trace = random_trace(99)
        for engine in ENGINES:
            res = dispatch(factory(), trace, engine=engine)
            assert res.hits + res.misses == res.accesses == len(trace)
            assert int(res.slot_hits.sum()) == res.hits
            assert int(res.slot_misses.sum()) == res.misses
            assert int(res.slot_accesses.sum()) >= res.accesses
            assert res.lookup_cycles >= res.accesses  # every access costs >= 1

    def test_replay_identical(self, name, factory):
        trace = random_trace(7)
        for engine in ENGINES:
            a = dispatch(factory(), trace, engine=engine)
            b = dispatch(factory(), trace, engine=engine)
            assert a.misses == b.misses
            np.testing.assert_array_equal(a.slot_misses, b.slot_misses)

    def test_contents_bounded_by_capacity(self, name, factory):
        trace = random_trace(3)
        limit = G.num_lines
        if name == "victim":
            limit += 4  # the victim buffer is extra storage by design
        for engine in ENGINES:
            model = factory()
            dispatch(model, trace, engine=engine)
            assert len(model.contents()) <= limit, engine


class TestBijectiveSchemesPreserveTraffic:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_total_accesses_invariant(self, seed):
        trace = random_trace(seed % 1000, n=600)
        totals = set()
        for scheme in (ModuloIndexing(G), XorIndexing(G), OddMultiplierIndexing(G, 9)):
            res = simulate(DirectMappedCache(G, scheme), trace)
            totals.add(int(res.slot_accesses.sum()))
        assert len(totals) == 1  # hashing permutes sets, never drops traffic

    def test_within_tag_permutation_preserves_self_conflicts(self):
        """A trace confined to one tag has identical misses under any
        tag-XOR scheme (the permutation is a relabeling of sets)."""
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, G.num_sets * G.line_bytes, size=2000).astype(np.uint64)
        t = Trace(addrs, name="one-tag")
        m0 = simulate(DirectMappedCache(G, ModuloIndexing(G)), t).misses
        m1 = simulate(DirectMappedCache(G, XorIndexing(G)), t).misses
        m2 = simulate(DirectMappedCache(G, OddMultiplierIndexing(G, 31)), t).misses
        assert m0 == m1 == m2


class TestAssociativityMonotonicity:
    @pytest.mark.parametrize("seed", range(3))
    def test_lru_inclusion_property(self, seed):
        """LRU's stack-inclusion property: with the *same set count*, adding
        ways can never add misses (a theorem, unlike equal-capacity
        comparisons where remapping can go either way)."""
        trace = random_trace(seed)
        for engine in ENGINES:
            misses = []
            for ways in (1, 2, 4):
                g = CacheGeometry(
                    G.capacity_bytes * ways, G.line_bytes, ways, G.address_bits
                )
                assert g.num_sets == G.num_sets
                misses.append(dispatch(SetAssociativeCache(g), trace, engine=engine).misses)
            assert misses[0] >= misses[1] >= misses[2], engine


#: ``(id, one-array model, its one-thread partitioned twin, end-state
#: fields)``.  One thread owns every line, so its primary line is the
#: modulo index.
ONE_THREAD = [
    (
        "adaptive",
        AdaptiveGroupAssociativeCache,
        lambda g: PartitionedAdaptiveCache(g, 1),
        ("_blocks", "_disposable", "_out_of_position", "_sht", "_out", "_cold_pool"),
    ),
    ("static", DirectMappedCache, lambda g: StaticPartitionedCache(g, 1), ("_blocks",)),
]

ONE_THREAD_TRACES = (
    "random", "hot", "ping_pong", "pair_ping_pong", "conflict", "scan", "repeats",
    "one_set", "cycle3", "cycle9", "phases", "threads1/out_first", "empty", "single",
)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("geometry", [harness.TINY, harness.SMALL], ids=["tiny", "small"])
@pytest.mark.parametrize(
    "single, partitioned, fields", [r[1:] for r in ONE_THREAD], ids=[r[0] for r in ONE_THREAD]
)
def test_one_thread_partitioned_is_the_whole_cache(single, partitioned, fields, geometry, engine):
    """Hits, misses, hit classes, lookup cycles, per-set arrays and end
    state of a one-thread partitioned cache equal its one-array model's,
    under each engine, over the differential harness's trace zoo."""
    for name in ONE_THREAD_TRACES:
        trace = harness.zoo(geometry, name)
        whole, part = single(geometry), partitioned(geometry)
        res = dispatch(whole, trace, engine=engine)
        got = simulate_partitioned(part, trace, engine=engine)
        assert (got.accesses, got.hits, got.misses, got.lookup_cycles) == (
            res.accesses, res.hits, res.misses, res.lookup_cycles
        ), name
        assert got.direct_hits == res.extra.get("direct_hits", 0), name
        assert_same_state(part.stats, whole.stats, name)
        for field in fields:
            assert_same_state(getattr(part, field), getattr(whole, field), f"{name}.{field}")
