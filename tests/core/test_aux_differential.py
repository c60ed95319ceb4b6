"""Differential tests: the aux replay engine ≡ the sequential wrapper.

Fifth instalment of the differential-testing contract (see DESIGN.md
§5.7): the miss-event replay in :mod:`repro.core.aux.fast` must be
*bit-identical* to driving :class:`~repro.core.aux.AugmentedCache` one
access at a time through :func:`~repro.core.simulator.simulate` — equal
:class:`~repro.core.simulator.SimulationResult` (totals, lookup cycles,
per-set histograms, ``extra`` hit classes) **and** equal post-run object
state (main array contents, victim/miss-cache entry order, stream-buffer
queue contents and LRU order), across:

* every supported combo (vc, mc, sb, vc+sb, mc+sb) × every registered
  indexing scheme × the adversarial trace zoo, plus Hypothesis-generated
  address streams;
* every ordering of one to three distinct structure types, built directly
  with :class:`~repro.core.aux.AugmentedCache` (probe priority is the
  order), with the fast path's ``extra`` key order pinned;
* buffer depths 1/2/4/8, stream counts, both allocate-on-miss modes;
* the :func:`~repro.core.aux.simulate_aux_sweep` sweep path — shared
  main-array pass ≡ the per-cell path ≡ sequential;
* the ``fast:aux-replay`` entry of :func:`~repro.core.dispatch.dispatch`:
  pristine-state fallbacks (dirty/warmed compositions take the sequential
  engine but still agree), their paths, and engine/config rejection;
* victim-cache swap semantics regressions (a miss-in-main/hit-in-VC
  access swaps exactly one pair of blocks).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.address import CacheGeometry
from repro.core.aux import (
    AUX_COMBOS,
    AugmentedCache,
    MissCache,
    StreamBuffer,
    VictimBuffer,
    make_aux_structures,
    simulate_aux,
    simulate_aux_sweep,
)
from repro.core.caches import DirectMappedCache, VictimCache
from repro.core.dispatch import dispatch
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

SMALL = CacheGeometry(capacity_bytes=2048, line_bytes=16, ways=1, address_bits=16)


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


def ping_pong_trace(geometry: CacheGeometry, n: int = 3000) -> Trace:
    """Two blocks aliasing one set: the victim cache's best case."""
    line = geometry.line_bytes
    span = geometry.num_sets * line
    addrs = np.array([3 * line, 3 * line + span], dtype=np.uint64)
    return Trace(np.tile(addrs, n // 2), name="ping_pong")


def sequential_scan_trace(geometry: CacheGeometry, n: int = 3000) -> Trace:
    """A pure sequential walk: the stream buffers' best case."""
    line = geometry.line_bytes
    addrs = (np.arange(n, dtype=np.uint64) * line) % (1 << geometry.address_bits)
    return Trace(addrs, name="scan")


def empty_trace() -> Trace:
    return Trace(np.empty(0, dtype=np.uint64), name="empty")


def single_access_trace(geometry: CacheGeometry) -> Trace:
    return Trace(np.array([7 * geometry.line_bytes], dtype=np.uint64), name="single")


def trace_zoo(geometry: CacheGeometry) -> list[Trace]:
    return [
        random_trace(geometry),
        hot_trace(geometry),
        ping_pong_trace(geometry),
        sequential_scan_trace(geometry),
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


def assert_cache_state_identical(
    fast_cache: AugmentedCache, slow_cache: AugmentedCache, ctx: str
) -> None:
    """Main array, buffer contents AND their recency/insertion order."""
    np.testing.assert_array_equal(
        fast_cache.base._blocks, slow_cache.base._blocks, err_msg=ctx
    )
    for fst, sst in zip(fast_cache.structures, slow_cache.structures):
        assert type(fst) is type(sst), ctx
        if isinstance(fst, StreamBuffer):
            assert [list(q) for q in fst._queues] == [
                list(q) for q in sst._queues
            ], ctx
        else:
            assert list(fst._entries) == list(sst._entries), ctx
    # Base stats carry the main-array view either engine.
    assert fast_cache.base.stats.accesses == slow_cache.base.stats.accesses, ctx
    assert fast_cache.base.stats.misses == slow_cache.base.stats.misses, ctx
    assert fast_cache.base.stats.extra == slow_cache.base.stats.extra, ctx
    np.testing.assert_array_equal(
        fast_cache.base.stats.slot_misses, slow_cache.base.stats.slot_misses,
        err_msg=ctx,
    )


def make_pair(scheme, combo: str, depth: int, **kw):
    def build():
        base = DirectMappedCache(scheme.geometry, indexing=scheme)
        return AugmentedCache(base, make_aux_structures(combo, depth, **kw))

    return build(), build()


# -- the stats-level engine -------------------------------------------------------


class TestStatsEngine:
    @pytest.mark.parametrize("combo", AUX_COMBOS)
    def test_all_schemes_all_traces(self, combo):
        geometry = SMALL
        fit = random_trace(geometry, n=2000, seed=99)
        for scheme in scheme_lineup(geometry, fit):
            for trace in trace_zoo(geometry):
                for depth in (1, 4):
                    ctx = f"{combo}{depth}/{scheme.name}/{trace.name}"
                    fast = simulate_aux(
                        scheme, trace, geometry, combo=combo, depth=depth
                    )
                    slow = simulate_aux(
                        scheme, trace, geometry, combo=combo, depth=depth,
                        engine="sequential",
                    )
                    assert_results_identical(fast, slow, ctx)

    @pytest.mark.parametrize("allocate", ["miss", "always"])
    @pytest.mark.parametrize("streams", [1, 2, 8])
    def test_stream_buffer_shapes(self, streams, allocate):
        geometry = SMALL
        scheme = XorIndexing(geometry)
        for combo in ("sb", "vc+sb"):
            for trace in (sequential_scan_trace(geometry), random_trace(geometry)):
                ctx = f"{combo}/streams={streams}/{allocate}/{trace.name}"
                fast = simulate_aux(
                    scheme, trace, geometry, combo=combo, depth=4,
                    streams=streams, allocate=allocate,
                )
                slow = simulate_aux(
                    scheme, trace, geometry, combo=combo, depth=4,
                    streams=streams, allocate=allocate, engine="sequential",
                )
                assert_results_identical(fast, slow, ctx)

    def test_accounting_invariants(self):
        geometry = SMALL
        scheme = ModuloIndexing(geometry)
        trace = hot_trace(geometry)
        for combo in AUX_COMBOS:
            res = simulate_aux(scheme, trace, geometry, combo=combo, depth=4)
            aux_hits = sum(
                res.extra.get(k, 0)
                for k in ("victim_hits", "miss_cache_hits", "stream_hits")
            )
            assert res.extra.get("direct_hits", 0) + aux_hits == res.hits, combo
            assert int(res.slot_hits.sum()) == res.hits, combo
            assert int(res.slot_misses.sum()) == res.misses, combo

    def test_rejections(self):
        geometry = SMALL
        scheme = ModuloIndexing(geometry)
        trace = single_access_trace(geometry)
        with pytest.raises(ValueError, match="unknown engine"):
            simulate_aux(scheme, trace, geometry, engine="turbo")
        with pytest.raises(ValueError, match="unknown aux combo"):
            simulate_aux(scheme, trace, geometry, combo="vc+vc")
        with pytest.raises(ValueError, match="direct-mapped"):
            g2 = CacheGeometry(2048, 16, ways=2, address_bits=16)
            simulate_aux(ModuloIndexing(g2), trace, g2)
        with pytest.raises(ValueError, match="at least one line"):
            simulate_aux(scheme, trace, geometry, combo="vc", depth=0)


# -- the sweep path ---------------------------------------------------------------


class TestAuxSweep:
    def test_sweep_equals_per_cell_equals_sequential(self):
        geometry = SMALL
        scheme = XorIndexing(geometry)
        specs = [(combo, depth) for combo in AUX_COMBOS for depth in (1, 2, 8)]
        for trace in trace_zoo(geometry):
            swept = simulate_aux_sweep(scheme, trace, geometry, specs)
            seq = [
                simulate_aux(
                    scheme, trace, geometry, combo=combo, depth=depth,
                    engine="sequential",
                )
                for combo, depth in specs
            ]
            assert len(swept) == len(specs)
            for (combo, depth), a, b in zip(specs, swept, seq):
                ctx = f"{combo}{depth}/{trace.name}"
                assert_results_identical(a, b, ctx)
                cell = simulate_aux(
                    scheme, trace, geometry, combo=combo, depth=depth
                )
                assert_results_identical(a, cell, ctx + "/per-cell")

    def test_sweep_validates_before_work(self):
        geometry = SMALL
        scheme = ModuloIndexing(geometry)
        with pytest.raises(ValueError, match="unknown aux combo"):
            simulate_aux_sweep(
                scheme, random_trace(geometry), geometry, [("vc", 4), ("zz", 4)]
            )

    def test_sweep_preserves_order_and_models(self):
        geometry = SMALL
        scheme = ModuloIndexing(geometry)
        specs = [("mc", 2), ("vc", 8), ("sb", 4)]
        results = simulate_aux_sweep(scheme, hot_trace(geometry), geometry, specs)
        assert [r.model for r in results] == [
            f"augmented[{scheme.name},{c}{d}]" for c, d in specs
        ]


# -- the cache-object dispatch entry ----------------------------------------------


class TestSimulateAugmented:
    @pytest.mark.parametrize("combo", AUX_COMBOS)
    def test_auto_equals_sequential_with_state(self, combo):
        geometry = SMALL
        scheme = XorIndexing(geometry)
        for trace in trace_zoo(geometry):
            ctx = f"{combo}/{trace.name}"
            fast_cache, slow_cache = make_pair(scheme, combo, 4)
            fast = dispatch(fast_cache, trace)
            assert fast.path == "fast:aux-replay", ctx
            slow = simulate(slow_cache, trace)
            assert_results_identical(fast, slow, ctx)
            assert_cache_state_identical(fast_cache, slow_cache, ctx)
            fast_cache.check_invariants()
            fast_cache.stats.check_invariants()

    @pytest.mark.parametrize("combo", AUX_COMBOS)
    def test_dirty_cache_falls_back_but_agrees(self, combo):
        """A second run over the same object is not pristine: the dispatcher
        must take the sequential engine and still match it exactly."""
        geometry = SMALL
        scheme = ModuloIndexing(geometry)
        t1 = hot_trace(geometry, n=800, seed=3)
        t2 = random_trace(geometry, n=800, seed=4)
        fast_cache, slow_cache = make_pair(scheme, combo, 4)
        dispatch(fast_cache, t1)
        simulate(slow_cache, t1)
        fast = dispatch(fast_cache, t2)
        assert fast.path == "sequential:warm-state"
        slow = simulate(slow_cache, t2)
        assert_results_identical(fast, slow, f"{combo}/dirty")
        assert_cache_state_identical(fast_cache, slow_cache, f"{combo}/dirty")

    def test_overriding_subclass_falls_back(self):
        """The gate is method identity, not type identity: a subclass that
        leaves the access path alone (like the migrated VictimCache) keeps
        the replay, one that overrides it must fall back."""

        class Plain(AugmentedCache):
            pass

        class Overrides(AugmentedCache):
            def _access_block(self, block, is_write):
                return super()._access_block(block, is_write)

        geometry = SMALL
        scheme = ModuloIndexing(geometry)

        def build(cls):
            base = DirectMappedCache(geometry, indexing=scheme)
            return cls(base, make_aux_structures("vc", 4))

        trace = hot_trace(geometry, n=400)
        assert dispatch(build(Plain), trace).path == "fast:aux-replay"
        res = dispatch(build(Overrides), trace)
        assert res.path == "sequential:no-kernel"
        ref_cache, _ = make_pair(scheme, "vc", 4)
        seq = simulate(ref_cache, trace)
        assert res.misses == seq.misses

    def test_unregistered_structure_falls_back(self):
        class WeirdBuffer(VictimBuffer):
            pass

        geometry = SMALL
        base = DirectMappedCache(geometry)
        cache = AugmentedCache(base, (WeirdBuffer(4),))
        trace = hot_trace(geometry, n=400)
        res = dispatch(cache, trace)
        assert res.path == "sequential:no-kernel"
        seq = simulate(
            AugmentedCache(DirectMappedCache(geometry), (VictimBuffer(4),)),
            trace,
        )
        assert_results_identical(res, seq, "weird-buffer")

    def test_victim_cache_subclass_takes_fast_path(self):
        """The migrated VictimCache adds no access-path override, so the
        entry's method-identity check admits it."""
        cache = VictimCache(SMALL, victim_lines=4)
        assert dispatch(cache, hot_trace(SMALL, n=400)).path == "fast:aux-replay"

    def test_rejects_unknown_engine(self):
        cache = VictimCache(SMALL, victim_lines=2)
        with pytest.raises(ValueError, match="unknown engine"):
            dispatch(cache, single_access_trace(SMALL), engine="turbo")


# -- every probe order --------------------------------------------------------------


def mixed_trace(geometry: CacheGeometry, n: int = 4000, seed: int = 5) -> Trace:
    """Sequential runs cut by aliasing ping-pongs and hot-pool reuse, so a
    block can sit in several structures at once and probe order decides,
    and stream queues can share a head."""
    rng = np.random.default_rng(seed)
    line, span = geometry.line_bytes, geometry.num_sets * geometry.line_bytes
    limit = 1 << geometry.address_bits
    out = []
    while len(out) < n:
        start = int(rng.integers(0, 64)) * line
        run = int(rng.integers(2, 12))
        out += [(start + i * line) % limit for i in range(run)]
        base = int(rng.integers(0, geometry.num_sets)) * line
        out += [base, base + span, base, base + 2 * span][: int(rng.integers(1, 5))]
        # Walking on from a re-missed block hits one of several queues
        # that share a head.
        out += [base + line, base + 2 * line][: int(rng.integers(0, 3))]
        out.append(int(rng.integers(0, 96)) * line)
    return Trace(np.array(out[:n], dtype=np.uint64), name="mixed")


#: Every ordering of one to three distinct structure types.
ORDERINGS = [
    order
    for r in (1, 2, 3)
    for order in itertools.permutations(("vc", "mc", "sb"), r)
]


def build_structures(order, depths: tuple[int, int], streams: int, allocate: str):
    """Structures in probe ``order``; ``depths`` is (victim buffer, rest)."""
    vc_depth, depth = depths
    make = {
        "vc": lambda: VictimBuffer(vc_depth),
        "mc": lambda: MissCache(depth),
        "sb": lambda: StreamBuffer(depth, streams=streams, allocate=allocate),
    }
    return tuple(make[name]() for name in order)


def expected_extra_order(result, structures) -> list[str]:
    """The fast path's ``extra`` key order: stream counters (allocations
    first), then direct hits, then each structure's hits in probe order."""
    keys = ["stream_allocs", "stream_prefetches", "direct_hits"]
    keys += [st.hit_class + "_hits" for st in structures]
    return [k for k in keys if k in result.extra]


#: (victim-buffer depth, depth of the rest).  A miss cache behind a victim
#: buffer hits only on blocks the buffer has already let go, which a
#: one-line buffer does often.
DEPTHS = [(1, 1), (3, 3), (1, 4)]


def _ordering_cases():
    for order in ORDERINGS:
        for depths in DEPTHS:
            if "sb" not in order:
                yield order, depths, 4, "miss"
                continue
            for allocate in ("miss", "always"):
                for streams in (1, 4):
                    yield order, depths, streams, allocate


def _case_id(value) -> str:
    if isinstance(value, tuple) and isinstance(value[0], str):
        return "+".join(value)
    if isinstance(value, tuple):
        return "d{}/{}".format(*value)
    return str(value)


class TestEveryOrdering:
    @pytest.mark.parametrize(
        "order,depths,streams,allocate", list(_ordering_cases()), ids=_case_id
    )
    def test_dispatch_equals_sequential(self, order, depths, streams, allocate):
        geometry = SMALL
        scheme = ModuloIndexing(geometry)
        for trace in (mixed_trace(geometry), hot_trace(geometry, n=2000)):
            ctx = f"{'+'.join(order)}/{depths}/s{streams}/{allocate}/{trace.name}"
            caches = [
                AugmentedCache(
                    DirectMappedCache(geometry, indexing=scheme),
                    build_structures(order, depths, streams, allocate),
                )
                for _ in range(2)
            ]
            fast = dispatch(caches[0], trace)
            assert fast.path == "fast:aux-replay", ctx
            slow = dispatch(caches[1], trace, engine="sequential")
            assert slow.path.startswith("sequential"), ctx
            assert_results_identical(fast, slow, ctx)
            assert_cache_state_identical(caches[0], caches[1], ctx)
            assert list(fast.extra) == expected_extra_order(fast, caches[0].structures), ctx
            caches[0].check_invariants()

    @pytest.mark.parametrize("allocate", ["miss", "always"])
    def test_orderings_reach_every_hit_class(self, allocate):
        """The mixed trace is only worth its cases if each structure gets
        to service hits in each position of the probe order."""
        geometry = SMALL
        scheme = ModuloIndexing(geometry)
        trace = mixed_trace(geometry)
        for order in ORDERINGS:
            structures = build_structures(order, DEPTHS[-1], 4, allocate)
            res = dispatch(
                AugmentedCache(DirectMappedCache(geometry, indexing=scheme), structures),
                trace,
            )
            for st in structures:
                assert res.extra.get(st.hit_class + "_hits", 0) > 0, (order, st.name)


    @pytest.mark.parametrize("engine", ["auto", "sequential"])
    def test_duplicate_heads_advance_the_lru_queue(self, engine):
        """Two queues can share a head (a block missed twice starts the
        same stream twice); a hit on that head advances the least recently
        used of them, which is visible in the queue order."""
        geometry = SMALL
        line, sets = geometry.line_bytes, geometry.num_sets
        a = 5
        addrs = [a * line, (a + sets) * line, a * line, (a + 1) * line]
        cache = AugmentedCache(
            DirectMappedCache(geometry), (StreamBuffer(2, streams=4),)
        )
        res = dispatch(cache, Trace(np.array(addrs, dtype=np.uint64)), engine=engine)
        assert res.extra["stream_hits"] == 1
        assert [list(q) for q in cache.structures[0]._queues] == [
            [a + sets + 1, a + sets + 2],
            [a + 1, a + 2],
            [a + 2, a + 3],
        ]


# -- Hypothesis: arbitrary address streams ----------------------------------------


address_lists = st.lists(
    st.integers(min_value=0, max_value=(1 << 16) - 1), min_size=0, max_size=400
)


class TestHypothesisDifferential:
    @settings(max_examples=40, deadline=None)
    @given(address_lists, st.sampled_from(AUX_COMBOS), st.sampled_from([1, 2, 4]))
    def test_fast_equals_sequential(self, addrs, combo, depth):
        trace = Trace(np.array(addrs, dtype=np.uint64), name="hyp")
        scheme = XorIndexing(SMALL)
        fast_cache, slow_cache = make_pair(scheme, combo, depth)
        fast = dispatch(fast_cache, trace)
        slow = simulate(slow_cache, trace)
        ctx = f"{combo}{depth}"
        assert_results_identical(fast, slow, ctx)
        assert_cache_state_identical(fast_cache, slow_cache, ctx)
        fast_cache.check_invariants()

    @settings(max_examples=25, deadline=None)
    @given(address_lists, st.sampled_from(["miss", "always"]))
    def test_stream_modes(self, addrs, allocate):
        trace = Trace(np.array(addrs, dtype=np.uint64), name="hyp")
        scheme = ModuloIndexing(SMALL)

        def build():
            return AugmentedCache(
                DirectMappedCache(SMALL, indexing=scheme),
                make_aux_structures("mc+sb", 2, streams=2, allocate=allocate),
            )

        fast_cache, slow_cache = build(), build()
        fast = dispatch(fast_cache, trace)
        slow = simulate(slow_cache, trace)
        assert_results_identical(fast, slow, allocate)
        assert_cache_state_identical(fast_cache, slow_cache, allocate)


# -- victim-cache swap semantics regressions --------------------------------------


class TestVictimSwapSemantics:
    def test_swap_exchanges_exactly_one_pair(self):
        """A miss-in-main/hit-in-VC access must swap one pair of blocks:
        the serviced block moves to the main array, the displaced main
        block moves into the buffer, and nothing else changes."""
        g = SMALL
        cache = VictimCache(g, victim_lines=4)
        line, span = g.line_bytes, g.num_sets * g.line_bytes
        a, b = 3 * line, 3 * line + span  # same set, different blocks
        blk_a, blk_b = a // line, b // line
        cache.access(a)
        cache.access(b)  # a evicted into the buffer
        before_main = cache.base.contents()
        before_buf = cache.structures[0].contents()
        assert blk_a in before_buf and blk_b in before_main
        r = cache.access(a)  # swap
        assert r.hit and r.hit_class == "victim" and r.cycles == 2
        after_main = cache.base.contents()
        after_buf = cache.structures[0].contents()
        assert after_main == (before_main - {blk_b}) | {blk_a}
        assert after_buf == (before_buf - {blk_a}) | {blk_b}
        # One swap exchanges exactly one pair; totals are unchanged.
        assert len(after_main) == len(before_main)
        assert len(after_buf) == len(before_buf)
        cache.check_invariants()

    def test_swap_never_overflows_buffer(self):
        """The probe frees a buffer slot before the displaced block is
        inserted, so a swap can never push an unrelated block out."""
        g = SMALL
        cache = VictimCache(g, victim_lines=2)
        line, span = g.line_bytes, g.num_sets * g.line_bytes
        blocks = [3 * line + i * span for i in range(3)]
        for addr in blocks:
            cache.access(addr)  # buffer now holds blocks[0], blocks[1]
        buf = cache.structures[0].contents()
        r = cache.access(blocks[0])
        assert r.hit and r.hit_class == "victim"
        assert r.evicted_block is None  # swap, not an overflow
        assert cache.structures[0].contents() == (buf - {blocks[0] // line}) | {
            blocks[2] // line
        }

    @settings(max_examples=30, deadline=None)
    @given(address_lists)
    def test_disjoint_and_bounded_always(self, addrs):
        cache = VictimCache(SMALL, victim_lines=4)
        for a in addrs:
            cache.access(a)
        cache.check_invariants()
