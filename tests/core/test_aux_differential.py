"""Augmented caches: the differential harness's aux rows under the aux
suite's test names, and the aux checks that are not row comparisons.

The rows and the trace zoo live in ``test_differential.py``; each test
here takes its rows with ``rows``/``groups``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.address import CacheGeometry
from repro.core.aux import (
    AUX_COMBOS,
    AugmentedCache,
    StreamBuffer,
    VictimBuffer,
    make_aux_structures,
    simulate_aux,
    simulate_aux_sweep,
)
from repro.core.caches import DirectMappedCache, VictimCache
from repro.core.dispatch import dispatch
from repro.core.indexing import ModuloIndexing, XorIndexing
from repro.core.simulator import simulate
from repro.trace import Trace
from differential_support import assert_same_state
from test_differential import (
    DEPTHS,
    MID,
    ORDERINGS,
    SMALL,
    Case,
    build_structures,
    groups,
    rows,
    run_rows,
    run_twins,
    zoo,
)

SWEEP = rows("simulate_aux_sweep", "xor")
VICTIM_CACHE = rows(AugmentedCache, "victim-cache")


def augmented(combo: str, depth: int, scheme=None, **kw) -> AugmentedCache:
    return AugmentedCache(
        DirectMappedCache(SMALL, indexing=scheme or ModuloIndexing(SMALL)),
        make_aux_structures(combo, depth, **kw),
    )


class TestStatsEngine:
    @groups(AugmentedCache, {combo: f"combo/{combo}" for combo in AUX_COMBOS})
    def test_all_schemes_all_traces(self, rows):
        run_rows(rows)

    @groups(
        AugmentedCache,
        {f"{s}-{a}": f"streams/s{s}/{a}" for a in ("miss", "always") for s in (1, 2, 8)},
    )
    def test_stream_buffer_shapes(self, rows):
        run_rows(rows)

    def test_accounting_invariants(self):
        scheme = ModuloIndexing(SMALL)
        trace = zoo(SMALL, "hot")
        for combo in AUX_COMBOS:
            res = simulate_aux(scheme, trace, SMALL, combo=combo, depth=4)
            aux_hits = sum(
                res.extra.get(k, 0) for k in ("victim_hits", "miss_cache_hits", "stream_hits")
            )
            assert res.extra.get("direct_hits", 0) + aux_hits == res.hits, combo
            assert int(res.slot_hits.sum()) == res.hits, combo
            assert int(res.slot_misses.sum()) == res.misses, combo

    def test_rejections(self):
        scheme = ModuloIndexing(SMALL)
        trace = zoo(SMALL, "single")
        with pytest.raises(ValueError, match="unknown engine"):
            simulate_aux(scheme, trace, SMALL, engine="turbo")
        with pytest.raises(ValueError, match="unknown aux combo"):
            simulate_aux(scheme, trace, SMALL, combo="vc+vc")
        with pytest.raises(ValueError, match="direct-mapped"):
            g2 = CacheGeometry(2048, 16, ways=2, address_bits=16)
            simulate_aux(ModuloIndexing(g2), trace, g2)
        with pytest.raises(ValueError, match="at least one line"):
            simulate_aux(scheme, trace, SMALL, combo="vc", depth=0)


class TestAuxSweep:
    def test_sweep_equals_per_cell_equals_sequential(self):
        run_rows(SWEEP)

    def test_sweep_validates_before_work(self):
        with pytest.raises(ValueError, match="unknown aux combo"):
            simulate_aux_sweep(
                ModuloIndexing(SMALL), zoo(SMALL, "hot"), SMALL, [("vc", 4), ("zz", 4)]
            )

    def test_sweep_preserves_order_and_models(self):
        scheme = ModuloIndexing(SMALL)
        specs = [("mc", 2), ("vc", 8), ("sb", 4)]
        results = simulate_aux_sweep(scheme, zoo(SMALL, "hot"), SMALL, specs)
        assert [r.model for r in results] == [
            f"augmented[{scheme.name},{c}{d}]" for c, d in specs
        ]


class TestSimulateAugmented:
    @groups(AugmentedCache, {combo: f"combo/{combo}/d4/xor" for combo in AUX_COMBOS})
    def test_auto_equals_sequential_with_state(self, rows):
        run_rows(rows)

    def test_victim_cache_subclass_takes_fast_path(self):
        run_rows(VICTIM_CACHE)

    @pytest.mark.parametrize("combo", AUX_COMBOS)
    def test_dirty_cache_falls_back_but_agrees(self, combo):
        """A second run over the same object is not pristine: the dispatcher
        must take the sequential engine and still match it exactly."""
        t1, t2 = zoo(SMALL, "hot")[:800], zoo(SMALL, "random")[:800]
        fast_cache, slow_cache = augmented(combo, 4), augmented(combo, 4)
        dispatch(fast_cache, t1)
        simulate(slow_cache, t1)
        fast = dispatch(fast_cache, t2)
        assert fast.path == "sequential:warm-state"
        assert_same_state(fast, simulate(slow_cache, t2), f"{combo}/dirty")
        assert_same_state(fast_cache, slow_cache, f"{combo}/dirty")

    def test_overriding_subclass_falls_back(self):
        """The gate is method identity, not type identity: a subclass that
        leaves the access path alone (like the migrated VictimCache) keeps
        the replay, one that overrides it must fall back."""

        class Plain(AugmentedCache):
            pass

        class Overrides(AugmentedCache):
            def _access_block(self, block, is_write):
                return super()._access_block(block, is_write)

        def build(cls):
            return cls(DirectMappedCache(SMALL), make_aux_structures("vc", 4))

        trace = zoo(SMALL, "hot")[:400]
        assert dispatch(build(Plain), trace).path == "fast:aux-replay"
        res = dispatch(build(Overrides), trace)
        assert res.path == "sequential:no-kernel"
        assert res.misses == simulate(augmented("vc", 4), trace).misses

    def test_unregistered_structure_falls_back(self):
        class WeirdBuffer(VictimBuffer):
            pass

        trace = zoo(SMALL, "hot")[:400]
        res = dispatch(AugmentedCache(DirectMappedCache(SMALL), (WeirdBuffer(4),)), trace)
        assert res.path == "sequential:no-kernel"
        seq = simulate(AugmentedCache(DirectMappedCache(SMALL), (VictimBuffer(4),)), trace)
        assert_same_state(res, seq, "weird-buffer")

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            dispatch(VictimCache(SMALL, victim_lines=2), zoo(SMALL, "single"), engine="turbo")


def expected_extra_order(result, structures) -> list[str]:
    """The fast path's ``extra`` key order: stream counters (allocations
    first), then direct hits, then each structure's hits in probe order."""
    keys = ["stream_allocs", "stream_prefetches", "direct_hits"]
    keys += [st_.hit_class + "_hits" for st_ in structures]
    return [k for k in keys if k in result.extra]


def ordering_id(taken) -> str:
    """``order/vc+mc/d1-4/s4/miss`` as the aux suite named it: ``vc+mc-d1/4-4-miss``."""
    _, order, depths, streams, allocate = taken[0][1].id.split("/")
    return f"{order}-{depths.replace('-', '/')}-{streams[1:]}-{allocate}"


class TestEveryOrdering:
    @pytest.mark.parametrize(
        "rows", [[row] for row in rows(AugmentedCache, "order")], ids=ordering_id
    )
    def test_dispatch_equals_sequential(self, rows):
        for cache, fast in run_rows(rows):
            assert list(fast.extra) == expected_extra_order(fast, cache.structures), rows

    @pytest.mark.parametrize("allocate", ["miss", "always"])
    def test_orderings_reach_every_hit_class(self, allocate):
        """The ordering rows are only worth their cases if each structure
        services hits in each position of the probe order."""
        trace = zoo(MID, "mixed")
        for order in ORDERINGS:
            structures = build_structures(order, DEPTHS[-1], 4, allocate)
            res = dispatch(AugmentedCache(DirectMappedCache(MID), structures), trace)
            for st_ in structures:
                assert res.extra.get(st_.hit_class + "_hits", 0) > 0, (order, st_.name)

    @pytest.mark.parametrize("engine", ["auto", "sequential"])
    def test_duplicate_heads_advance_the_lru_queue(self, engine):
        """Two queues can share a head (a block missed twice starts the
        same stream twice); a hit on that head advances the least recently
        used of them, which is visible in the queue order."""
        line, sets = SMALL.line_bytes, SMALL.num_sets
        a = 5
        addrs = [a * line, (a + sets) * line, a * line, (a + 1) * line]
        cache = AugmentedCache(DirectMappedCache(SMALL), (StreamBuffer(2, streams=4),))
        res = dispatch(cache, Trace(np.array(addrs, dtype=np.uint64)), engine=engine)
        assert res.extra["stream_hits"] == 1
        assert [list(q) for q in cache.structures[0]._queues] == [
            [a + sets + 1, a + sets + 2],
            [a + 1, a + 2],
            [a + 2, a + 3],
        ]


address_lists = st.lists(st.integers(min_value=0, max_value=(1 << 16) - 1), max_size=400)


def drawn(addrs) -> Trace:
    return Trace(np.array(addrs, dtype=np.uint64), name="drawn")


class TestHypothesisDifferential:
    @settings(max_examples=40, deadline=None)
    @given(address_lists, st.sampled_from(AUX_COMBOS), st.sampled_from([1, 2, 4]))
    def test_fast_equals_sequential(self, addrs, combo, depth):
        scheme = XorIndexing(SMALL)
        case = Case(f"{combo}{depth}/xor", lambda: augmented(combo, depth, scheme), ())
        run_twins(AugmentedCache, case, drawn(addrs))

    @settings(max_examples=25, deadline=None)
    @given(address_lists, st.sampled_from(["miss", "always"]))
    def test_stream_modes(self, addrs, allocate):
        case = Case(
            f"mc+sb2/streams2/{allocate}",
            lambda: augmented("mc+sb", 2, streams=2, allocate=allocate),
            (),
        )
        run_twins(AugmentedCache, case, drawn(addrs))


class TestVictimSwapSemantics:
    def test_swap_exchanges_exactly_one_pair(self):
        """A miss-in-main/hit-in-VC access must swap one pair of blocks:
        the serviced block moves to the main array, the displaced main
        block moves into the buffer, and nothing else changes."""
        cache = VictimCache(SMALL, victim_lines=4)
        line, span = SMALL.line_bytes, SMALL.num_sets * SMALL.line_bytes
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
        cache = VictimCache(SMALL, victim_lines=2)
        line, span = SMALL.line_bytes, SMALL.num_sets * SMALL.line_bytes
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
