"""Differential tests: the k-way LRU stack-distance kernel ≡ the sequential engine.

Extends the PR-1 equivalence contract (``test_fastsim_differential.py``) to
the set-associative fast path.  Three layers are pinned:

* :func:`repro.core.fastsim.lru_miss_flags` against an *independent*
  OrderedDict-based k-way LRU model (not the package's own engine, so a
  shared bug cannot hide) — including non-power-of-two set counts and odd
  associativities, which only the kernel's generic index handling covers;
* :func:`repro.core.simulator.simulate_set_associative` /
  :func:`~repro.core.simulator.simulate_fully_associative` against the
  sequential engine driving :class:`~repro.core.caches.SetAssociativeCache`
  (LRU) and :class:`~repro.core.caches.FullyAssociativeCache` — hits,
  misses, per-set histograms, lookup cycles and the ``extra`` hit classes,
  for ways ∈ {1, 2, 4, 8}, every registered indexing scheme, randomized and
  adversarial traces;
* the consumers that dispatch between engines — the 3C classifier and the
  SMT / partitioned multithread simulators — with ``engine="auto"`` against
  ``engine="sequential"``.

Any new fast path added to the package must ship with an equivalence test
of this form (see DESIGN.md, "Differential-testing contract").
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest

from repro.core.address import PAPER_L1_GEOMETRY, CacheGeometry
from repro.core.caches import (
    DirectMappedCache,
    FullyAssociativeCache,
    SetAssociativeCache,
    SkewedAssociativeCache,
    VictimCache,
)
from repro.core.fastsim import (
    direct_mapped_miss_flags,
    lru_miss_flags,
    lru_stack_distances,
    per_set_counts,
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
from repro.core.selector import ThreadSchemeTable
from repro.core.simulator import (
    simulate,
    simulate_fully_associative,
    simulate_set_associative,
)
from repro.core.three_c import classify
from repro.multithread import (
    SMTSharedCache,
    StaticPartitionedCache,
    simulate_partitioned,
    simulate_smt,
)
from repro.trace import Trace

TINY = CacheGeometry(capacity_bytes=128, line_bytes=16, ways=1, address_bits=16)
SMALL = CacheGeometry(capacity_bytes=1024, line_bytes=16, ways=1)
PAPER = PAPER_L1_GEOMETRY

WAYS = [1, 2, 4, 8]


def kway_geometry(base: CacheGeometry, ways: int) -> CacheGeometry:
    """Same capacity/line/address space, ``ways``-way associative."""
    return CacheGeometry(base.capacity_bytes, base.line_bytes, ways, base.address_bits)


# -- independent reference model --------------------------------------------------


def reference_lru_miss_flags(
    blocks: np.ndarray, indices: np.ndarray, ways: int
) -> np.ndarray:
    """OrderedDict-per-set k-way LRU, written independently of fastsim."""
    sets: dict[int, OrderedDict[int, None]] = {}
    flags = np.empty(len(blocks), dtype=bool)
    for i, (b, s) in enumerate(zip(blocks.tolist(), indices.tolist())):
        lines = sets.setdefault(s, OrderedDict())
        if b in lines:
            flags[i] = False
            lines.move_to_end(b)
        else:
            flags[i] = True
            lines[b] = None
            if len(lines) > ways:
                lines.popitem(last=False)
    return flags


# -- trace zoo --------------------------------------------------------------------


def random_trace(geometry: CacheGeometry, n: int = 4000, seed: int = 7) -> Trace:
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, 1 << geometry.address_bits, size=n, dtype=np.uint64)
    return Trace(addrs, name="random")


def all_one_set_trace(geometry: CacheGeometry, n: int = 512) -> Trace:
    """Every access a fresh block of the same modulo set (stresses one stack)."""
    stride = np.uint64(geometry.num_sets * geometry.line_bytes)
    base = np.uint64(3 * geometry.line_bytes)
    idx = np.arange(n, dtype=np.uint64)
    addrs = (base + idx * stride) % np.uint64(1 << geometry.address_bits)
    return Trace(addrs, name="one_set")


def cyclic_set_trace(geometry: CacheGeometry, period: int, n: int = 900) -> Trace:
    """A, B, ..., A, B, ... cycling ``period`` conflicting blocks of one set —
    the LRU worst case: misses every access once ``period > ways``."""
    stride = np.uint64(geometry.num_sets * geometry.line_bytes)
    base = np.uint64(5 * geometry.line_bytes)
    idx = (np.arange(n) % period).astype(np.uint64)
    addrs = (base + idx * stride) % np.uint64(1 << geometry.address_bits)
    return Trace(addrs, name=f"cycle{period}")


def empty_trace() -> Trace:
    return Trace(np.empty(0, dtype=np.uint64), name="empty")


def single_access_trace(geometry: CacheGeometry) -> Trace:
    return Trace(np.array([7 * geometry.line_bytes], dtype=np.uint64), name="single")


def trace_zoo(geometry: CacheGeometry) -> list[Trace]:
    return [
        random_trace(geometry),
        all_one_set_trace(geometry),
        cyclic_set_trace(geometry, 3),
        cyclic_set_trace(geometry, 9),
        empty_trace(),
        single_access_trace(geometry),
    ]


def scheme_lineup(geometry: CacheGeometry, fit_trace: Trace) -> list:
    """One instance of every registered scheme, trainables fitted.

    Degenerate geometries (e.g. an 8-way TINY cache collapses to a single
    set) cannot host every scheme — prime-modulo needs ≥ 2 sets — so
    constructors that reject the geometry are skipped rather than faked.
    """
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


# -- kernel vs the independent reference ------------------------------------------


class TestKernelVsReference:
    @pytest.mark.parametrize("ways", WAYS + [3, 7])
    @pytest.mark.parametrize("geometry", [TINY, SMALL], ids=["tiny", "small"])
    def test_all_schemes_all_traces(self, geometry, ways):
        fit = random_trace(geometry, n=2000, seed=99)
        for scheme in scheme_lineup(geometry, fit):
            for trace in trace_zoo(geometry):
                blocks = trace.blocks(geometry.offset_bits).astype(np.int64)
                indices = scheme.indices_of(trace.addresses)
                flags = lru_miss_flags(blocks, indices, ways)
                ref = reference_lru_miss_flags(blocks, indices, ways)
                np.testing.assert_array_equal(
                    flags, ref, err_msg=f"{scheme.name}/{trace.name}/{ways}way"
                )

    @pytest.mark.parametrize("num_sets", [1, 3, 5, 12, 37])
    @pytest.mark.parametrize("ways", [1, 2, 3, 4, 8])
    def test_non_power_of_two_set_counts(self, num_sets, ways):
        """The kernel takes arbitrary index ranges (prime-modulo schemes)."""
        rng = np.random.default_rng(num_sets * 101 + ways)
        for trial in range(4):
            n = int(rng.integers(1, 1500))
            blocks = rng.integers(0, 64, size=n).astype(np.int64)
            indices = rng.integers(0, num_sets, size=n).astype(np.int64)
            np.testing.assert_array_equal(
                lru_miss_flags(blocks, indices, ways),
                reference_lru_miss_flags(blocks, indices, ways),
                err_msg=f"sets={num_sets} ways={ways} trial={trial}",
            )

    def test_ways_one_is_exactly_direct_mapped(self):
        trace = random_trace(SMALL, n=3000, seed=3)
        blocks = trace.blocks(SMALL.offset_bits).astype(np.int64)
        indices = ModuloIndexing(SMALL).indices_of(trace.addresses)
        np.testing.assert_array_equal(
            lru_miss_flags(blocks, indices, 1),
            direct_mapped_miss_flags(blocks, indices),
        )

    def test_stack_distances_are_mattson_consistent(self):
        """distance < k ⇔ hit at associativity k: one pass, every k."""
        trace = random_trace(SMALL, n=2500, seed=11)
        blocks = trace.blocks(SMALL.offset_bits).astype(np.int64)
        indices = ModuloIndexing(SMALL).indices_of(trace.addresses)
        dist = lru_stack_distances(blocks, indices)
        for ways in (1, 2, 3, 4, 8, 16):
            miss = (dist < 0) | (dist >= ways)
            np.testing.assert_array_equal(
                miss, reference_lru_miss_flags(blocks, indices, ways)
            )

    def test_rejects_bad_ways(self):
        with pytest.raises(ValueError):
            lru_miss_flags(np.array([1]), np.array([0]), 0)


# -- vectorised engine vs the package's sequential engine -------------------------


def assert_results_identical(fast, slow, ctx: str) -> None:
    assert fast.accesses == slow.accesses, ctx
    assert fast.hits == slow.hits, ctx
    assert fast.misses == slow.misses, ctx
    assert fast.lookup_cycles == slow.lookup_cycles, ctx
    assert fast.extra == slow.extra, ctx
    np.testing.assert_array_equal(fast.slot_accesses, slow.slot_accesses, err_msg=ctx)
    np.testing.assert_array_equal(fast.slot_hits, slow.slot_hits, err_msg=ctx)
    np.testing.assert_array_equal(fast.slot_misses, slow.slot_misses, err_msg=ctx)


class TestSetAssociativeVsSequentialEngine:
    @pytest.mark.parametrize("ways", WAYS)
    @pytest.mark.parametrize("base", [TINY, SMALL], ids=["tiny", "small"])
    def test_all_schemes_all_traces(self, base, ways):
        g = kway_geometry(base, ways)
        fit = random_trace(g, n=2000, seed=99)
        for scheme in scheme_lineup(g, fit):
            for trace in trace_zoo(g):
                fast = simulate_set_associative(scheme, trace, g)
                slow = simulate(SetAssociativeCache(g, scheme, policy="lru"), trace)
                assert_results_identical(
                    fast, slow, f"{scheme.name}/{trace.name}/{ways}way"
                )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_seeds_paper_capacity(self, seed):
        g = kway_geometry(PAPER, 4)
        trace = random_trace(g, n=6000, seed=seed)
        for scheme in (ModuloIndexing(g), XorIndexing(g), PrimeModuloIndexing(g)):
            fast = simulate_set_associative(scheme, trace, g)
            slow = simulate(SetAssociativeCache(g, scheme, policy="lru"), trace)
            assert_results_identical(fast, slow, f"seed={seed}/{scheme.name}")

    def test_warmup_equivalence(self):
        """LRU outcomes depend only on the access history, so the kernel's
        full-trace flags past the prefix are a warmed-up ``simulate``'s."""
        g = kway_geometry(SMALL, 2)
        trace = random_trace(g, n=2000, seed=17)
        blocks = trace.blocks(g.offset_bits).astype(np.int64)
        indices = ModuloIndexing(g).indices_of(trace.addresses)
        miss = lru_miss_flags(blocks, indices, 2)[300:]
        slow = simulate(SetAssociativeCache(g, policy="lru"), trace, warmup=300)
        assert (miss.size, int(miss.sum())) == (slow.accesses, slow.misses)
        _, slot_misses = per_set_counts(indices[300:], miss, g.num_sets)
        np.testing.assert_array_equal(slot_misses, slow.slot_misses)

    def test_explicit_ways_override(self):
        """``ways`` overrides the geometry (the engine's bounds cells do this)."""
        trace = random_trace(SMALL, n=2000, seed=21)
        g2 = kway_geometry(SMALL, 2)
        overridden = simulate_set_associative(ModuloIndexing(g2), trace, g2, ways=2)
        slow = simulate(SetAssociativeCache(g2, policy="lru"), trace)
        assert overridden.misses == slow.misses

    def test_non_lru_policy_routes_to_policy_kernels(self):
        # Non-LRU policies no longer raise: they route through the
        # fastpolicy dispatcher and must agree with the sequential engine
        # (the full contract lives in test_fastpolicy_differential.py).
        trace = random_trace(SMALL, n=2000, seed=13)
        fast = simulate_set_associative(
            ModuloIndexing(SMALL), trace, SMALL, policy="fifo"
        )
        slow = simulate(SetAssociativeCache(SMALL, policy="fifo"), trace)
        assert (fast.accesses, fast.hits, fast.misses) == (
            slow.accesses,
            slow.hits,
            slow.misses,
        )
        np.testing.assert_array_equal(fast.slot_misses, slow.slot_misses)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown replacement policy"):
            simulate_set_associative(
                ModuloIndexing(SMALL), random_trace(SMALL, n=10), SMALL, policy="belady"
            )

    def test_ways_one_matches_direct_mapped_cache(self):
        trace = random_trace(SMALL, n=2500, seed=31)
        fast = simulate_set_associative(ModuloIndexing(SMALL), trace, SMALL)
        slow = simulate(DirectMappedCache(SMALL), trace)
        assert (fast.hits, fast.misses) == (slow.hits, slow.misses)
        np.testing.assert_array_equal(fast.slot_misses, slow.slot_misses)


class TestFullyAssociativeVsSequentialEngine:
    @pytest.mark.parametrize("base", [TINY, SMALL], ids=["tiny", "small"])
    def test_traces_agree(self, base):
        fa_geometry = CacheGeometry(
            base.capacity_bytes, base.line_bytes, 1, base.address_bits
        )
        for trace in trace_zoo(base):
            fast = simulate_fully_associative(trace, fa_geometry)
            slow = simulate(FullyAssociativeCache(fa_geometry), trace)
            ctx = f"fa/{trace.name}"
            assert fast.accesses == slow.accesses, ctx
            assert fast.hits == slow.hits, ctx
            assert fast.misses == slow.misses, ctx
            assert fast.lookup_cycles == slow.lookup_cycles, ctx

    def test_explicit_line_count(self):
        trace = random_trace(SMALL, n=1500, seed=41)
        by_lines = simulate_fully_associative(trace, SMALL, lines=SMALL.num_lines)
        by_geometry = simulate_fully_associative(trace, SMALL)
        assert by_lines.misses == by_geometry.misses


# -- engine-dispatching consumers: auto ≡ sequential ------------------------------


class TestClassifierEngines:
    def test_direct_mapped_auto_equals_sequential(self):
        trace = random_trace(SMALL, n=3000, seed=51)
        for scheme in (ModuloIndexing(SMALL), XorIndexing(SMALL)):
            auto = classify(DirectMappedCache(SMALL, scheme), trace)
            seq = classify(DirectMappedCache(SMALL, scheme), trace, engine="sequential")
            assert auto.as_dict() == seq.as_dict(), scheme.name

    @pytest.mark.parametrize("ways", [2, 4])
    def test_set_associative_auto_equals_sequential(self, ways):
        g = kway_geometry(SMALL, ways)
        trace = random_trace(g, n=3000, seed=53)
        auto = classify(SetAssociativeCache(g, policy="lru"), trace)
        seq = classify(SetAssociativeCache(g, policy="lru"), trace, engine="sequential")
        assert auto.as_dict() == seq.as_dict()

    def test_stateful_model_falls_back_to_sequential(self):
        """A skewed cache has no kernel and falls back, a victim cache takes
        the aux replay; both engines must still agree."""
        trace = random_trace(SMALL, n=1500, seed=57)
        for build in (
            lambda: SkewedAssociativeCache(SMALL, ways=2),
            lambda: VictimCache(SMALL, victim_lines=4),
        ):
            auto = classify(build(), trace)
            seq = classify(build(), trace, engine="sequential")
            assert auto.as_dict() == seq.as_dict()

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            classify(
                DirectMappedCache(SMALL), random_trace(SMALL, n=10), engine="turbo"
            )


def multithread_trace(geometry: CacheGeometry, n_threads: int, n: int, seed: int) -> Trace:
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, 1 << 16, size=n, dtype=np.uint64)
    threads = rng.integers(0, n_threads, size=n).astype(np.int16)
    return Trace(addrs, thread=threads, name="mt")


class TestMultithreadEngines:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_smt_auto_equals_sequential(self, seed):
        g = SMALL
        trace = multithread_trace(g, 4, 4000, seed)
        schemes = [
            ModuloIndexing(g),
            OddMultiplierIndexing(g, 9),
            XorIndexing(g),
            OddMultiplierIndexing(g, 31),
        ]
        fast_cache = SMTSharedCache(g, ThreadSchemeTable(schemes))
        slow_cache = SMTSharedCache(g, ThreadSchemeTable(schemes))
        fast = simulate_smt(fast_cache, trace)
        slow = simulate_smt(slow_cache, trace, engine="sequential")
        assert fast.accesses == slow.accesses
        assert fast.misses == slow.misses
        assert fast.cross_evictions == slow.cross_evictions
        np.testing.assert_array_equal(fast.thread_hits, slow.thread_hits)
        np.testing.assert_array_equal(fast.thread_misses, slow.thread_misses)
        np.testing.assert_array_equal(fast.slot_accesses, slow.slot_accesses)
        np.testing.assert_array_equal(fast.slot_misses, slow.slot_misses)
        # The fast path must also leave the cache object in the same state.
        np.testing.assert_array_equal(fast_cache._blocks, slow_cache._blocks)
        np.testing.assert_array_equal(fast_cache._owner, slow_cache._owner)
        assert fast_cache.stats.extra == slow_cache.stats.extra

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_partitioned_auto_equals_sequential(self, seed):
        g = SMALL
        trace = multithread_trace(g, 2, 4000, seed)
        fast_cache = StaticPartitionedCache(g, 2)
        slow_cache = StaticPartitionedCache(g, 2)
        fast = simulate_partitioned(fast_cache, trace)
        slow = simulate_partitioned(slow_cache, trace, engine="sequential")
        assert (fast.accesses, fast.hits, fast.misses) == (
            slow.accesses,
            slow.hits,
            slow.misses,
        )
        assert fast.direct_hits == slow.direct_hits
        assert fast.lookup_cycles == slow.lookup_cycles
        np.testing.assert_array_equal(fast.thread_misses, slow.thread_misses)
        np.testing.assert_array_equal(fast_cache._blocks, slow_cache._blocks)
        assert fast_cache.stats.extra == slow_cache.stats.extra

    def test_empty_multithread_trace(self):
        g = SMALL
        empty = Trace(np.empty(0, dtype=np.uint64), name="empty")
        res = simulate_smt(SMTSharedCache(g, ThreadSchemeTable([ModuloIndexing(g)])), empty)
        assert res.accesses == 0 and res.cross_evictions == 0
        part = simulate_partitioned(StaticPartitionedCache(g, 1), empty)
        assert part.accesses == 0 and part.lookup_cycles == 0

    def test_rejects_unknown_engine(self):
        g = SMALL
        trace = multithread_trace(g, 1, 10, 0)
        with pytest.raises(ValueError):
            simulate_smt(
                SMTSharedCache(g, ThreadSchemeTable([ModuloIndexing(g)])),
                trace,
                engine="turbo",
            )
        with pytest.raises(ValueError):
            simulate_partitioned(StaticPartitionedCache(g, 1), trace, engine="turbo")
