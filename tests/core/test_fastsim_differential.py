"""Differential tests: the vectorised fast path ≡ the sequential engine.

This file is the equivalence contract between :mod:`repro.core.fastsim` /
:func:`repro.core.simulator.simulate_indexing` and the sequential reference
engine (:func:`repro.core.simulator.simulate` driving
:class:`~repro.core.caches.DirectMappedCache`).  It pins the contract with

* an *independent* dict-based re-implementation of direct-mapped behaviour
  (not the package's own sequential engine, so a shared bug can't hide);
* seeded randomized traces plus adversarial shapes — all-one-set,
  alternating conflict pairs, empty, single-access, and >2^32 addresses;
* several geometries and **every** registered indexing scheme (trainables
  are fitted deterministically before comparison).

Any new fast path added to the package must ship with an equivalence test
of this form (see DESIGN.md, "Differential-testing contract").
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.address import PAPER_L1_GEOMETRY, CacheGeometry
from repro.core.caches import DirectMappedCache
from repro.core.fastsim import (
    direct_mapped_miss_count,
    direct_mapped_miss_flags,
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
    available_schemes,
)
from repro.core.simulator import simulate, simulate_indexing
from repro.trace import Trace

TINY = CacheGeometry(capacity_bytes=128, line_bytes=16, ways=1, address_bits=16)
SMALL = CacheGeometry(capacity_bytes=1024, line_bytes=16, ways=1)
PAPER = PAPER_L1_GEOMETRY
#: 48-bit address space: addresses far beyond 2^32 must still agree.
WIDE = CacheGeometry(capacity_bytes=1024, line_bytes=16, ways=1, address_bits=48)

GEOMETRIES = [TINY, SMALL, PAPER]


# -- independent reference model --------------------------------------------------


def reference_miss_flags(blocks: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Dict-based direct-mapped model, written independently of fastsim."""
    resident: dict[int, int] = {}
    flags = np.empty(len(blocks), dtype=bool)
    for i, (b, s) in enumerate(zip(blocks.tolist(), indices.tolist())):
        flags[i] = resident.get(s) != b
        resident[s] = b
    return flags


# -- trace zoo --------------------------------------------------------------------


def random_trace(geometry: CacheGeometry, n: int = 4000, seed: int = 7) -> Trace:
    rng = np.random.default_rng(seed)
    hi = 1 << geometry.address_bits
    addrs = rng.integers(0, hi, size=n, dtype=np.uint64)
    return Trace(addrs, name="random")


def all_one_set_trace(geometry: CacheGeometry, n: int = 512) -> Trace:
    """Every access a fresh block of the same modulo set (100% conflicts)."""
    stride = np.uint64(geometry.num_sets * geometry.line_bytes)
    base = np.uint64(3 * geometry.line_bytes)
    idx = np.arange(n, dtype=np.uint64)
    addrs = (base + idx * stride) % np.uint64(1 << geometry.address_bits)
    return Trace(addrs, name="one_set")


def ping_pong_pair_trace(geometry: CacheGeometry, n: int = 600) -> Trace:
    """A, B, A, B, ... with A and B conflicting in the same modulo set."""
    a = np.uint64(5 * geometry.line_bytes)
    b = np.uint64(
        (5 * geometry.line_bytes + geometry.num_sets * geometry.line_bytes)
        % (1 << geometry.address_bits)
    )
    addrs = np.where(np.arange(n) % 2 == 0, a, b).astype(np.uint64)
    return Trace(addrs, name="ping_pong")


def empty_trace() -> Trace:
    return Trace(np.empty(0, dtype=np.uint64), name="empty")


def single_access_trace(geometry: CacheGeometry) -> Trace:
    return Trace(np.array([7 * geometry.line_bytes], dtype=np.uint64), name="single")


def huge_address_trace(n: int = 3000, seed: int = 23) -> Trace:
    """Addresses strictly above 2^32 (plus a band straddling the boundary)."""
    rng = np.random.default_rng(seed)
    above = rng.integers(1 << 32, 1 << 48, size=n // 2, dtype=np.uint64)
    straddle = (np.uint64(1 << 32) - np.uint64(1024)) + rng.integers(
        0, 2048, size=n - n // 2, dtype=np.uint64
    )
    addrs = np.concatenate([above, straddle])
    rng.shuffle(addrs)
    return Trace(addrs, name="huge")


def trace_zoo(geometry: CacheGeometry) -> list[Trace]:
    return [
        random_trace(geometry),
        all_one_set_trace(geometry),
        ping_pong_pair_trace(geometry),
        empty_trace(),
        single_access_trace(geometry),
    ]


# -- scheme lineups ---------------------------------------------------------------


def scheme_lineup(geometry: CacheGeometry, fit_trace: Trace) -> list:
    """One instance of every registered scheme, trainables fitted."""
    fit_addrs = fit_trace.addresses
    bit_positions = tuple(
        range(geometry.offset_bits, geometry.offset_bits + geometry.index_bits)
    )[::-1]
    return [
        ModuloIndexing(geometry),
        XorIndexing(geometry),
        OddMultiplierIndexing(geometry, 9),
        OddMultiplierIndexing(geometry, 31),
        PrimeModuloIndexing(geometry),
        BitSelectIndexing(geometry, bit_positions),
        GivargisIndexing(geometry).fit(fit_addrs),
        # Reads offset bits: both engines must index the offset-zeroed address.
        GivargisIndexing(geometry, include_offset_bits=True).fit(fit_addrs),
        GivargisXorIndexing(geometry).fit(fit_addrs),
        PatelIndexing(geometry, max_swap_moves=4).fit(fit_addrs),
    ]


def test_lineup_covers_every_registered_scheme():
    fit = random_trace(TINY, n=400)
    names = {s.name for s in scheme_lineup(TINY, fit)}
    assert set(available_schemes()) <= names


# -- fastsim primitives vs the independent reference ------------------------------


class TestFastsimVsReference:
    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=["tiny", "small", "paper"])
    def test_all_schemes_all_traces(self, geometry):
        fit = random_trace(geometry, n=2000, seed=99)
        for scheme in scheme_lineup(geometry, fit):
            for trace in trace_zoo(geometry):
                blocks = trace.blocks(geometry.offset_bits).astype(np.int64)
                indices = scheme.indices_of(trace.addresses)
                flags = direct_mapped_miss_flags(blocks, indices)
                ref = reference_miss_flags(blocks, indices)
                np.testing.assert_array_equal(
                    flags, ref, err_msg=f"{scheme.name} / {trace.name}"
                )
                assert direct_mapped_miss_count(blocks, indices) == int(ref.sum())
                acc, mis = per_set_counts(indices, flags, geometry.num_sets)
                ref_acc = np.bincount(indices, minlength=geometry.num_sets)
                ref_mis = np.bincount(indices[ref], minlength=geometry.num_sets)
                np.testing.assert_array_equal(acc, ref_acc)
                np.testing.assert_array_equal(mis, ref_mis)
                assert int(acc.sum()) == len(trace)

    def test_empty_trace_all_zero(self):
        blocks = np.empty(0, dtype=np.int64)
        flags = direct_mapped_miss_flags(blocks, blocks)
        assert flags.size == 0
        acc, mis = per_set_counts(blocks, flags, 16)
        assert int(acc.sum()) == 0 and int(mis.sum()) == 0

    def test_single_access_is_cold_miss(self):
        flags = direct_mapped_miss_flags(np.array([42]), np.array([3]))
        assert flags.tolist() == [True]

    def test_all_one_set_every_access_misses(self):
        trace = all_one_set_trace(SMALL)
        scheme = ModuloIndexing(SMALL)
        sim = simulate_indexing(scheme, trace, SMALL)
        assert sim.misses == len(trace)
        assert int(sim.slot_accesses[3]) == len(trace)  # base block lands in set 3

    def test_ping_pong_pair_always_misses(self):
        trace = ping_pong_pair_trace(SMALL)
        sim = simulate_indexing(ModuloIndexing(SMALL), trace, SMALL)
        assert sim.misses == len(trace)


# -- vectorised engine vs the package's sequential engine -------------------------


class TestVectorisedVsSequentialEngine:
    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=["tiny", "small", "paper"])
    def test_simulation_results_agree_exactly(self, geometry):
        fit = random_trace(geometry, n=2000, seed=99)
        for scheme in scheme_lineup(geometry, fit):
            for trace in trace_zoo(geometry):
                fast = simulate_indexing(scheme, trace, geometry)
                slow = simulate(DirectMappedCache(geometry, scheme), trace)
                ctx = f"{scheme.name} / {trace.name}"
                assert fast.accesses == slow.accesses, ctx
                assert fast.hits == slow.hits, ctx
                assert fast.misses == slow.misses, ctx
                np.testing.assert_array_equal(
                    fast.slot_accesses, slow.slot_accesses, err_msg=ctx
                )
                np.testing.assert_array_equal(
                    fast.slot_misses, slow.slot_misses, err_msg=ctx
                )
                np.testing.assert_array_equal(
                    fast.slot_hits, slow.slot_hits, err_msg=ctx
                )

    def test_huge_addresses_agree(self):
        """Addresses above 2^32 exercise the full uint64 path end to end."""
        trace = huge_address_trace()
        fit = random_trace(WIDE, n=1500, seed=5)
        for scheme in scheme_lineup(WIDE, fit):
            blocks = trace.blocks(WIDE.offset_bits).astype(np.int64)
            indices = scheme.indices_of(trace.addresses)
            assert indices.min() >= 0 and indices.max() < WIDE.num_sets, scheme.name
            np.testing.assert_array_equal(
                direct_mapped_miss_flags(blocks, indices),
                reference_miss_flags(blocks, indices),
                err_msg=scheme.name,
            )
            fast = simulate_indexing(scheme, trace, WIDE)
            slow = simulate(DirectMappedCache(WIDE, scheme), trace)
            assert fast.misses == slow.misses, scheme.name
            np.testing.assert_array_equal(fast.slot_misses, slow.slot_misses)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_randomized_seeds_paper_geometry(self, seed):
        trace = random_trace(PAPER, n=6000, seed=seed)
        for scheme in (
            ModuloIndexing(PAPER),
            XorIndexing(PAPER),
            PrimeModuloIndexing(PAPER),
            OddMultiplierIndexing(PAPER, 21),
        ):
            fast = simulate_indexing(scheme, trace, PAPER)
            slow = simulate(DirectMappedCache(PAPER, scheme), trace)
            assert (fast.accesses, fast.hits, fast.misses) == (
                slow.accesses,
                slow.hits,
                slow.misses,
            ), f"seed={seed} scheme={scheme.name}"
            np.testing.assert_array_equal(fast.slot_misses, slow.slot_misses)
