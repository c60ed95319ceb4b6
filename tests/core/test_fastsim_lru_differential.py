"""LRU set-associative, fully associative, classifier and multithread paths:
the differential harness's stats-level rows under the fastsim-LRU suite's
test names, and the checks of these paths that are not row comparisons.

The rows, the trace zoo and the independent LRU model live in
``test_differential.py``; each test here takes its rows with
``rows``/``groups``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.caches import DirectMappedCache, SetAssociativeCache
from repro.core.decompose import decode
from repro.core.fastsim import (
    direct_mapped_miss_flags,
    lru_miss_flags,
    lru_stack_distances,
    per_set_counts,
)
from repro.core.indexing import ModuloIndexing
from repro.core.selector import ThreadSchemeTable
from repro.core.simulator import simulate, simulate_fully_associative, simulate_set_associative
from repro.core.three_c import classify
from repro.multithread import (
    SMTSharedCache,
    StaticPartitionedCache,
    simulate_partitioned,
    simulate_smt,
)
from repro.trace import Trace
from test_differential import (
    FLAG_WAYS,
    GEOMETRIES,
    SMALL,
    groups,
    reference_lru_miss_flags,
    rows,
    run_rows,
    zoo,
)

CLASSIFY_DIRECT = rows("classify", "direct-mapped")
CLASSIFY_STATEFUL = rows("classify", "skewed") + rows("classify", "victim")


def modulo_arrays(trace: str = "hot"):
    return decode(ModuloIndexing(SMALL), zoo(SMALL, trace), SMALL)


class TestKernelVsReference:
    @groups("lru_miss_flags", {f"{g}-{w}": f"{g}/{w}" for g in GEOMETRIES for w in FLAG_WAYS})
    def test_all_schemes_all_traces(self, rows):
        run_rows(rows)

    @groups(
        "lru_miss_flags",
        {f"{w}-{n}": f"sets{n}/{w}" for n in (1, 3, 5, 12, 37) for w in (1, 2, 3, 4, 8)},
    )
    def test_non_power_of_two_set_counts(self, rows):
        run_rows(rows)

    def test_ways_one_is_exactly_direct_mapped(self):
        blocks, indices = modulo_arrays("random")
        np.testing.assert_array_equal(
            lru_miss_flags(blocks, indices, 1), direct_mapped_miss_flags(blocks, indices)
        )

    def test_stack_distances_are_mattson_consistent(self):
        """distance < k ⇔ hit at associativity k: one pass, every k."""
        blocks, indices = modulo_arrays()
        dist = lru_stack_distances(blocks, indices)
        for ways in (1, 2, 3, 4, 8, 16):
            miss = (dist < 0) | (dist >= ways)
            np.testing.assert_array_equal(miss, reference_lru_miss_flags(blocks, indices, ways))

    def test_rejects_bad_ways(self):
        with pytest.raises(ValueError):
            lru_miss_flags(np.array([1]), np.array([0]), 0)


class TestSetAssociativeVsSequentialEngine:
    @groups(
        "simulate_set_associative",
        {f"{g}-{w}": f"{g}/{w}" for g in GEOMETRIES for w in (1, 2, 4, 8)},
    )
    def test_all_schemes_all_traces(self, rows):
        run_rows(rows)

    @groups("simulate_set_associative", {str(s): f"paper/seed{s}" for s in range(3)})
    def test_randomized_seeds_paper_capacity(self, rows):
        run_rows(rows)

    def test_warmup_equivalence(self):
        """LRU outcomes depend only on the access history, so the kernel's
        full-trace flags past the prefix are a warmed-up ``simulate``'s."""
        g = SMALL.with_ways(2)
        trace = zoo(g, "hot")
        blocks, indices = decode(ModuloIndexing(g), trace, g)
        miss = lru_miss_flags(blocks, indices, 2)[300:]
        slow = simulate(SetAssociativeCache(g, policy="lru"), trace, warmup=300)
        assert (miss.size, int(miss.sum())) == (slow.accesses, slow.misses)
        _, slot_misses = per_set_counts(indices[300:], miss, g.num_sets)
        np.testing.assert_array_equal(slot_misses, slow.slot_misses)

    def test_explicit_ways_override(self):
        """``ways`` overrides the geometry (the engine's bounds cells do this)."""
        g2 = SMALL.with_ways(2)
        overridden = simulate_set_associative(ModuloIndexing(g2), zoo(g2, "hot"), g2, ways=2)
        assert overridden.misses == simulate(SetAssociativeCache(g2), zoo(g2, "hot")).misses

    def test_non_lru_policy_routes_to_policy_kernels(self):
        trace = zoo(SMALL, "hot")
        fast = simulate_set_associative(ModuloIndexing(SMALL), trace, SMALL, policy="fifo")
        slow = simulate(SetAssociativeCache(SMALL, policy="fifo"), trace)
        assert (fast.accesses, fast.hits, fast.misses) == (slow.accesses, slow.hits, slow.misses)
        np.testing.assert_array_equal(fast.slot_misses, slow.slot_misses)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown replacement policy"):
            simulate_set_associative(
                ModuloIndexing(SMALL), zoo(SMALL, "single"), SMALL, policy="belady"
            )

    def test_ways_one_matches_direct_mapped_cache(self):
        trace = zoo(SMALL, "hot")
        fast = simulate_set_associative(ModuloIndexing(SMALL), trace, SMALL)
        slow = simulate(DirectMappedCache(SMALL), trace)
        assert (fast.hits, fast.misses) == (slow.hits, slow.misses)
        np.testing.assert_array_equal(fast.slot_misses, slow.slot_misses)


class TestFullyAssociativeVsSequentialEngine:
    @groups("simulate_fully_associative", {g: g for g in GEOMETRIES})
    def test_traces_agree(self, rows):
        run_rows(rows)

    def test_explicit_line_count(self):
        trace = zoo(SMALL, "hot")
        by_lines = simulate_fully_associative(trace, SMALL, lines=SMALL.num_lines)
        assert by_lines.misses == simulate_fully_associative(trace, SMALL).misses


class TestClassifierEngines:
    def test_direct_mapped_auto_equals_sequential(self):
        run_rows(CLASSIFY_DIRECT)

    @groups("classify", {str(w): f"{w}way-lru" for w in (2, 4)})
    def test_set_associative_auto_equals_sequential(self, rows):
        run_rows(rows)

    def test_stateful_model_falls_back_to_sequential(self):
        run_rows(CLASSIFY_STATEFUL)

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            classify(DirectMappedCache(SMALL), zoo(SMALL, "single"), engine="turbo")


class TestMultithreadEngines:
    @groups("simulate_smt", {str(s): f"seed{s}" for s in range(3)})
    def test_smt_auto_equals_sequential(self, rows):
        run_rows(rows)

    @groups("simulate_partitioned", {str(s): f"seed{s}" for s in range(3)})
    def test_partitioned_auto_equals_sequential(self, rows):
        run_rows(rows)

    def test_empty_multithread_trace(self):
        empty = Trace(np.empty(0, dtype=np.uint64), name="empty")
        res = simulate_smt(SMTSharedCache(SMALL, ThreadSchemeTable([ModuloIndexing(SMALL)])), empty)
        assert res.accesses == 0 and res.cross_evictions == 0
        part = simulate_partitioned(StaticPartitionedCache(SMALL, 1), empty)
        assert part.accesses == 0 and part.lookup_cycles == 0

    def test_rejects_unknown_engine(self):
        trace = zoo(SMALL, "single")
        with pytest.raises(ValueError):
            simulate_smt(
                SMTSharedCache(SMALL, ThreadSchemeTable([ModuloIndexing(SMALL)])),
                trace,
                engine="turbo",
            )
        with pytest.raises(ValueError):
            simulate_partitioned(StaticPartitionedCache(SMALL, 1), trace, engine="turbo")
