"""Engine speedup floors: each exact fast kernel against the sequential
engine on a long trace.

Each test times its kernel over one million accesses (200k for the
extension models' kernels) and the sequential engine over a 25k-access
slice (best of 3 each) in the same process, and asserts the per-access
speedup: k-way LRU ≥ 10×, column-associative and B-cache ≥ 5×, partner
≥ 3×; skewed ≥ 5×, dynamic indexing ≥ 10×, Belady ≥ 3×, the partitioned
adaptive replay ≥ 2×.  Running the sequential engine over the full trace
would take minutes, which is the point.  One more floor holds Patel's
incremental greedy search ≥ 2.5× over the fresh-sort greedy it replaced.
Bit-identity of every kernel is locked by the differential harness,
``tests/core/test_differential.py``.
"""

from __future__ import annotations

import numpy as np
from bench_timing import best_of

from repro.core.address import CacheGeometry, PAPER_L1_GEOMETRY
from repro.core.caches import (
    BalancedCache,
    BeladyCache,
    ColumnAssociativeCache,
    PartnerIndexCache,
    SetAssociativeCache,
    SkewedAssociativeCache,
)
from repro.core.dynamic import DynamicIndexCache
from repro.core.fastassoc import (
    simulate_bcache,
    simulate_column_associative,
    simulate_partner,
)
from repro.core.fastext import simulate_belady, simulate_dynamic, simulate_skewed
from repro.core.indexing import (
    ModuloIndexing,
    OddMultiplierIndexing,
    PrimeModuloIndexing,
    XorIndexing,
)
from repro.core.indexing.bit_select import candidate_bit_positions
from repro.core.indexing.patel import _cost, greedy_positions
from repro.core.simulator import simulate, simulate_set_associative
from repro.multithread import PartitionedAdaptiveCache, simulate_partitioned
from repro.trace import Trace, zipf_trace

G = PAPER_L1_GEOMETRY
G4 = CacheGeometry(G.capacity_bytes, G.line_bytes, 4, G.address_bits)
TRACE_1M = zipf_trace(1_000_000, seed=17)
#: The extension models' kernels run over this prefix.
TRACE_200K = TRACE_1M[:200_000]
#: The sequential engine's slice; its per-access cost is extrapolated.
SEQUENTIAL_REFS = 25_000


def _assert_speedup(
    label: str, fast_s: float, make_cache, floor: float, fast_refs: int = len(TRACE_1M)
) -> None:
    """Per-access speedup of a ``fast_refs``-access fast run over the
    sequential engine, timed on a ``SEQUENTIAL_REFS`` slice;
    ``make_cache(short)`` builds the cache for that slice."""
    short = TRACE_1M[:SEQUENTIAL_REFS]
    sequential_s, slow = best_of(lambda: simulate(make_cache(short), short), warmup=0)
    assert slow.accesses == len(short)
    speedup = (sequential_s / len(short)) / (fast_s / fast_refs)
    assert speedup >= floor, (
        f"{label} fast path only {speedup:.1f}x over sequential (floor {floor}x)"
    )


def test_kway_stack_distance_kernel_1m():
    """A 4-way LRU run over one million accesses (≥ 10×).

    Times the offline stack-distance kernel end to end: index mapping,
    reuse distances, per-set histograms.
    """
    scheme = ModuloIndexing(G4)
    fast_s, result = best_of(lambda: simulate_set_associative(scheme, TRACE_1M, G4))
    assert result.accesses == len(TRACE_1M)
    assert result.model == "set_associative[modulo,4way]"
    _assert_speedup("k-way", fast_s, lambda t: SetAssociativeCache(G4, policy="lru"), 10.0)


def test_colassoc_fast_engine_1m():
    """Pair-decomposed column-associative run (≥ 5×)."""
    fast_s, result = best_of(
        lambda: simulate_column_associative(ColumnAssociativeCache(G), TRACE_1M)
    )
    assert result.accesses == len(TRACE_1M)
    assert result.hits == result.extra.get("first_probe_hits", 0) + result.extra.get(
        "rehash_hits", 0
    )
    _assert_speedup("colassoc", fast_s, lambda t: ColumnAssociativeCache(G), 5.0)


def test_bcache_fast_engine_1m():
    """Cluster-decomposed B-cache run (≥ 5×)."""
    fast_s, result = best_of(lambda: simulate_bcache(BalancedCache(G), TRACE_1M))
    assert result.accesses == len(TRACE_1M)
    assert result.lookup_cycles == len(TRACE_1M)  # single-cycle decode
    _assert_speedup("bcache", fast_s, lambda t: BalancedCache(G), 5.0)


def test_partner_fast_engine_1m():
    """Windowed partner-cache run (≥ 3×; ten runs on a 2-vCPU x86-64 host
    measured 5.2–8.6×)."""
    fast_s, result = best_of(lambda: simulate_partner(PartnerIndexCache(G), TRACE_1M))
    assert result.accesses == len(TRACE_1M)
    _assert_speedup("partner", fast_s, lambda t: PartnerIndexCache(G), 3.0)


def _belady(trace: Trace) -> BeladyCache:
    return BeladyCache(G, trace.blocks(G.offset_bits).astype(np.int64))


def _dynamic(trace: Trace | None = None) -> DynamicIndexCache:
    return DynamicIndexCache(
        G, [XorIndexing(G), OddMultiplierIndexing(G, 9), PrimeModuloIndexing(G)]
    )


def test_belady_kernel_200k():
    """Heap-driven MIN (≥ 3×; 5.8× measured on a 2-vCPU x86-64 host)."""
    fast_s, result = best_of(lambda: simulate_belady(_belady(TRACE_200K), TRACE_200K))
    assert result.accesses == len(TRACE_200K)
    _assert_speedup("belady", fast_s, _belady, 3.0, len(TRACE_200K))


def test_skewed_kernel_200k():
    """Flat-list skewed replay (≥ 5×; 12.5× measured)."""
    fast_s, result = best_of(
        lambda: simulate_skewed(SkewedAssociativeCache(G), TRACE_200K)
    )
    assert result.accesses == len(TRACE_200K)
    _assert_speedup("skewed", fast_s, lambda t: SkewedAssociativeCache(G), 5.0, len(TRACE_200K))


def test_dynamic_kernel_200k():
    """Windowed direct-mapped dynamic-indexing replay (≥ 10×; 67× measured)."""
    fast_s, result = best_of(lambda: simulate_dynamic(_dynamic(), TRACE_200K))
    assert result.accesses == len(TRACE_200K)
    _assert_speedup("dynamic", fast_s, _dynamic, 10.0, len(TRACE_200K))


def test_partitioned_adaptive_kernel_200k():
    """Hoisted partitioned adaptive replay over two threads (≥ 2×; 4.5×
    measured)."""

    def run(refs: int, engine: str):
        trace = Trace(TRACE_1M.addresses[:refs], name="two-threads",
                      thread=np.arange(refs) % 2)
        return lambda: simulate_partitioned(PartitionedAdaptiveCache(G, 2), trace, engine)

    fast_s, result = best_of(run(len(TRACE_200K), "auto"))
    assert result.path == "fast:partitioned-adaptive"
    sequential_s, slow = best_of(run(SEQUENTIAL_REFS, "sequential"), warmup=0)
    assert slow.path == "sequential:forced"
    speedup = (sequential_s / SEQUENTIAL_REFS) / (fast_s / len(TRACE_200K))
    assert speedup >= 2.0, f"partitioned adaptive only {speedup:.1f}x (floor 2x)"


def test_patel_greedy_120k():
    """Patel's incremental greedy search picks the fresh-sort greedy's bits,
    ≥ 2.5× faster (5.8× measured) over 120k accesses."""
    blocks = TRACE_1M[:120_000].blocks(G.offset_bits)
    candidates = tuple(p - G.offset_bits for p in candidate_bit_positions(G))

    def fresh_sort_greedy():
        selected, remaining = [], list(candidates)
        for _ in range(G.index_bits):
            costs = [_cost(blocks, (*selected, bit)) for bit in remaining]
            selected.append(remaining.pop(costs.index(min(costs))))
        return selected

    fast_s, (bits, _) = best_of(lambda: greedy_positions(blocks, candidates, G.index_bits))
    sequential_s, reference = best_of(fresh_sort_greedy, rounds=1, warmup=0)
    assert bits == reference
    speedup = sequential_s / fast_s
    assert speedup >= 2.5, f"incremental greedy only {speedup:.1f}x (floor 2.5x)"
