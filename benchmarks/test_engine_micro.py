"""Engine speedup floors: each exact fast kernel against the sequential
engine on a million-access trace.

Each test times its kernel over one million accesses and the sequential
engine over a 25k-access slice (best of 3 each) in the same process, and
asserts the per-access speedup: k-way LRU ≥ 10×, column-associative and
B-cache ≥ 5×, partner ≥ 3×.  Running the sequential engine over the full
million accesses would take minutes, which is the point.  Bit-identity of
every kernel is locked by the differential harness,
``tests/core/test_differential.py``.
"""

from __future__ import annotations

from bench_timing import best_of

from repro.core.address import CacheGeometry, PAPER_L1_GEOMETRY
from repro.core.caches import (
    BalancedCache,
    ColumnAssociativeCache,
    PartnerIndexCache,
    SetAssociativeCache,
)
from repro.core.fastassoc import (
    simulate_bcache,
    simulate_column_associative,
    simulate_partner,
)
from repro.core.indexing import ModuloIndexing
from repro.core.simulator import simulate, simulate_set_associative
from repro.trace import zipf_trace

G = PAPER_L1_GEOMETRY
G4 = CacheGeometry(G.capacity_bytes, G.line_bytes, 4, G.address_bits)
TRACE_1M = zipf_trace(1_000_000, seed=17)
#: The sequential engine's slice; its per-access cost is extrapolated.
SEQUENTIAL_REFS = 25_000


def _assert_speedup(label: str, fast_s: float, make_cache, floor: float) -> None:
    """Per-access speedup of a 1M-access fast run over the sequential
    engine, timed on a ``SEQUENTIAL_REFS`` slice."""
    short = TRACE_1M[:SEQUENTIAL_REFS]
    sequential_s, slow = best_of(lambda: simulate(make_cache(), short), warmup=0)
    assert slow.accesses == len(short)
    speedup = (sequential_s / len(short)) / (fast_s / len(TRACE_1M))
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
    _assert_speedup("k-way", fast_s, lambda: SetAssociativeCache(G4, policy="lru"), 10.0)


def test_colassoc_fast_engine_1m():
    """Pair-decomposed column-associative run (≥ 5×)."""
    fast_s, result = best_of(
        lambda: simulate_column_associative(ColumnAssociativeCache(G), TRACE_1M)
    )
    assert result.accesses == len(TRACE_1M)
    assert result.hits == result.extra.get("first_probe_hits", 0) + result.extra.get(
        "rehash_hits", 0
    )
    _assert_speedup("colassoc", fast_s, lambda: ColumnAssociativeCache(G), 5.0)


def test_bcache_fast_engine_1m():
    """Cluster-decomposed B-cache run (≥ 5×)."""
    fast_s, result = best_of(lambda: simulate_bcache(BalancedCache(G), TRACE_1M))
    assert result.accesses == len(TRACE_1M)
    assert result.lookup_cycles == len(TRACE_1M)  # single-cycle decode
    _assert_speedup("bcache", fast_s, lambda: BalancedCache(G), 5.0)


def test_partner_fast_engine_1m():
    """Windowed partner-cache run (≥ 3×; ten runs on a 2-vCPU x86-64 host
    measured 5.2–8.6×)."""
    fast_s, result = best_of(lambda: simulate_partner(PartnerIndexCache(G), TRACE_1M))
    assert result.accesses == len(TRACE_1M)
    _assert_speedup("partner", fast_s, lambda: PartnerIndexCache(G), 3.0)
