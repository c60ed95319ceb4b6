"""Aux fast-path canaries: miss-event replay vs the sequential wrapper.

Regression gates for the aux-subsystem PR (CI replays this file against
the committed ``BENCH_*.json`` baseline):

* the replay: :func:`~repro.core.aux.simulate_aux` under ``engine="auto"``
  — one vectorised direct-mapped pass plus a pure-Python replay of only
  the miss events through the real structure objects — must stay well
  ahead of the sequential reference (driving the composed
  :class:`~repro.core.aux.AugmentedCache` one access at a time) on a
  million-access trace.  Gated for the 4-entry victim cache, the PR's
  contractual configuration, with the floor asserted *inside* the bench
  so the claim travels with the number;
* the sweep: :func:`~repro.core.aux.simulate_aux_sweep` over the ext-aux
  composition ladder must beat per-spec sequential simulation (it shares
  the decode and the miss/prev pass across every spec).

Bit-identity of everything measured here is locked by
``tests/core/test_aux_differential.py``.
"""

from __future__ import annotations

import time

from repro.core.address import PAPER_L1_GEOMETRY
from repro.core.aux import simulate_aux, simulate_aux_sweep
from repro.core.indexing import ModuloIndexing
from repro.trace import zipf_trace

G = PAPER_L1_GEOMETRY
TRACE_1M = zipf_trace(1_000_000, seed=23)

#: The ext-aux composition ladder (sans depth variants — one per combo).
AUX_LADDER = [("vc", 4), ("mc", 4), ("sb", 4), ("vc+sb", 4), ("mc+sb", 4)]


def test_victim_replay_1m(benchmark):
    """4-entry VC replay over a million accesses (≥ 5× vs sequential).

    The fast path answers the composed run from one vectorised
    direct-mapped pass + replaying only the miss events through the real
    ``VictimBuffer``; the reference drives the wrapper access by access.
    Measured locally around 25×; the floor is the PR's contractual
    minimum.
    """
    scheme = ModuloIndexing(G)
    result = benchmark.pedantic(
        lambda: simulate_aux(scheme, TRACE_1M, G, combo="vc", depth=4),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert result.accesses == len(TRACE_1M)

    t0 = time.perf_counter()
    seq = simulate_aux(
        scheme, TRACE_1M, G, combo="vc", depth=4, engine="sequential"
    )
    sequential_seconds = time.perf_counter() - t0
    assert seq.misses == result.misses
    speedup = sequential_seconds / benchmark.stats.stats.min
    assert speedup >= 5.0, (
        f"victim replay only {speedup:.1f}x over the sequential wrapper"
    )


def test_aux_sweep_ladder_1m(benchmark):
    """Five-combo aux sweep over a million accesses (≥ 5× vs sequential).

    ``simulate_aux_sweep`` decodes the trace and computes the shared
    miss/displacement events once, then replays each composition; the
    reference simulates each spec through the sequential wrapper.
    """
    scheme = ModuloIndexing(G)
    results = benchmark.pedantic(
        lambda: simulate_aux_sweep(scheme, TRACE_1M, G, AUX_LADDER),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert len(results) == len(AUX_LADDER)

    t0 = time.perf_counter()
    seq = [
        simulate_aux(scheme, TRACE_1M, G, combo=c, depth=d, engine="sequential")
        for c, d in AUX_LADDER
    ]
    sequential_seconds = time.perf_counter() - t0
    assert [r.misses for r in seq] == [r.misses for r in results]
    speedup = sequential_seconds / benchmark.stats.stats.min
    assert speedup >= 5.0, (
        f"aux sweep only {speedup:.1f}x over per-spec sequential"
    )
