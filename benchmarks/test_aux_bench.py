"""Aux fast-path speedup floors: miss-event replay vs the sequential wrapper.

Each floor times both of its sides in the same process:

* the replay: :func:`~repro.core.aux.simulate_aux` under ``engine="auto"``
  (one vectorised direct-mapped pass plus a pure-Python replay of only
  the miss events through one fused loop) must stay ≥ 5×
  ahead of the sequential reference (driving the composed
  :class:`~repro.core.aux.AugmentedCache` one access at a time) on a
  million-access trace, for the 4-entry victim cache;
* the stream-buffer compositions: ``sb4`` and ``vc+sb4`` must stay
  ≥ 12× ahead of the sequential wrapper on the same trace (the fused
  replay holds each queue as its head; a replay that went back to one
  protocol call per structure and event reads about 8×);
* the sweep: :func:`~repro.core.aux.simulate_aux_sweep` over the ext-aux
  composition ladder must beat per-spec sequential simulation by ≥ 5×
  (it shares the decode and the miss/prev pass across every spec).

Bit-identity of everything measured here is locked by
the differential harness, ``tests/core/test_differential.py``.
"""

from __future__ import annotations

import pytest
from bench_timing import best_of

from repro.core.address import PAPER_L1_GEOMETRY
from repro.core.aux import simulate_aux, simulate_aux_sweep
from repro.core.indexing import ModuloIndexing
from repro.trace import zipf_trace

G = PAPER_L1_GEOMETRY
TRACE_1M = zipf_trace(1_000_000, seed=23)

#: The ext-aux composition ladder (sans depth variants — one per combo).
AUX_LADDER = [("vc", 4), ("mc", 4), ("sb", 4), ("vc+sb", 4), ("mc+sb", 4)]


def test_victim_replay_1m():
    """4-entry VC replay over a million accesses (≥ 5× vs sequential).

    The fast path answers the composed run from one vectorised
    direct-mapped pass + replaying only the miss events through the fused
    loop; the reference drives the wrapper access by access.  Reads about
    20–25× on a 2-vCPU VM; the floor is the contractual minimum.
    """
    scheme = ModuloIndexing(G)
    fast_s, result = best_of(
        lambda: simulate_aux(scheme, TRACE_1M, G, combo="vc", depth=4)
    )
    assert result.accesses == len(TRACE_1M)

    sequential_s, seq = best_of(
        lambda: simulate_aux(scheme, TRACE_1M, G, combo="vc", depth=4, engine="sequential"),
        rounds=1,
        warmup=0,
    )
    assert seq.misses == result.misses
    speedup = sequential_s / fast_s
    assert speedup >= 5.0, (
        f"victim replay only {speedup:.1f}x over the sequential wrapper"
    )


@pytest.mark.parametrize("combo", ["sb", "vc+sb"])
def test_stream_buffer_replay_1m(combo):
    """4-deep stream buffers, alone and behind a 4-entry VC (≥ 12×).

    Every main-array miss probes, and most allocate, a stream queue, so
    these compositions pay the most per replayed event.
    """
    scheme = ModuloIndexing(G)
    fast_s, result = best_of(
        lambda: simulate_aux(scheme, TRACE_1M, G, combo=combo, depth=4)
    )
    sequential_s, seq = best_of(
        lambda: simulate_aux(scheme, TRACE_1M, G, combo=combo, depth=4, engine="sequential"),
        rounds=1,
        warmup=0,
    )
    assert (seq.misses, seq.extra) == (result.misses, result.extra)
    speedup = sequential_s / fast_s
    assert speedup >= 12.0, (
        f"{combo}4 replay only {speedup:.1f}x over the sequential wrapper"
    )


def test_aux_sweep_ladder_1m():
    """Five-combo aux sweep over a million accesses (≥ 5× vs sequential).

    ``simulate_aux_sweep`` decodes the trace and computes the shared
    miss/displacement events once, then replays each composition; the
    reference simulates each spec through the sequential wrapper.
    """
    scheme = ModuloIndexing(G)
    sweep_s, results = best_of(lambda: simulate_aux_sweep(scheme, TRACE_1M, G, AUX_LADDER))
    assert len(results) == len(AUX_LADDER)

    sequential_s, seq = best_of(
        lambda: [
            simulate_aux(scheme, TRACE_1M, G, combo=c, depth=d, engine="sequential")
            for c, d in AUX_LADDER
        ],
        rounds=1,
        warmup=0,
    )
    assert [r.misses for r in seq] == [r.misses for r in results]
    speedup = sequential_s / sweep_s
    assert speedup >= 5.0, (
        f"aux sweep only {speedup:.1f}x over per-spec sequential"
    )
