"""Policy-kernel speedup floors: set-decomposed replay vs the sequential
engine.

Each floor times both of its sides in the same process:

* the kernels: :func:`~repro.core.fastpolicy.simulate_policy_set_associative`
  under ``engine="auto"`` must stay ≥ 5× ahead of the sequential reference
  (driving the real :class:`~repro.core.caches.SetAssociativeCache` one
  access at a time) on a million-access trace, for FIFO and PLRU;
* the engine: a cold ``run_cells`` pass over an ext-policy-shaped policy
  family (five policies, one set-decomposition) must beat the same grid
  executed per-cell with ``batch_sweeps=False`` + ``engine="sequential"``
  by ≥ 3×.

Bit-identity of everything measured here is locked by
the differential harness, ``tests/core/test_differential.py``.
"""

from __future__ import annotations

from dataclasses import replace

from bench_timing import best_of

from repro.core.address import PAPER_L1_GEOMETRY
from repro.core.fastpolicy import simulate_policy_set_associative
from repro.core.indexing import ModuloIndexing
from repro.experiments import PaperConfig
from repro.experiments.engine import make_cell, run_cells
from repro.trace import zipf_trace

G4 = PAPER_L1_GEOMETRY.with_ways(4)
TRACE_1M = zipf_trace(1_000_000, seed=23)

#: The ext-policy shape: one policy family per (workload, scheme).
POLICY_LADDER = [f"modulo:{p}" for p in ("lru", "fifo", "plru", "mru", "lfu")]


def _kernel_gate(policy: str, floor: float) -> None:
    scheme = ModuloIndexing(G4)
    fast_s, result = best_of(
        lambda: simulate_policy_set_associative(scheme, TRACE_1M, G4, policy=policy)
    )
    assert result.accesses == len(TRACE_1M)

    sequential_s, seq = best_of(
        lambda: simulate_policy_set_associative(
            scheme, TRACE_1M, G4, policy=policy, engine="sequential"
        ),
        rounds=1,
        warmup=0,
    )
    assert seq.misses == result.misses
    speedup = sequential_s / fast_s
    assert speedup >= floor, (
        f"{policy} kernel only {speedup:.1f}x over the sequential engine"
    )


def test_fifo_kernel_1m():
    """FIFO replay over a million accesses, 4-way (≥ 5× vs sequential).

    The kernel replays run heads per set with the f-mod-w rotation; the
    reference drives the cache model access by access.  Measured locally
    around 30×; the floor is the contractual minimum.
    """
    _kernel_gate("fifo", 5.0)


def test_plru_kernel_1m():
    """PLRU replay over a million accesses, 4-way (≥ 5× vs sequential).

    Precomputed per-way touch-op tuples replace the per-access tree walk;
    measured locally around 60×.
    """
    _kernel_gate("plru", 5.0)


def test_engine_policy_family_cold(tmp_path):
    """Cold engine pass over one ext-policy family (≥ 3× vs unbatched
    sequential).

    ``run_cells`` with batching on answers the five-policy grid from one
    trace decode + one index computation + one set-decomposition pass; the
    reference is the same grid with ``batch_sweeps=False`` and
    ``engine="sequential"`` (cells, keys and results identical: only the
    execution plan differs).
    """
    cfg = PaperConfig(
        ref_limit=60_000,
        trace_cache_dir=tmp_path,
        use_result_cache=False,
        geometry=PAPER_L1_GEOMETRY.with_ways(4),
    )
    cells = [make_cell("policysweep", "crc", lab, cfg) for lab in POLICY_LADDER]
    plain_cfg = replace(cfg, batch_sweeps=False, engine="sequential")
    run_cells(cells, plain_cfg, jobs=1)  # pre-warm the on-disk trace cache

    batched_s, (results, stats) = best_of(lambda: run_cells(cells, cfg, jobs=1))
    assert stats.families_batched == 1 and stats.cells_batched == len(cells)
    assert len(results) == len(cells)

    per_cell_s, (_, plain_stats) = best_of(
        lambda: run_cells(cells, plain_cfg, jobs=1), rounds=1, warmup=0
    )
    assert plain_stats.cells_batched == 0
    speedup = per_cell_s / batched_s
    assert speedup >= 3.0, (
        f"batched policy family only {speedup:.1f}x over unbatched sequential"
    )
