"""Ablations at 60k references: how the paper's conclusions move with the
knobs it fixes (EXPERIMENTS.md, "Ablations").

* adaptive-cache SHT/OUT sizing: the paper fixes SHT = 3/8 and OUT = 4/16
  of the sets "based on empirical results" (Peir et al.);
* B-cache operating point (MF, BAS): the paper measures the B-cache as the
  weakest scheme while citing Zhang's 8-way-equivalence claim.  Both hold:
  the claim at a large operating point (MF=8, BAS=8), not at the small one
  (MF=2, BAS=2) the comparison figures use;
* column-associative relocation guard (DESIGN.md §5): the unguarded
  textbook clobber policy can lose to direct-mapped on capacity-streaming
  workloads, the guarded default cannot, and both fix conflict pathologies;
* Givargis block size (paper Section IV.A prose): with 8-byte lines the
  candidate pool regains bits 3-4;
* SMT interleaving discipline (DESIGN.md §2): the Figure-13 gain survives
  round-robin, randomised and quantum-burst interleavings;
* miss penalty: the Figure-7 ordering is stable from 6 to 60 cycles, and
  the hierarchy-measured effective penalty brackets the analytic constant;
* seeds: the headline signs and orderings hold for three workload seeds.
"""

from __future__ import annotations

import pytest

from repro.core.address import CacheGeometry
from repro.core.amat import TimingModel, amat_column_associative, amat_direct_mapped
from repro.core.caches import (
    AdaptiveGroupAssociativeCache,
    BalancedCache,
    ColumnAssociativeCache,
    DirectMappedCache,
    SetAssociativeCache,
)
from repro.core.hierarchy import CacheHierarchy
from repro.core.indexing import GivargisIndexing, ModuloIndexing, OddMultiplierIndexing
from repro.core.selector import ThreadSchemeTable
from repro.core.simulator import simulate, simulate_indexing
from repro.experiments.runner import profile_trace, workload_trace
from repro.multithread import SMTSharedCache, simulate_smt
from repro.trace import block_interleave, ping_pong_trace, random_interleave, round_robin
from repro.workloads import get_workload

SEEDS = (101, 202, 303)


def _smt_reduction(g, mix) -> float:
    """% miss reduction of per-thread odd multipliers (9, 31) over both
    threads on conventional indexing."""
    base = simulate_smt(SMTSharedCache(g, ThreadSchemeTable([ModuloIndexing(g)] * 2)), mix)
    multi = simulate_smt(
        SMTSharedCache(
            g, ThreadSchemeTable([OddMultiplierIndexing(g, 9), OddMultiplierIndexing(g, 31)])
        ),
        mix,
    )
    return 100.0 * (base.misses - multi.misses) / max(base.misses, 1)


@pytest.mark.parametrize(
    "sht_frac,out_frac",
    [(1 / 8, 1 / 8), (3 / 8, 1 / 4), (1 / 2, 1 / 2), (1.0, 1.0)],
)
def test_table_sizing(shape_config, sht_frac, out_frac):
    trace = workload_trace("fft", shape_config)
    g = shape_config.geometry
    result = simulate(
        AdaptiveGroupAssociativeCache(g, sht_fraction=sht_frac, out_fraction=out_frac), trace
    )
    dm = simulate(DirectMappedCache(g), trace)
    reduction = 100.0 * (dm.misses - result.misses) / dm.misses
    print(f"SHT={sht_frac:.3f} OUT={out_frac:.3f}: reduction {reduction:+.1f}%")
    assert result.misses <= dm.misses


@pytest.mark.parametrize("mf,bas", [(1, 2), (2, 2), (2, 4), (4, 4), (8, 8)])
def test_bcache_operating_points(shape_config, mf, bas):
    trace = workload_trace("fft", shape_config)
    g = shape_config.geometry
    result = simulate(BalancedCache(g, mapping_factor=mf, bas=bas), trace)
    dm = simulate(DirectMappedCache(g), trace)
    print(f"MF={mf} BAS={bas}: miss_rate={result.miss_rate:.4f} (DM {dm.miss_rate:.4f})")
    assert result.misses <= dm.misses * 1.01


def test_bcache_8way_claim(shape_config):
    """Zhang: a balanced cache can reach 8-way-equivalent miss rates."""
    trace = workload_trace("fft", shape_config)
    g = shape_config.geometry
    big = simulate(BalancedCache(g, mapping_factor=8, bas=8), trace)
    sa8 = simulate(SetAssociativeCache(g.with_ways(8)), trace)
    print(f"B-cache(8,8)={big.miss_rate:.4f} vs 8-way={sa8.miss_rate:.4f}")
    assert big.misses <= sa8.misses * 1.25

    small = simulate(BalancedCache(g, mapping_factor=2, bas=2), trace)
    # The small operating point is clearly weaker than the big one on at
    # least conflict-heavy traces: the source of the paper's ordering.
    assert small.misses >= big.misses


def test_guard_on_vs_off(shape_config):
    g = shape_config.geometry
    for name in ("dijkstra", "patricia", "rijndael", "fft"):
        trace = workload_trace(name, shape_config)
        dm = simulate(DirectMappedCache(g), trace).misses
        guarded = simulate(ColumnAssociativeCache(g), trace).misses
        unguarded = simulate(ColumnAssociativeCache(g, protect_conventional=False), trace).misses
        print(f"{name:10s} dm={dm:6d} guarded={guarded:6d} unguarded={unguarded:6d}")
        # The guard keeps the cache from losing to direct-mapped.
        assert guarded <= dm * 1.02
    # Both variants still crush the conflict pathology.
    pp = ping_pong_trace(4000)
    for protect in (True, False):
        res = simulate(ColumnAssociativeCache(g, protect_conventional=protect), pp)
        assert res.miss_rate < 0.01


def test_block_size_sensitivity(shape_config):
    """Givargis at 8 B vs 32 B lines (reported, not gated: the paper's
    claim is directional prose)."""
    rows = {}
    for name in ("fft", "patricia", "susan"):
        trace = workload_trace(name, shape_config)
        train = profile_trace(name, shape_config)
        row = {}
        for line_bytes in (8, 32):
            g = CacheGeometry(32 * 1024, line_bytes, 1)
            base = simulate_indexing(ModuloIndexing(g), trace, g)
            giv = GivargisIndexing(g).fit(train.addresses)
            res = simulate_indexing(giv, trace, g)
            row[line_bytes] = 100.0 * (base.misses - res.misses) / max(base.misses, 1)
        rows[name] = row
        print(f"{name:10s} 8B-line: {row[8]:+8.2f}%   32B-line: {row[32]:+8.2f}%")
    avg8 = sum(r[8] for r in rows.values()) / len(rows)
    avg32 = sum(r[32] for r in rows.values()) / len(rows)
    print(f"average    8B-line: {avg8:+8.2f}%   32B-line: {avg32:+8.2f}%")


def test_interleaving_robustness(shape_config):
    g = shape_config.geometry
    per_thread = shape_config.ref_limit // 2
    t0 = get_workload("fft").generate(seed=shape_config.seed, ref_limit=per_thread)
    t1 = get_workload("susan").generate(seed=shape_config.seed + 1, ref_limit=per_thread)
    disciplines = {
        "round_robin": lambda: round_robin([t0, t1]),
        "random": lambda: random_interleave([t0, t1], seed=3),
        "quantum64": lambda: block_interleave([t0, t1], quantum=64),
        "quantum1024": lambda: block_interleave([t0, t1], quantum=1024),
    }
    for name, make in disciplines.items():
        reduction = _smt_reduction(g, make())
        print(f"{name:12s} miss reduction {reduction:+.1f}%")
        assert reduction > 10.0, f"{name}: per-thread indexing gain vanished"


@pytest.mark.parametrize("penalty", [6.0, 18.0, 60.0])
def test_penalty_sweep(shape_config, penalty):
    trace = workload_trace("fft", shape_config)
    g = shape_config.geometry
    dm = simulate(DirectMappedCache(g), trace)
    col = simulate(ColumnAssociativeCache(g), trace)
    timing = TimingModel(miss_penalty=penalty)
    base = amat_direct_mapped(dm.miss_rate, timing)
    amat = amat_column_associative(
        col.extra.get("rehash_hits", 0) / col.accesses,
        col.extra.get("rehash_misses", 0) / col.misses if col.misses else 0.0,
        col.miss_rate,
        timing,
    )
    print(f"penalty={penalty}: DM AMAT {base:.3f} vs column {amat:.3f}")
    # On the conflict-heavy fft the ordering is penalty-invariant.
    assert amat < base


def test_measured_effective_penalty(shape_config):
    """The hierarchy-measured L1 miss cost lands between the L2 latency and
    memory latency, justifying the analytic constant."""
    trace = workload_trace("dijkstra", shape_config)
    h = CacheHierarchy(DirectMappedCache(shape_config.geometry), timing=shape_config.timing)
    res = h.run(trace)
    print(f"measured effective L1 miss penalty: {res.effective_miss_penalty:.1f} cycles")
    timing = shape_config.timing
    assert timing.miss_penalty <= res.effective_miss_penalty <= timing.l2_miss_penalty


def test_seed_robustness(shape_config):
    """fft gains massively from hashing and from programmable associativity,
    and the SMT per-thread-multiplier gain on fft+susan persists, for every
    seed (signs and orderings, not magnitudes)."""
    g = shape_config.geometry
    refs = min(shape_config.ref_limit, 40_000)
    for seed in SEEDS:
        fft = get_workload("fft").generate(seed=seed, ref_limit=refs)
        base = simulate_indexing(ModuloIndexing(g), fft, g).misses
        odd = simulate_indexing(OddMultiplierIndexing(g, 9), fft, g).misses
        col = simulate(ColumnAssociativeCache(g), fft).misses
        ada = simulate(AdaptiveGroupAssociativeCache(g), fft).misses
        susan = get_workload("susan").generate(seed=seed + 1, ref_limit=refs // 2)
        fft_half = get_workload("fft").generate(seed=seed, ref_limit=refs // 2)
        smt = _smt_reduction(g, round_robin([fft_half, susan]))
        row = {
            "fft_odd_red": 100 * (base - odd) / base,
            "fft_col_red": 100 * (base - col) / base,
            "fft_ada_red": 100 * (base - ada) / base,
        }
        print(f"seed {seed}: {row}, smt {smt:+.1f}%")
        assert row["fft_odd_red"] > 50.0
        assert row["fft_col_red"] > 50.0
        assert row["fft_ada_red"] > 50.0
        assert smt > 30.0
