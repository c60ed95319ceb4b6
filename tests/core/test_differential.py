"""The differential harness: every fast path ≡ its sequential reference.

Every figure of the paper is a per-set miss count, and its exactness rests
on one claim: each fast kernel leaves the result *and* the end state of the
per-access :func:`~repro.core.simulator.simulate` loop.  This file holds
that claim for every kernel from two case tables:

* :data:`CASES`, keyed by each :data:`~repro.core.dispatch.KERNELS` class.
  A row builds twin caches, runs ``dispatch`` on one and
  ``dispatch(engine="sequential")`` on the other, and asserts the fast
  path was taken, the results are equal and the two object graphs are
  equal (:func:`assert_same_state`).  A registered kernel with no rows
  fails :func:`test_every_kernel_has_cases`.
* :data:`STATS_PATHS`, keyed by each stats-level entry point, each row
  beside its sequential reference (an independent model for the raw flag
  kernels).

Rows draw traces from one zoo (:data:`ZOO`) and schemes from one lineup
(:data:`SCHEMES`).  One Hypothesis test replays drawn address streams
through drawn :data:`CASES` rows, and every such row also checks both
twins' own invariants and the cold-miss bound, which shares no code with
any kernel.

The ``test_*_differential.py`` modules beside this file (:data:`SUITES`)
keep the test names of the per-kernel suites this harness replaced: each
such test runs the rows it takes with :func:`rows`.  The rows no module
takes, a newly registered kernel's included, run here.
"""

from __future__ import annotations

import importlib
import itertools
from collections import OrderedDict
from dataclasses import dataclass
from dataclasses import replace as dc_replace
from functools import lru_cache
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential_support import assert_same_state
from repro.core.address import PAPER_L1_GEOMETRY, CacheGeometry
from repro.core.aux import (
    AUX_COMBOS,
    AugmentedCache,
    MissCache,
    StreamBuffer,
    VictimBuffer,
    make_aux_structures,
    simulate_aux,
    simulate_aux_sweep,
)
from repro.core.caches import (
    AdaptiveGroupAssociativeCache,
    BalancedCache,
    BeladyCache,
    ColumnAssociativeCache,
    DirectMappedCache,
    FullyAssociativeCache,
    PartnerIndexCache,
    SetAssociativeCache,
    SkewedAssociativeCache,
    VictimCache,
)
from repro.core.decompose import decode
from repro.core.dispatch import KERNELS, dispatch
from repro.core.dynamic import DynamicIndexCache
from repro.core.fastpolicy import simulate_policy_set_associative, simulate_policy_sweep
from repro.core.fastsim import (
    direct_mapped_miss_flags,
    lru_miss_flags,
    lru_sweep_miss_flags,
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
from repro.core.indexing.bit_select import candidate_bit_positions
from repro.core.indexing.patel import _cost, greedy_positions
from repro.core.replacement import POLICIES
from repro.core.selector import ThreadSchemeTable
from repro.core.simulator import (
    simulate,
    simulate_fully_associative,
    simulate_indexing,
    simulate_lru_sweep,
    simulate_set_associative,
)
from repro.core.three_c import classify
from repro.experiments import PaperConfig
from repro.experiments.ext_patel import PATEL_BENCHES
from repro.experiments.warm import workload_spec
from repro.multithread import (
    PartitionedAdaptiveCache,
    SMTSharedCache,
    StaticPartitionedCache,
    simulate_partitioned,
    simulate_smt,
)
from repro.trace import Trace

TINY = CacheGeometry(capacity_bytes=128, line_bytes=16, ways=1, address_bits=16)
SMALL = CacheGeometry(capacity_bytes=1024, line_bytes=16, ways=1)
#: The aux rows' base: 128 sets over a 16-bit space, so random traces reuse.
MID = CacheGeometry(capacity_bytes=2048, line_bytes=16, ways=1, address_bits=16)
PAPER = PAPER_L1_GEOMETRY
#: 48-bit address space: addresses far beyond 2^32 must still agree.
WIDE = CacheGeometry(capacity_bytes=1024, line_bytes=16, ways=1, address_bits=48)
TINY4 = TINY.with_fixed_sets(4)
SMALL4 = SMALL.with_fixed_sets(4)


# -- the trace zoo ----------------------------------------------------------------


def _trace(addrs, name: str, **kw) -> Trace:
    return Trace(np.asarray(addrs, dtype=np.uint64), name=name, **kw)


def _random(g: CacheGeometry, n: int = 4000, seed: int = 7) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 1 << g.address_bits, size=n)


def _hot(g: CacheGeometry, n: int = 4000, seed: int = 9) -> np.ndarray:
    """Reuse of a 64-address pool: the repeat-compression sweet spot."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 1 << g.address_bits, size=64, dtype=np.uint64)
    return pool[rng.integers(0, len(pool), size=n)]


def _same_set(g: CacheGeometry, first: int, ids, n: int) -> np.ndarray:
    """Blocks ``first + k * num_sets`` for each ``k`` of ``ids`` (one modulo
    set), cycled to ``n`` accesses."""
    span = g.num_sets * g.line_bytes
    addrs = [(first * g.line_bytes + k * span) % (1 << g.address_bits) for k in ids]
    return np.resize(np.array(addrs, dtype=np.uint64), n)


def _pair_ping_pong(g: CacheGeometry, n: int = 1200) -> np.ndarray:
    """A, C, B on one column-associative pair {s, s ^ MSB}: every access
    swaps or rehashes."""
    line, half = g.line_bytes, g.num_sets // 2 or 1
    addrs = [3 * line, (3 + 2 * half * g.num_sets) * line, (3 + half) * line]
    return np.resize(np.array(addrs, dtype=np.uint64) % np.uint64(1 << g.address_bits), n)


def _repeats(g: CacheGeometry, n: int = 2000, seed: int = 13) -> np.ndarray:
    """Runs of one to eight accesses to the same address."""
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, 1 << g.address_bits, size=n)
    return np.repeat(addrs, rng.integers(1, 9, size=n))[:n]


def _huge(g: CacheGeometry, n: int = 3000, seed: int = 23) -> np.ndarray:
    """Addresses above 2^32, plus a band straddling it."""
    rng = np.random.default_rng(seed)
    above = rng.integers(1 << 32, 1 << 48, size=n // 2, dtype=np.uint64)
    straddle = np.uint64((1 << 32) - 1024) + rng.integers(
        0, 2048, size=n - n // 2, dtype=np.uint64
    )
    addrs = np.concatenate([above, straddle])
    rng.shuffle(addrs)
    return addrs


def _mixed(g: CacheGeometry, n: int = 4000, seed: int = 5) -> list[int]:
    """Sequential runs cut by aliasing ping-pongs and hot reuse, so a block
    can sit in several aux structures at once (probe order decides) and
    stream queues can share a head."""
    rng = np.random.default_rng(seed)
    line, span = g.line_bytes, g.num_sets * g.line_bytes
    limit = 1 << g.address_bits
    out: list[int] = []
    while len(out) < n:
        start = int(rng.integers(0, 64)) * line
        out += [(start + i * line) % limit for i in range(int(rng.integers(2, 12)))]
        base = int(rng.integers(0, g.num_sets)) * line
        out += [base, base + span, base, base + 2 * span][: int(rng.integers(1, 5))]
        out += [base + line, base + 2 * line][: int(rng.integers(0, 3))]
        out.append(int(rng.integers(0, 96)) * line)
    return out[:n]


def _phases(g: CacheGeometry, n: int = 3000, seed: int = 3) -> list[int]:
    """300-access phases that alternate: random lines of one cache's span
    (modulo is fine), then four blocks of one modulo set (modulo thrashes),
    so a dynamic cache switches schemes."""
    rng = np.random.default_rng(seed)
    span = g.num_sets * g.line_bytes
    tags = 1 << (g.address_bits - g.offset_bits - g.index_bits)
    out: list[int] = []
    while len(out) < n:
        out += (rng.integers(0, g.num_sets, size=300) * g.line_bytes).tolist()
        ids = np.resize(rng.integers(0, tags, size=4), 300)
        out += [int(i) * span + 3 * g.line_bytes for i in ids]
    return out[:n]


def _shared_threads(g: CacheGeometry, n: int = 2000, seed: int = 2) -> Trace:
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 1 << 10, size=96, dtype=np.uint64) * np.uint64(g.line_bytes)
    return _trace(pool[rng.integers(0, len(pool), size=n)], "shared",
                  thread=rng.integers(0, 2, size=n))


def _threads(k: int, seed: int) -> Callable[[CacheGeometry], Trace]:
    def make(g: CacheGeometry, n: int = 4000) -> Trace:
        rng = np.random.default_rng(seed)
        addrs = rng.integers(0, 1 << 16, size=n, dtype=np.uint64)
        return _trace(addrs, f"threads{k}", thread=rng.integers(0, k, size=n))

    return make


#: The one trace zoo: name → builder over a geometry.
ZOO: dict[str, Callable[[CacheGeometry], object]] = {
    "random": _random,
    **{f"random8k/{s}": lambda g, s=s: _random(g, n=8000, seed=s) for s in range(4)},
    **{f"random6k/{s}": lambda g, s=s: _random(g, n=6000, seed=s) for s in range(5)},
    "hot": _hot,
    "hot2k": lambda g: _hot(g, n=2000),
    "ping_pong": lambda g: _same_set(g, 3, (0, 1), 3000),
    "pair_ping_pong": _pair_ping_pong,
    "conflict": lambda g: _same_set(g, 3, range(g.ways + 1), 3000),
    "scan": lambda g: (np.arange(3000) * g.line_bytes) % (1 << g.address_bits),
    "repeats": _repeats,
    "one_set": lambda g: _same_set(g, 3, range(512), 512),
    "cycle3": lambda g: _same_set(g, 5, range(3), 900),
    "cycle9": lambda g: _same_set(g, 5, range(9), 900),
    "huge": _huge,
    "mixed": _mixed,
    "phases": _phases,
    **{f"threads{k}/{s}": _threads(k, s) for k in (2, 4) for s in range(3)},
    # 96 blocks both threads draw from, so a block can sit in two partitions.
    "threads2/shared": lambda g: _shared_threads(g),
    # A, B, A, A on one partition line of thread 0: a miss relocates A, so
    # its next access is an OUT hit, before the first direct hit.
    "threads1/out_first": lambda g: _trace(
        _same_set(g, 3, (0, 1, 0, 0), 1200), "out_first", thread=np.zeros(1200, np.int64)
    ),
    "empty": lambda g: [],
    "single": lambda g: [7 * g.line_bytes],
    # ext-patel's workloads at a small size (the geometry is not used).
    **{
        f"patel/{b}": lambda g, b=b: workload_spec(b, PaperConfig(ref_limit=4000)).generate()
        for b in PATEL_BENCHES
    },
}


@lru_cache(maxsize=None)
def zoo(geometry: CacheGeometry, name: str) -> Trace:
    made = ZOO[name](geometry)
    return made if isinstance(made, Trace) else _trace(made, name)


EDGES = ("empty", "single")
ASSOC_TRACES = ("random", "hot", "pair_ping_pong", "repeats", *EDGES)
POLICY_TRACES = ("random", "hot", "conflict", "repeats", *EDGES)
AUX_TRACES = ("random", "hot", "ping_pong", "scan", *EDGES)
DIRECT_TRACES = ("random", "one_set", "ping_pong", *EDGES)
LRU_TRACES = ("random", "one_set", "cycle3", "cycle9", *EDGES)


# -- the scheme lineup ------------------------------------------------------------


def _fit(g: CacheGeometry) -> np.ndarray:
    return _random(g, n=2000, seed=99).astype(np.uint64)


def _bit_positions(g: CacheGeometry) -> tuple[int, ...]:
    return tuple(range(g.offset_bits, g.offset_bits + g.index_bits))[::-1]


#: One instance of every registered scheme (trainables fitted) by label.
SCHEMES: dict[str, Callable[[CacheGeometry], object]] = {
    "modulo": ModuloIndexing,
    "xor": XorIndexing,
    "odd9": lambda g: OddMultiplierIndexing(g, 9),
    "prime": PrimeModuloIndexing,
    "bitselect": lambda g: BitSelectIndexing(g, _bit_positions(g)),
    "givargis": lambda g: GivargisIndexing(g).fit(_fit(g)),
    # Reads offset bits: both engines must index the offset-zeroed address.
    "givargis+offset": lambda g: GivargisIndexing(g, include_offset_bits=True).fit(
        _fit(g)
    ),
    "givargis_xor": lambda g: GivargisXorIndexing(g).fit(_fit(g)),
    "patel": lambda g: PatelIndexing(g, max_swap_moves=4).fit(_fit(g)),
}


@lru_cache(maxsize=None)
def scheme(geometry: CacheGeometry, label: str):
    return SCHEMES[label](geometry)


def lineup(geometry: CacheGeometry) -> list[str]:
    """The labels of the schemes ``geometry`` admits (XOR-folding schemes
    reject a tag narrower than the index)."""
    return [label for label in SCHEMES if _constructs(lambda: scheme(geometry, label))]


def _constructs(build) -> bool:
    try:
        build()
    except ValueError:
        return False
    return True


# -- the comparer ------------------------------------------------------------------


def test_comparer_catches_order_and_counts():
    """The walker sees a reordered recency table and a one-count change in
    a nested stats array."""
    a, b = AdaptiveGroupAssociativeCache(TINY), AdaptiveGroupAssociativeCache(TINY)
    trace = zoo(TINY, "hot")
    simulate(a, trace)
    simulate(b, trace)
    assert_same_state(a, b)
    b._sht = OrderedDict(reversed(b._sht.items()))
    with pytest.raises(AssertionError, match="_sht"):
        assert_same_state(a, b)
    x, y = VictimCache(MID, victim_lines=4), VictimCache(MID, victim_lines=4)
    fast, slow = dispatch(x, trace), dispatch(y, trace, engine="sequential")
    assert_same_state(fast, slow)
    y.base.stats.slot_hits[0] += 1
    with pytest.raises(AssertionError, match="slot_hits"):
        assert_same_state(x, y)


# -- CASES: one table per registered kernel ---------------------------------------


@dataclass(frozen=True)
class Case:
    id: str
    build: Callable[..., object]
    traces: tuple[str, ...]
    #: A zoo trace both twins run first (each by its own engine), so the
    #: compared run starts from a warm cache.
    prefix: str | None = None
    #: ``build(trace)`` takes the trace it will run (Belady's future).
    takes_trace: bool = False

    def make(self, trace: Trace):
        return self.build(trace) if self.takes_trace else self.build()


GEOMETRIES = {"tiny": TINY, "small": SMALL}


#: The aux orderings: every ordering of one to three distinct structure types.
ORDERINGS = [
    order for r in (1, 2, 3) for order in itertools.permutations(("vc", "mc", "sb"), r)
]
#: (victim-buffer depth, depth of the rest).  A miss cache behind a victim
#: buffer hits only on blocks the buffer has already let go, which a
#: one-line buffer does often.
DEPTHS = [(1, 1), (3, 3), (1, 4)]


def build_structures(order, depths, streams: int = 4, allocate: str = "miss"):
    """Structures in probe ``order``; ``depths`` is (victim buffer, rest)."""
    vc_depth, depth = depths
    make = {
        "vc": lambda: VictimBuffer(vc_depth),
        "mc": lambda: MissCache(depth),
        "sb": lambda: StreamBuffer(depth, streams=streams, allocate=allocate),
    }
    return tuple(make[name]() for name in order)


def _ordering_cases():
    for order in ORDERINGS:
        for depths in DEPTHS:
            modes = [(4, "miss")]
            if "sb" in order:
                modes = itertools.product((1, 4), ("miss", "always"))
            for streams, allocate in modes:
                yield Case(
                    f"order/{'+'.join(order)}/d{depths[0]}-{depths[1]}/s{streams}/{allocate}",
                    lambda o=order, d=depths, s=streams, a=allocate: AugmentedCache(
                        DirectMappedCache(MID, indexing=scheme(MID, "modulo")),
                        build_structures(o, d, s, a),
                    ),
                    ("mixed", "hot2k"),
                )


def _aux(g, label, combo, depth, **kw):
    return lambda: AugmentedCache(
        DirectMappedCache(g, indexing=scheme(g, label)),
        make_aux_structures(combo, depth, **kw),
    )


def _belady(g):
    return lambda trace: BeladyCache(g, trace.blocks(g.offset_bits).astype(np.int64))


def _skewed(g, ways, labels=None):
    """A skewed cache over ``g``; ``labels`` name each bank's scheme from
    the lineup (the model's own defaults when omitted)."""

    def build():
        if labels is None:
            return SkewedAssociativeCache(g, ways=ways)
        bank = CacheGeometry(g.capacity_bytes // ways, g.line_bytes, 1, g.address_bits)
        return SkewedAssociativeCache(g, ways=ways, schemes=[scheme(bank, lb) for lb in labels])

    return build


def _dynamic(g, window, history):
    return lambda: DynamicIndexCache(
        g, [scheme(g, "xor"), scheme(g, "odd9"), scheme(g, "prime")], window, history
    )


#: (window, history) of the dynamic rows: one window per access, windows
#: longer and shorter than the ring, and the model's defaults.
DYNAMIC_WINDOWS = [(1, 3), (37, 1000), (64, 256), (100, 128), (4096, 8192)]
#: Traces on which MIN's tie-breaks, heap rebuilds and skewed victims show.
BOUND_TRACES = ("random", "hot", "one_set", "cycle9", "scan", "repeats", *EDGES)


def _policy_geometry(ways: int) -> CacheGeometry:
    """16 sets at ``ways``: the associativity rows' geometry."""
    return CacheGeometry(256, 16, ways=1, address_bits=16).with_fixed_sets(ways)


CASES: dict[type, list[Case]] = {
    ColumnAssociativeCache: [
        Case(
            f"{gname}/{'protect' if protect else 'noprotect'}/{label}",
            lambda g=g, p=protect, lb=label: ColumnAssociativeCache(
                g, indexing=scheme(g, lb), protect_conventional=p
            ),
            ASSOC_TRACES,
        )
        for gname, g in GEOMETRIES.items()
        for protect in (True, False)
        for label in lineup(g)
    ]
    + [
        Case(f"small/seed{s}", lambda: ColumnAssociativeCache(SMALL), (f"random8k/{s}",))
        for s in range(4)
    ],
    BalancedCache: [
        Case(
            f"{gname}/mf{mf}/bas{bas}",
            lambda g=g, mf=mf, bas=bas: BalancedCache(g, mapping_factor=mf, bas=bas),
            ASSOC_TRACES,
        )
        for gname, g in GEOMETRIES.items()
        for mf, bas in ((2, 2), (2, 4), (4, 2), (4, 4))
        if _constructs(lambda: BalancedCache(g, mapping_factor=mf, bas=bas))
    ]
    + [Case(f"small/seed{s}", lambda: BalancedCache(SMALL), (f"random8k/{s}",)) for s in range(4)],
    PartnerIndexCache: [
        Case(
            f"{gname}/period{period}",
            lambda g=g, p=period: PartnerIndexCache(g, rebalance_period=p),
            ASSOC_TRACES,
        )
        for gname, g in GEOMETRIES.items()
        for period in (16, 64, 257, 100_000)
    ]
    + [
        *(
            Case(f"small/period97/seed{s}", lambda: PartnerIndexCache(SMALL, rebalance_period=97),
                 (f"random8k/{s}",))
            for s in range(4)
        ),
        # 2000 prefix accesses leave the 70-access window mid-way.
        Case("small/period70/mid-window-resume",
             lambda: PartnerIndexCache(SMALL, rebalance_period=70),
             ("random", "hot"), prefix="repeats"),
    ],
    AdaptiveGroupAssociativeCache: [
        Case(
            f"{gname}/{label}",
            lambda g=g, lb=label: AdaptiveGroupAssociativeCache(g, indexing=scheme(g, lb)),
            ASSOC_TRACES,
        )
        for gname, g in GEOMETRIES.items()
        for label in ("modulo", "xor", "odd9", "prime")
    ]
    + [
        Case(
            f"small/paper-fractions/seed{s}",
            lambda: AdaptiveGroupAssociativeCache(SMALL, sht_fraction=3 / 8, out_fraction=4 / 16),
            (f"random8k/{s}",),
        )
        for s in range(3)
    ],
    SetAssociativeCache: [
        Case(
            f"{gname}4/{policy}/{label}",
            lambda g=g, p=policy, lb=label: SetAssociativeCache(g, scheme(g, lb), policy=p, seed=3),
            POLICY_TRACES,
        )
        for gname, g in (("tiny", TINY4), ("small", SMALL4))
        for policy in POLICIES
        for label in lineup(g)
    ]
    + [
        Case(
            f"{ways}way/{policy}",
            lambda g=_policy_geometry(ways), p=policy: SetAssociativeCache(
                g, scheme(g, "xor"), policy=p
            ),
            ("conflict", "random"),
        )
        for ways in (1, 2, 8)
        for policy in POLICIES
    ]
    + [
        Case(
            f"seed{seed}/random",
            lambda s=seed: SetAssociativeCache(TINY4, policy="random", seed=s),
            ("random",),
        )
        for seed in (0, 1, 2011)
    ],
    AugmentedCache: [
        Case(f"combo/{combo}/d{depth}/{label}", _aux(MID, label, combo, depth), AUX_TRACES)
        for combo in AUX_COMBOS
        for label in lineup(MID)
        for depth in (1, 4)
    ]
    + [
        Case(
            f"streams/s{streams}/{allocate}/{combo}",
            _aux(MID, "xor", combo, 4, streams=streams, allocate=allocate),
            ("scan", "random"),
        )
        for combo in ("sb", "vc+sb")
        for streams in (1, 2, 8)
        for allocate in ("miss", "always")
    ]
    + list(_ordering_cases())
    + [Case("victim-cache", lambda: VictimCache(MID, victim_lines=4), AUX_TRACES)],
    DirectMappedCache: [
        Case(
            f"{gname}/{label}",
            lambda g=g, lb=label: DirectMappedCache(g, scheme(g, lb)),
            DIRECT_TRACES,
        )
        for gname, g in (("tiny", TINY), ("small", SMALL), ("paper", PAPER))
        for label in lineup(g)
    ]
    + [
        Case(f"wide/{label}", lambda lb=label: DirectMappedCache(WIDE, scheme(WIDE, lb)),
             ("huge",))
        for label in lineup(WIDE)
    ]
    + [
        # More odd multipliers than the lineup's one.
        Case(f"{gname}/odd31", lambda g=g: DirectMappedCache(g, OddMultiplierIndexing(g, 31)),
             DIRECT_TRACES)
        for gname, g in (("tiny", TINY), ("small", SMALL), ("paper", PAPER))
    ],
    BeladyCache: [
        Case(gname, _belady(g), BOUND_TRACES, takes_trace=True)
        for gname, g in (*GEOMETRIES.items(), ("paper", PAPER))
    ],
    SkewedAssociativeCache: [
        Case(f"{gname}/{ways}way", _skewed(g, ways), (*BOUND_TRACES, "pair_ping_pong"))
        for gname, g in GEOMETRIES.items()
        for ways in (2, 4)
    ]
    + [
        Case("small/prime+odd9", _skewed(SMALL, 2, ("prime", "odd9")), ("random", "hot")),
        Case("wide/2way", _skewed(WIDE, 2), ("huge",)),
    ],
    DynamicIndexCache: [
        Case(f"{gname}/w{window}/h{history}", _dynamic(g, window, history),
             ("phases", "random", "hot", "repeats", *EDGES) if window > 1 else ("cycle9", *EDGES))
        for gname, g in GEOMETRIES.items()
        for window, history in DYNAMIC_WINDOWS
        if window > 1 or g is TINY
    ],
}

ROWS = [(cls, case) for cls, cases in CASES.items() for case in cases]


def test_every_kernel_has_cases():
    assert set(CASES) == set(KERNELS)


def distinct_blocks(traces, offset_bits: int) -> int:
    """Cold misses: distinct blocks, counted with a plain set."""
    return len({a >> offset_bits for t in traces for a in t.addresses.tolist()})


def run_twins(cls: type, case: Case, trace: Trace):
    """Run ``case`` over ``trace`` fast and sequentially; assert the path,
    the results, the end states, both twins' invariants and the cold-miss
    bound.  Returns the fast twin and its last result."""
    fast_cache, slow_cache = case.make(trace), case.make(trace)
    geometry = fast_cache.geometry
    runs = [zoo(geometry, case.prefix), trace] if case.prefix else [trace]
    misses = np.zeros(2, dtype=np.int64)
    for run in runs:
        where = f"{case.id}/{run.name}"
        fast = dispatch(fast_cache, run)
        slow = dispatch(slow_cache, run, engine="sequential")
        assert fast.path == f"fast:{KERNELS[cls].name}", where
        assert slow.path == "sequential:forced", where
        assert_same_state(fast, slow, where)
        # A stream buffer prefetches: a block's first access can hit there.
        misses += [r.misses + r.extra.get("stream_hits", 0) for r in (fast, slow)]
    assert_same_state(fast_cache, slow_cache, where)
    for cache in (fast_cache, slow_cache):
        for model in (cache, cache.stats):
            if hasattr(model, "check_invariants"):
                model.check_invariants()
    assert min(misses) >= distinct_blocks(runs, geometry.offset_bits), where
    return fast_cache, fast


def run_case(cls: type, case: Case) -> list:
    """Every trace of ``case`` through :func:`run_twins`."""
    geometry = case.make(_trace([], "empty")).geometry
    return [run_twins(cls, case, zoo(geometry, name)) for name in case.traces]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(ROWS),
    st.lists(st.integers(min_value=0, max_value=(1 << 16) - 1), max_size=400),
)
def test_drawn_traces(row, addrs):
    run_twins(*row, _trace(addrs, "drawn"))


# -- STATS_PATHS: each stats-level entry point beside its reference ---------------


def reference_lru_miss_flags(blocks: np.ndarray, indices: np.ndarray, ways: int) -> np.ndarray:
    """An ``OrderedDict`` per set: k-way LRU written apart from the kernels."""
    sets: dict[int, OrderedDict] = {}
    flags = np.empty(len(blocks), dtype=bool)
    for i, (b, s) in enumerate(zip(blocks.tolist(), indices.tolist())):
        lines = sets.setdefault(s, OrderedDict())
        flags[i] = b not in lines
        if flags[i]:
            lines[b] = None
            if len(lines) > ways:
                lines.popitem(last=False)
        else:
            lines.move_to_end(b)
    return flags


@dataclass(frozen=True)
class StatsCase:
    id: str
    geometry: CacheGeometry
    traces: tuple[str, ...]
    fast: Callable[[Trace], object]
    reference: Callable[[Trace], object]


SWEEP_WAYS = [1, 2, 3, 4, 7, 8, 16]
#: The associativities of the single-``ways`` flag rows.
FLAG_WAYS = (1, 2, 4, 8, 3, 7)


def _lineup_arrays(g):
    """``trace`` → (blocks, indices) under each scheme of the lineup."""
    return lambda trace: [decode(scheme(g, label), trace, g) for label in lineup(g)]


def _set_count_arrays(num_sets):
    """64 blocks over ``num_sets`` sets, drawn from the trace's bits: any
    set count, not just the powers of two a geometry allows."""

    def arrays(trace):
        addrs = trace.addresses.astype(np.int64)
        return [((addrs >> 4) & 63, (addrs >> 10) % num_sets)]

    return arrays


def _flags_row(row_id, geometry, traces, arrays, ways: int) -> StatsCase:
    """``lru_miss_flags`` at ``ways`` on each of ``arrays(trace)`` against
    the independent LRU model."""
    return StatsCase(
        row_id, geometry, traces,
        lambda t: [lru_miss_flags(b, i, ways) for b, i in arrays(t)],
        lambda t: [reference_lru_miss_flags(b, i, ways) for b, i in arrays(t)],
    )


def _direct_flags_row(gname, g, traces=DIRECT_TRACES) -> StatsCase:
    """Direct-mapped flags and per-set counts, each scheme of the lineup,
    against the 1-way LRU model and plain ``bincount``."""

    def fast(t):
        out = []
        for b, i in _lineup_arrays(g)(t):
            flags = direct_mapped_miss_flags(b, i)
            out.append((flags, *per_set_counts(i, flags, g.num_sets)))
        return out

    def reference(t):
        out = []
        for b, i in _lineup_arrays(g)(t):
            flags = reference_lru_miss_flags(b, i, 1)
            counts = [np.bincount(x, minlength=g.num_sets) for x in (i, i[flags])]
            out.append((flags, *counts))
        return out

    return StatsCase(gname, g, traces, fast, reference)


def _sweep_flags_row(gname, g) -> StatsCase:
    """Every ways of the sweep at once, each scheme of the lineup."""
    return StatsCase(
        gname, g, LRU_TRACES,
        lambda t: [lru_sweep_miss_flags(b, i, SWEEP_WAYS) for b, i in _lineup_arrays(g)(t)],
        lambda t: [
            {w: reference_lru_miss_flags(b, i, w) for w in SWEEP_WAYS}
            for b, i in _lineup_arrays(g)(t)
        ],
    )


def _set_associative_row(row_id, g, labels, traces) -> StatsCase:
    """The sequential cache's result, named as the stats entry names it."""
    return StatsCase(
        row_id, g, traces,
        lambda t: [simulate_set_associative(scheme(g, lb), t, g) for lb in labels],
        lambda t: [
            dc_replace(
                simulate(SetAssociativeCache(g, scheme(g, lb), policy="lru"), t),
                model=f"set_associative[{scheme(g, lb).name},{g.ways}way]",
            )
            for lb in labels
        ],
    )


def _sequential_direct(g, s, trace):
    """The sequential direct-mapped cache's result, named as the stats path
    names it (which always reports ``direct_hits``)."""
    res = simulate(DirectMappedCache(g, s), trace)
    return dc_replace(res, model=f"direct_mapped[{s.name}]", extra={"direct_hits": 0, **res.extra})


#: The schemes of the paper-geometry random-seed ``simulate_indexing`` rows.
PAPER_SEED_SCHEMES = {
    "modulo": ModuloIndexing,
    "xor": XorIndexing,
    "prime": PrimeModuloIndexing,
    "odd21": lambda g: OddMultiplierIndexing(g, 21),
}


def _indexing_row(row_id, g, schemes, traces) -> StatsCase:
    """``simulate_indexing``, the figures' direct-mapped path, under each
    of ``schemes`` (label → scheme over ``g``)."""
    return StatsCase(
        row_id, g, traces,
        lambda t: [simulate_indexing(make(g), t, g) for make in schemes.values()],
        lambda t: [_sequential_direct(g, make(g), t) for make in schemes.values()],
    )


def _lineup_schemes(g) -> dict:
    return {label: lambda g, lb=label: scheme(g, lb) for label in lineup(g)}


def _per_cell(g, s, trace, specs):
    """Each sweep member's reference.  A ``direct`` member is the sequential
    direct-mapped cache.  A ``setassoc`` member is the one-member sweep
    ``simulate_set_associative`` at the sweep's fixed set count, which the
    ``simulate_set_associative`` rows hold to the sequential LRU cache."""
    return [
        _sequential_direct(g, s, trace)
        if style == "direct"
        else simulate_set_associative(s, trace, g.with_fixed_sets(ways), ways=ways)
        for ways, style in specs
    ]


#: The members of the sweep rows by style.
SWEEP_SPECS = {
    "setassoc": [(w, "setassoc") for w in (1, 2, 4, 8)],
    "direct": [(1, "direct")],
}


def _lru_sweep_row(gname, g, style) -> StatsCase:
    specs = SWEEP_SPECS[style]
    return StatsCase(
        f"{gname}/{style}", g, LRU_TRACES,
        lambda t: [simulate_lru_sweep(scheme(g, lb), t, g, specs) for lb in lineup(g)],
        lambda t: [_per_cell(g, scheme(g, lb), t, specs) for lb in lineup(g)],
    )


def _fully_associative_row(gname, g) -> StatsCase:
    return StatsCase(
        gname, g, (*LRU_TRACES, "hot"),
        lambda t: simulate_fully_associative(t, g),
        lambda t: simulate(FullyAssociativeCache(g), t),
    )


def _policy_sweep_row(gname, g) -> StatsCase:
    s = scheme(g, "xor")
    return StatsCase(
        gname, g, POLICY_TRACES,
        lambda t: simulate_policy_sweep(s, t, g, POLICIES, seed=3),
        lambda t: [
            simulate_policy_set_associative(s, t, g, policy=p, seed=3, engine="sequential")
            for p in POLICIES
        ],
    )


AUX_SPECS = [(combo, depth) for combo in AUX_COMBOS for depth in (1, 2, 8)]


def _aux_sweep_row(label) -> StatsCase:
    s = scheme(MID, label)
    return StatsCase(
        label, MID, AUX_TRACES,
        lambda t: simulate_aux_sweep(s, t, MID, AUX_SPECS),
        lambda t: [
            simulate_aux(s, t, MID, combo=c, depth=d, engine="sequential")
            for c, d in AUX_SPECS
        ],
    )


def _engine_pair(run, build):
    """``run(cache, trace, engine)`` on a fresh ``build()``, both engines;
    each side yields its result and its cache's end state."""

    def side(engine):
        def go(trace):
            cache = build()
            return run(cache, trace, engine=engine), cache

        return go

    return side("auto"), side("sequential")


def _smt_cache():
    return SMTSharedCache(
        SMALL,
        ThreadSchemeTable(
            [scheme(SMALL, "modulo"), scheme(SMALL, "odd9"), scheme(SMALL, "xor"),
             OddMultiplierIndexing(SMALL, 31)]
        ),
    )


def reference_greedy(blocks, candidates, count):
    """Patel's greedy forward selection with a fresh sort (``_cost``) per
    candidate: the search as it was first written."""
    selected, remaining, cost = [], list(candidates), None
    for _ in range(count):
        costs = [_cost(blocks, (*selected, bit)) for bit in remaining]
        cost = min(costs)
        selected.append(remaining.pop(costs.index(cost)))
    return selected, cost


def _greedy_row(row_id, g, traces) -> StatsCase:
    """The incremental greedy against :func:`reference_greedy` over ``g``'s
    index bits, in block-address coordinates as ``PatelIndexing.fit`` runs
    it."""
    candidates = tuple(
        p - g.offset_bits for p in candidate_bit_positions(g) if p >= g.offset_bits
    )

    def run(search):
        return lambda t: search(t.blocks(g.offset_bits), candidates, g.index_bits)

    return StatsCase(row_id, g, traces, run(greedy_positions), run(reference_greedy))


CLASSIFY_MODELS = {
    "direct-mapped/modulo": lambda: DirectMappedCache(SMALL),
    "direct-mapped/xor": lambda: DirectMappedCache(SMALL, scheme(SMALL, "xor")),
    "2way-lru": lambda: SetAssociativeCache(SMALL.with_ways(2), policy="lru"),
    "4way-lru": lambda: SetAssociativeCache(SMALL.with_ways(4), policy="lru"),
    "skewed": lambda: SkewedAssociativeCache(SMALL, ways=2),
    "victim": lambda: VictimCache(SMALL, victim_lines=4),
}

STATS_PATHS: dict[str, list[StatsCase]] = {
    "direct_mapped_miss_flags": [
        _direct_flags_row(gname, g)
        for gname, g in (("tiny", TINY), ("small", SMALL), ("paper", PAPER))
    ]
    + [_direct_flags_row("wide", WIDE, ("huge",))],
    "simulate_indexing": [
        _indexing_row(gname, g, _lineup_schemes(g), DIRECT_TRACES)
        for gname, g in (("tiny", TINY), ("small", SMALL), ("paper", PAPER))
    ]
    + [_indexing_row("wide", WIDE, _lineup_schemes(WIDE), ("huge",))]
    + [
        _indexing_row(f"seed{s}", PAPER, PAPER_SEED_SCHEMES, (f"random6k/{s}",))
        for s in range(5)
    ],
    "lru_miss_flags": [
        _flags_row(f"{gname}/{w}", g, LRU_TRACES, _lineup_arrays(g), w)
        for gname, g in GEOMETRIES.items()
        for w in FLAG_WAYS
    ]
    + [
        _flags_row(f"sets{n}/{w}", TINY, ("random", "hot"), _set_count_arrays(n), w)
        for n in (1, 3, 5, 12, 37)
        for w in (1, 2, 3, 4, 8)
    ],
    "lru_sweep_miss_flags": [_sweep_flags_row(gname, g) for gname, g in GEOMETRIES.items()],
    "simulate_set_associative": [
        _set_associative_row(f"{gname}/{w}", g.with_ways(w), lineup(g.with_ways(w)), LRU_TRACES)
        for gname, g in GEOMETRIES.items()
        for w in (1, 2, 4, 8)
    ]
    + [
        _set_associative_row(f"paper/seed{s}", PAPER.with_ways(4), ("modulo", "xor", "prime"),
                             (f"random6k/{s}",))
        for s in range(3)
    ],
    "simulate_lru_sweep": [
        _lru_sweep_row(gname, g, style) for gname, g in GEOMETRIES.items() for style in SWEEP_SPECS
    ],
    "simulate_fully_associative": [
        _fully_associative_row(gname, g) for gname, g in GEOMETRIES.items()
    ],
    "simulate_policy_sweep": [
        _policy_sweep_row(gname, g)
        for gname, g in (("tiny4", TINY4), ("small4", SMALL4))
    ],
    "simulate_aux_sweep": [_aux_sweep_row("xor")],
    "simulate_smt": [
        StatsCase(f"seed{s}", SMALL, (f"threads4/{s}", "empty"),
                  *_engine_pair(simulate_smt, _smt_cache))
        for s in range(3)
    ],
    "simulate_partitioned": [
        StatsCase(
            f"seed{s}{suffix}", SMALL, (f"threads{k}/{s}", "empty"),
            *_engine_pair(simulate_partitioned, lambda k=k: StaticPartitionedCache(SMALL, k)),
        )
        for k, s, suffix in [(2, s, "") for s in range(3)] + [(4, 0, "/4threads")]
    ]
    + [
        StatsCase(
            f"adaptive/{tables}/{k}threads/seed{s}", SMALL,
            (f"threads{k}/{s}", "threads1/out_first", "empty"),
            *_engine_pair(
                simulate_partitioned,
                lambda k=k, f=fractions: PartitionedAdaptiveCache(SMALL, k, *f),
            ),
        )
        # Nearly full tables seldom age a line out, so the cold pool runs
        # dry and a protected victim can find no relocation target; a
        # block two threads share can then still hold an OUT entry.
        for tables, fractions in (
            ("paper", (3 / 8, 4 / 16)), ("tiny", (1 / 64, 1 / 64)), ("full", (0.95, 0.95))
        )
        for k in (2, 4)
        for s in range(3)
    ]
    + [
        StatsCase(
            f"adaptive/{tables}/tiny-cache", TINY, ("threads2/shared",),
            *_engine_pair(
                simulate_partitioned,
                lambda f=fractions: PartitionedAdaptiveCache(TINY, 2, *f),
            ),
        )
        for tables, fractions in (("paper", (3 / 8, 4 / 16)), ("full", (0.95, 0.95)))
    ],
    "greedy_positions": [
        _greedy_row(gname, g, ("random", "hot", "repeats", "scan", "phases", *EDGES))
        for gname, g in (*GEOMETRIES.items(), ("paper", PAPER))
    ]
    + [_greedy_row("ext-patel", PAPER, tuple(f"patel/{b}" for b in PATEL_BENCHES))],
    "classify": [
        StatsCase(name, SMALL, ("random", "hot"), *_engine_pair(classify, build))
        for name, build in CLASSIFY_MODELS.items()
    ],
}

STATS_ROWS = [(name, case) for name, cases in STATS_PATHS.items() for case in cases]


def run_stats(case: StatsCase) -> None:
    for name in case.traces:
        trace = zoo(case.geometry, name)
        assert_same_state(case.fast(trace), case.reference(trace), f"{case.id}/{name}")


# -- the rows each test runs -------------------------------------------------------

ALL_ROWS = ROWS + STATS_ROWS

#: The per-kernel modules beside this file.  Each keeps the test names of
#: the suite this harness replaced, and each such test runs the rows it
#: takes with :func:`rows`.
SUITES = (
    "test_aux_differential",
    "test_fastassoc_differential",
    "test_fastpolicy_differential",
    "test_fastsim_differential",
    "test_fastsim_lru_differential",
    "test_sweep_batching_differential",
)

#: ``(key, row id)`` of every row a :data:`SUITES` test has taken.
TAKEN: set[tuple] = set()


def rows(key, prefix: str = "") -> list[tuple]:
    """``(key, row)`` for each row of ``key`` (a :data:`CASES` class or a
    :data:`STATS_PATHS` name) whose id is ``prefix`` or lies under it, taken
    so that :func:`test_rows_no_module_takes` leaves them out.  Call it at
    import time, where the test is declared."""
    table = CASES if isinstance(key, type) else STATS_PATHS
    found = [
        (key, case)
        for case in table[key]
        if not prefix or case.id == prefix or case.id.startswith(prefix + "/")
    ]
    assert found, f"no {key} row under {prefix!r}"
    TAKEN.update((key, case.id) for _, case in found)
    return found


def groups(key, prefixes: dict[str, str]):
    """Parametrise a test over ``rows``: test id → the prefix of ``key``'s
    rows that the id runs."""
    return pytest.mark.parametrize(
        "rows", [rows(key, p) for p in prefixes.values()], ids=list(prefixes)
    )


def run_rows(taken: list[tuple]) -> list:
    """Each row through :func:`run_case` or :func:`run_stats`; returns the
    fast twins and last results of the :data:`CASES` rows."""
    twins = []
    for key, case in taken:
        if isinstance(key, type):
            twins += run_case(key, case)
        else:
            run_stats(case)
    return twins


def test_rows_no_module_takes():
    """The rows no :data:`SUITES` test takes run here: the direct-mapped
    kernel's, and any newly registered kernel's."""
    for module in SUITES:
        importlib.import_module(module)
    run_rows([(key, case) for key, case in ALL_ROWS if (key, case.id) not in TAKEN])
