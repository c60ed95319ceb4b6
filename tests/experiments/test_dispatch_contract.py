"""The fast-path dispatch contract: every result names its path.

:func:`repro.core.dispatch.dispatch` picks an exact kernel or the
per-access reference loop for a cache object and stamps the result's
``path``.  Two layers are pinned here:

* the registry: a table of acceptance and refusal cases, one path each,
  covering every :data:`~repro.core.dispatch.KERNELS` entry; each case's
  result and end state also equal ``simulate`` on a twin cache (the
  differential harness's comparer);
* the experiments: run cold, no engine cell falls back to the reference
  loop (every cache object has a kernel, and the SMT cells of Figure 13
  and the partitioned cells of Figure 14 stamp their own fast paths), and
  every simulated cell, batched or alone, names its path in
  ``engine_stats["paths"]``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.address import CacheGeometry
from repro.core.aux import AugmentedCache, VictimBuffer, make_aux_structures
from repro.core.caches import (
    AdaptiveGroupAssociativeCache,
    BalancedCache,
    BeladyCache,
    ColumnAssociativeCache,
    DirectMappedCache,
    PartnerIndexCache,
    SetAssociativeCache,
    SkewedAssociativeCache,
    VictimCache,
)
from repro.core.dispatch import KERNELS, dispatch
from repro.core.dynamic import DynamicIndexCache
from repro.core.indexing import ModuloIndexing, XorIndexing
from repro.core.selector import ThreadSchemeTable
from repro.core.simulator import simulate
from repro.experiments import PaperConfig, available_experiments, run_experiment
from repro.experiments import fig04_indexing_missrate as fig04
from repro.experiments import fig06_progassoc_missrate as fig06
from repro.experiments.engine import cells, make_cell, run_cells
from repro.multithread import (
    PartitionedAdaptiveCache,
    SMTSharedCache,
    StaticPartitionedCache,
    simulate_partitioned,
    simulate_smt,
)
from repro.trace import Trace
from repro.workloads.mibench import MIBENCH_ORDER
from differential_support import assert_same_state

DM = CacheGeometry(capacity_bytes=1024, line_bytes=16, ways=1, address_bits=16)
SA = CacheGeometry(capacity_bytes=512, line_bytes=16, ways=4, address_bits=16)


def _trace(n: int = 1500, seed: int = 7) -> Trace:
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 1 << 16, size=96, dtype=np.uint64)
    return Trace(pool[rng.integers(0, len(pool), size=n)], name="hot")


def _aux(combo: str = "vc", cls=AugmentedCache, buffer=None):
    def build():
        structures = (buffer(4),) if buffer else make_aux_structures(combo, 4)
        return cls(DirectMappedCache(DM, indexing=XorIndexing(DM)), structures)

    return build


class _PlainAug(AugmentedCache):
    pass


class _OverridingAug(AugmentedCache):
    def _access_block(self, block, is_write):
        return super()._access_block(block, is_write)


class _SubSetAssoc(SetAssociativeCache):
    pass


class _SubDirectMapped(DirectMappedCache):
    pass


class _WeirdBuffer(VictimBuffer):
    pass


class _SubPartitioned(PartitionedAdaptiveCache):
    pass


class _SubSMT(SMTSharedCache):
    pass


#: The warm-up trace of the ``dirty`` cases.
WARM = dict(n=400, seed=3)


def _belady(dirty: bool = False):
    """A Belady cache over the blocks it will see: the contract trace,
    after the warm-up trace when ``dirty``."""
    traces = [_trace(**WARM), _trace()] if dirty else [_trace()]
    blocks = np.concatenate([t.blocks(DM.offset_bits) for t in traces]).astype(np.int64)
    return lambda: BeladyCache(DM, blocks)


def _dynamic():
    return DynamicIndexCache(DM, [ModuloIndexing(DM), XorIndexing(DM)])


#: ``(id, cache builder, dispatch kwargs, warm first, expected path)``.
CASES = [
    ("colassoc", lambda: ColumnAssociativeCache(DM), {}, False, "fast:colassoc"),
    (
        "colassoc-unprotected",
        lambda: ColumnAssociativeCache(DM, protect_conventional=False),
        {},
        False,
        "fast:colassoc",
    ),
    ("colassoc-forced", lambda: ColumnAssociativeCache(DM), {"engine": "sequential"},
     False, "sequential:forced"),
    ("bcache", lambda: BalancedCache(DM), {}, False, "fast:bcache"),
    ("bcache-random", lambda: BalancedCache(DM, policy="random", seed=4), {}, False,
     "sequential:no-kernel"),
    ("bcache-invariants", lambda: BalancedCache(DM), {"check_invariants_every": 100},
     False, "sequential:invariants"),
    ("partner", lambda: PartnerIndexCache(DM, rebalance_period=64), {}, False,
     "fast:partner"),
    ("adaptive", lambda: AdaptiveGroupAssociativeCache(DM), {}, False, "fast:adaptive"),
    *[
        (f"policy-{p}", lambda p=p: SetAssociativeCache(SA, policy=p, seed=11), {},
         False, "fast:policy")
        for p in ("lru", "fifo", "random", "plru", "mru", "lfu")
    ],
    ("policy-dirty", lambda: SetAssociativeCache(SA, policy="lfu"), {}, True,
     "sequential:warm-state"),
    ("policy-invariants", lambda: SetAssociativeCache(SA, policy="lfu"),
     {"check_invariants_every": 100}, False, "sequential:invariants"),
    ("policy-subclass", lambda: _SubSetAssoc(SA, policy="fifo"), {}, False,
     "sequential:no-kernel"),
    *[
        (f"aux-{c}", _aux(c), {}, False, "fast:aux-replay")
        for c in ("vc", "mc", "sb", "vc+sb", "mc+sb")
    ],
    ("aux-plain-subclass", _aux(cls=_PlainAug), {}, False, "fast:aux-replay"),
    ("aux-victim-cache", lambda: VictimCache(DM, victim_lines=4), {}, False,
     "fast:aux-replay"),
    ("aux-overriding-subclass", _aux(cls=_OverridingAug), {}, False,
     "sequential:no-kernel"),
    ("aux-unregistered-structure", _aux(buffer=_WeirdBuffer), {}, False,
     "sequential:no-kernel"),
    (
        "aux-set-associative-base",
        lambda: AugmentedCache(SetAssociativeCache(SA), make_aux_structures("vc", 4)),
        {},
        False,
        "sequential:no-kernel",
    ),
    ("aux-dirty", _aux("mc+sb"), {}, True, "sequential:warm-state"),
    ("direct-mapped-modulo", lambda: DirectMappedCache(DM), {}, False,
     "fast:direct-mapped"),
    ("direct-mapped-xor", lambda: DirectMappedCache(DM, indexing=XorIndexing(DM)), {},
     False, "fast:direct-mapped"),
    ("direct-mapped-dirty", lambda: DirectMappedCache(DM), {}, True,
     "sequential:warm-state"),
    ("direct-mapped-subclass", lambda: _SubDirectMapped(DM), {}, False,
     "sequential:no-kernel"),
    ("skewed", lambda: SkewedAssociativeCache(DM, ways=2), {}, False, "fast:skewed"),
    ("skewed-dirty", lambda: SkewedAssociativeCache(DM, ways=2), {}, True,
     "sequential:warm-state"),
    ("dynamic", _dynamic, {}, False, "fast:dynamic"),
    ("dynamic-dirty", _dynamic, {}, True, "sequential:warm-state"),
    ("belady", _belady(), {}, False, "fast:belady"),
    ("belady-dirty", _belady(dirty=True), {}, True, "sequential:warm-state"),
]


def test_every_kernel_has_a_case():
    fast = {path for *_, path in CASES if path.startswith("fast:")}
    assert fast == {f"fast:{k.name}" for k in KERNELS.values()}


@pytest.mark.parametrize(
    "build, kwargs, dirty, expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_registry_paths(build, kwargs, dirty, expected):
    trace = _trace()
    cache, twin = build(), build()
    if dirty:
        warm = _trace(**WARM)
        simulate(cache, warm)
        simulate(twin, warm)
    res = dispatch(cache, trace, **kwargs)
    assert res.path == expected
    ref_kwargs = {k: v for k, v in kwargs.items() if k != "engine"}
    assert_same_state(res, simulate(twin, trace, **ref_kwargs))
    assert_same_state(cache, twin)


@pytest.mark.parametrize("n", [0, 1, 5000])
@pytest.mark.parametrize("scheme", [ModuloIndexing, XorIndexing])
def test_direct_mapped_kernel_end_state(n, scheme):
    trace = _trace(n=n, seed=n)
    fast_cache = DirectMappedCache(DM, indexing=scheme(DM))
    slow_cache = DirectMappedCache(DM, indexing=scheme(DM))
    fast = dispatch(fast_cache, trace)
    slow = simulate(slow_cache, trace)
    assert fast.path == "fast:direct-mapped"
    assert (fast.accesses, fast.misses, fast.lookup_cycles, fast.extra) == (
        slow.accesses, slow.misses, slow.lookup_cycles, slow.extra
    )
    np.testing.assert_array_equal(fast.slot_accesses, slow.slot_accesses)
    np.testing.assert_array_equal(fast.slot_misses, slow.slot_misses)
    np.testing.assert_array_equal(fast_cache._blocks, slow_cache._blocks)
    assert fast_cache.stats.summary() == slow_cache.stats.summary()


def test_rejects_unknown_engine():
    with pytest.raises(ValueError, match="unknown engine"):
        dispatch(DirectMappedCache(DM), _trace(n=10), engine="turbo")


def _smt(cls=SMTSharedCache):
    return lambda: cls(DM, ThreadSchemeTable([ModuloIndexing(DM), XorIndexing(DM)]))


#: ``(id, cache builder, engine, expected path)`` of ``simulate_partitioned``
#: and ``simulate_smt``.
PARTITIONED = [
    ("static", lambda: StaticPartitionedCache(DM, 2), "auto", "fast:partitioned-static"),
    ("adaptive", lambda: PartitionedAdaptiveCache(DM, 2), "auto",
     "fast:partitioned-adaptive"),
    ("adaptive-forced", lambda: PartitionedAdaptiveCache(DM, 2), "sequential",
     "sequential:forced"),
    ("adaptive-subclass", lambda: _SubPartitioned(DM, 2), "auto", "sequential:no-kernel"),
    ("smt", _smt(), "auto", "fast:smt"),
    ("smt-forced", _smt(), "sequential", "sequential:forced"),
    ("smt-subclass", _smt(_SubSMT), "auto", "sequential:no-kernel"),
]


def _threads_trace(n: int = 1500, seed: int = 7) -> Trace:
    trace = _trace(n, seed)
    thread = np.random.default_rng(seed).integers(0, 2, size=n)
    return Trace(trace.addresses, name=trace.name, thread=thread)


@pytest.mark.parametrize("dirty", [False, True], ids=["cold", "dirty"])
@pytest.mark.parametrize(
    "build, engine, expected", [c[1:] for c in PARTITIONED], ids=[c[0] for c in PARTITIONED]
)
def test_partitioned_paths(build, engine, expected, dirty):
    """``simulate_partitioned`` and ``simulate_smt`` name their paths as
    ``dispatch`` does; a cache with stats already counted replays
    sequentially."""
    cache, twin = build(), build()
    run = simulate_smt if isinstance(cache, SMTSharedCache) else simulate_partitioned
    if dirty:
        warm = _threads_trace(n=400, seed=3)
        run(cache, warm, engine="sequential")
        run(twin, warm, engine="sequential")
        if expected.startswith("fast:"):
            expected = "sequential:warm-state"
    trace = _threads_trace()
    res = run(cache, trace, engine=engine)
    assert res.path == expected
    assert_same_state(res, run(twin, trace, engine="sequential"))
    assert_same_state(cache, twin)


# -- every registered experiment, cold -------------------------------------------


@pytest.fixture(scope="module")
def cold_runs(tmp_path_factory):
    """``eid`` → (``(kind, label, path)`` of each cell run through
    ``execute_cell``, engine stats).  Members of ``assoc`` and ``policy``
    families run inside their family's shared pass instead."""
    runs = {}
    execute = cells.execute_cell
    with pytest.MonkeyPatch.context() as mp:
        seen: list[tuple[str, str, str]] = []

        def recording(cell, *args, **kwargs):
            result = execute(cell, *args, **kwargs)
            seen.append((cell.kind, cell.label, result.path))
            return result

        mp.setattr(cells, "execute_cell", recording)
        for eid in available_experiments():
            config = replace(
                PaperConfig(),
                ref_limit=2000,
                trace_cache_dir=tmp_path_factory.mktemp(eid) / "traces",
            )
            fig04._CACHE.clear()
            fig06._CACHE.clear()
            result = run_experiment(eid, config)
            runs[eid] = (list(seen), result.engine_stats)
            seen.clear()
    fig04._CACHE.clear()
    fig06._CACHE.clear()
    return runs


@pytest.mark.parametrize("eid", available_experiments())
def test_engine_stats_count_every_path(cold_runs, eid):
    ran, stats = cold_runs[eid]
    counted = stats["paths"]
    assert all(path for *_, path in ran)
    assert sum(counted.values()) == stats["cache_misses"]
    assert counted.keys() >= {path for *_, path in ran}


def test_only_cells_without_a_kernel_fall_back(cold_runs):
    """No cell lacks a kernel any more, so no cell falls back."""
    fallbacks = {
        (kind, label, path)
        for ran, _ in cold_runs.values()
        for kind, label, path in ran
        if path.startswith("sequential:")
    }
    assert fallbacks == set()


#: The cells whose models had no kernel before theirs landed, and the SMT
#: cells, which took theirs unnamed, each with the path it now takes.
KERNEL_CELLS = {
    ("smt", "modulo"): "fast:smt",
    ("smt", "odd_multiplier"): "fast:smt",
    ("bounds", "Belady"): "fast:belady",
    ("bounds", "Skewed2"): "fast:skewed",
    ("dynamic", "xor+odd_multiplier+prime_modulo"): "fast:dynamic",
    ("partitioned", "static"): "fast:partitioned-static",
    ("partitioned", "adaptive"): "fast:partitioned-adaptive",
}


def test_cells_take_their_kernels(cold_runs):
    taken = {
        (kind, label, path)
        for ran, _ in cold_runs.values()
        for kind, label, path in ran
        if (kind, label) in KERNEL_CELLS
    }
    assert taken == {(*cell, path) for cell, path in KERNEL_CELLS.items()}


@pytest.mark.parametrize(
    "engine, path", [("auto", "fast:policy"), ("sequential", "sequential:forced")]
)
def test_unbatched_policy_cells_name_their_path(tmp_path, engine, path):
    """A policysweep cell outside a family (the only cell of its workload)
    builds its cache and hands it to ``dispatch``, so every one carries the
    path that cache took."""
    config = replace(
        PaperConfig(), ref_limit=2000, trace_cache_dir=tmp_path / "traces", engine=engine
    )
    cells = [
        make_cell("policysweep", w, f"xor:{p}", config)
        for w, p in zip(MIBENCH_ORDER, ("fifo", "plru", "mru", "lfu", "random", "lru"))
    ]
    _, stats = run_cells(cells, config, jobs=1)
    assert stats.cache_misses == len(cells)
    assert stats.cells_batched == 0
    assert stats.paths == {path: len(cells)}


#: One cell of every kind.
ONE_OF_EACH_KIND = [
    ("baseline", "crc", "baseline"),
    ("indexing", "crc", "Givargis"),
    ("progassoc", "crc", "B_Cache"),
    ("colassoc", "crc", "ColAssoc_XOR"),
    ("setassoc", "crc", "FullAssoc"),
    ("assocsweep", "crc", "4way"),
    ("bounds", "crc", "Victim8"),
    ("policysweep", "crc", "xor:plru"),
    ("auxsweep", "crc", "modulo:vc+sb4"),
    ("smt", "smt:crc+fft", "odd_multiplier"),
    ("partitioned", "smt:crc+fft", "adaptive"),
    ("threec", "crc", "direct_mapped"),
    ("dynamic", "phase:crc+fft", "xor+prime_modulo"),
]


def test_every_simulated_cell_names_its_path(tmp_path):
    config = replace(PaperConfig(), ref_limit=2000, trace_cache_dir=tmp_path / "traces")
    assert {kind for kind, *_ in ONE_OF_EACH_KIND} == set(cells.CELL_KINDS)
    grid = [make_cell(kind, w, label, config) for kind, w, label in ONE_OF_EACH_KIND]
    _, stats = run_cells(grid, config, jobs=1)
    assert stats.cache_misses == len(grid)
    assert sum(stats.paths.values()) == stats.cache_misses
    assert not any(path.startswith("sequential:") for path in stats.paths)
