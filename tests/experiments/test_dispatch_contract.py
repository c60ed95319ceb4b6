"""The fast-path dispatch contract: every result names its path.

:func:`repro.core.dispatch.dispatch` picks an exact kernel or the
per-access reference loop for a cache object and stamps the result's
``path``.  Two layers are pinned here:

* the registry: a table of acceptance and refusal cases, one path each,
  covering every :data:`~repro.core.dispatch.KERNELS` entry; each case's
  result and end state also equal ``simulate`` on a twin cache (the
  differential harness's comparer);
* the experiments: run cold, no engine cell falls back to the reference
  loop for any reason but ``sequential:no-kernel``, exactly the cells
  without a kernel (skewed, Belady, dynamic indexing) report it, and
  ``engine_stats["paths"]`` counts every stamped cell.
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
from repro.core.simulator import simulate
from repro.experiments import PaperConfig, available_experiments, run_experiment
from repro.experiments import fig04_indexing_missrate as fig04
from repro.experiments import fig06_progassoc_missrate as fig06
from repro.experiments.engine import cells
from repro.trace import Trace
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
    ("skewed", lambda: SkewedAssociativeCache(DM, ways=2), {}, False,
     "sequential:no-kernel"),
    (
        "dynamic",
        lambda: DynamicIndexCache(DM, [ModuloIndexing(DM), XorIndexing(DM)]),
        {},
        False,
        "sequential:no-kernel",
    ),
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
        warm = _trace(n=400, seed=3)
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


# -- every registered experiment, cold -------------------------------------------

#: The cells with no kernel: they run the reference loop by design.
NO_KERNEL = {
    ("bounds", "Belady"),
    ("bounds", "Skewed2"),
    ("dynamic", "xor+odd_multiplier+prime_modulo"),
}


@pytest.fixture(scope="module")
def cold_runs(tmp_path_factory):
    """``eid`` → (``(kind, label, path)`` of each cell run, counted paths)."""
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
            runs[eid] = (list(seen), result.engine_stats["paths"])
            seen.clear()
    fig04._CACHE.clear()
    fig06._CACHE.clear()
    return runs


@pytest.mark.parametrize("eid", available_experiments())
def test_engine_stats_count_every_path(cold_runs, eid):
    ran, counted = cold_runs[eid]
    stamped = [path for *_, path in ran if path]
    assert sum(counted.values()) == len(stamped)
    assert counted.keys() == set(stamped)


def test_only_cells_without_a_kernel_fall_back(cold_runs):
    fallbacks = {
        (kind, label, path)
        for ran, _ in cold_runs.values()
        for kind, label, path in ran
        if path.startswith("sequential:")
    }
    assert fallbacks == {(kind, label, "sequential:no-kernel") for kind, label in NO_KERNEL}


@pytest.mark.parametrize(
    "engine, path", [("auto", "fast:policy"), ("sequential", "sequential:forced")]
)
def test_unbatched_policy_cells_name_their_path(tmp_path, engine, path):
    """A policysweep cell outside a family builds its cache and hands it to
    ``dispatch``, so every one carries the path that cache took."""
    config = replace(
        PaperConfig(),
        ref_limit=2000,
        trace_cache_dir=tmp_path / "traces",
        batch_sweeps=False,
        engine=engine,
    )
    stats = run_experiment("ext-policy", config).engine_stats
    assert stats["cache_misses"] == stats["cells_total"] > 0
    assert stats["cells_batched"] == 0
    assert stats["paths"] == {path: stats["cells_total"]}
