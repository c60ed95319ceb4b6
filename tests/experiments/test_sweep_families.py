"""Sweep-family detection and failure-attribution tests.

Two contracts from the sweep-batching PR:

* **Partition** — :func:`~repro.experiments.engine.families.detect_families`
  is a total partition of the (deduplicated) planned cell list: every cell
  lands in exactly one family, no family mixes workloads (hence traces),
  ``assoc`` and ``policy`` families share one :meth:`~.cells.CellKind.batch`
  signature, ``assoc`` ones are all-LRU, and a cell alone on its workload
  is a singleton.
  Locked with a Hypothesis property over arbitrary cell grids.

* **Failure attribution** — a member failing mid-family surfaces as
  :class:`~repro.experiments.CellExecutionError` naming the *specific*
  cell (with a chained cause), and members that completed before the
  failure keep their result-cache entries, so a retry resumes warm.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import CellExecutionError, PaperConfig
from repro.experiments.engine import (
    CELL_KINDS,
    ResultCache,
    SimCell,
    detect_families,
    make_cell,
    plan_cells,
    run_cells,
)

BASE_CONFIG = PaperConfig()

#: Valid (kind, label) combinations spanning every cell kind the engine knows.
CELL_SHAPES = [
    ("baseline", "baseline"),
    ("indexing", "XOR"),
    ("indexing", "Odd_Multiplier"),
    ("indexing", "Prime_Modulo"),
    ("indexing", "Givargis"),
    ("indexing", "Givargis_Xor"),
    ("indexing", "Patel_train"),
    ("indexing", "Patel_transfer"),
    ("progassoc", "Adaptive_Cache"),
    ("progassoc", "Adaptive_Cache:xor"),
    ("progassoc", "Adaptive_Cache:odd_multiplier"),
    ("progassoc", "B_Cache"),
    ("progassoc", "Column_associative"),
    ("colassoc", "ColAssoc_Base"),
    ("colassoc", "ColAssoc_XOR"),
    ("setassoc", "2way"),
    ("setassoc", "4way"),
    ("bounds", "8way"),
    ("bounds", "FullAssoc"),
    ("bounds", "Belady"),
    ("bounds", "Victim8"),
    ("bounds", "Skewed2"),
    ("bounds", "Adaptive"),
    ("bounds", "B_Cache"),
    ("bounds", "ColAssoc"),
    ("assocsweep", "2way"),
    ("assocsweep", "4way"),
    ("assocsweep", "8way"),
    ("assocsweep", "16way"),
    ("policysweep", "modulo:lru"),
    ("policysweep", "modulo:fifo"),
    ("policysweep", "modulo:plru"),
    ("policysweep", "modulo:random"),
    ("policysweep", "xor:mru"),
    ("policysweep", "xor:lfu"),
    ("auxsweep", "modulo:vc4"),
    ("auxsweep", "modulo:sb4"),
    ("auxsweep", "xor:mc2"),
    ("auxsweep", "odd_multiplier:vc+sb8"),
    ("smt", "modulo"),
    ("smt", "odd_multiplier"),
    ("partitioned", "static"),
    ("partitioned", "adaptive"),
    ("threec", "direct_mapped"),
    ("dynamic", "xor+odd_multiplier+prime_modulo"),
    ("dynamic", "modulo+xor"),
]

WORKLOADS = ["crc", "fft", "sha", "qsort"]

cell_strategy = st.builds(
    lambda shape, workload: make_cell(shape[0], workload, shape[1], BASE_CONFIG),
    st.sampled_from(CELL_SHAPES),
    st.sampled_from(WORKLOADS),
)

grid_strategy = st.lists(cell_strategy, min_size=0, max_size=30)

config_strategy = st.builds(
    lambda engine: replace(BASE_CONFIG, engine=engine),
    st.sampled_from(["auto", "sequential"]),
)


class TestPartitionProperty:
    def test_shapes_cover_every_kind(self):
        assert {kind for kind, _ in CELL_SHAPES} == set(CELL_KINDS)

    @settings(max_examples=120, deadline=None)
    @given(cells=grid_strategy, config=config_strategy)
    def test_families_partition_the_cell_list(self, cells, config):
        families = detect_families(cells, config)
        unique = list(dict.fromkeys(cells))
        # Exactly-once coverage: the family members, flattened, are a
        # permutation of the deduplicated input with no repeats.
        flattened = [c for fam in families for c in fam.members]
        assert len(flattened) == len(unique)
        assert set(flattened) == set(unique)
        for fam in families:
            assert fam.members, "no empty families"
            # Never mixes traces: one workload per family.
            assert {c.workload for c in fam.members} == {fam.workload}
            if fam.axis == "single":
                assert len(fam.members) == 1
            else:
                assert len(fam.members) >= 2
            batches = [CELL_KINDS[c.kind].batch(c, config) for c in fam.members]
            if fam.axis in ("assoc", "policy"):
                # One shared signature on the family's axis.
                assert {b[:2] for b in batches} == {(fam.axis, fam.signature)}
            if fam.axis == "assoc":
                # The Mattson axis is LRU only.
                assert all(c.policy == "lru" for c in fam.members)
            elif fam.axis == "policy":
                # Members differ *only* in policy — each policy at most once
                # (duplicates would be identical cells, deduplicated upstream).
                policies = [c.policy for c in fam.members]
                assert len(set(policies)) == len(policies)
            else:
                assert fam.signature is None

    @settings(max_examples=60, deadline=None)
    @given(cells=grid_strategy)
    def test_lone_cells_are_singletons(self, cells):
        """A cell with no other cell of its workload runs alone."""
        lone = list({c.workload: c for c in cells}.values())
        families = detect_families(lone, BASE_CONFIG)
        assert all(f.axis == "single" and len(f.members) == 1 for f in families)
        assert [f.members[0] for f in families] == lone

    @settings(max_examples=60, deadline=None)
    @given(cells=grid_strategy)
    def test_sequential_engine_never_forms_assoc_or_policy_families(self, cells):
        config = replace(BASE_CONFIG, engine="sequential")
        families = detect_families(cells, config)
        assert all(f.axis in ("decode", "single") for f in families)


#: The (kind, label) grid of the end-to-end benchmark's kernel-grid workload.
GRID_LABELS = (
    [("baseline", "baseline")]
    + [("indexing", s) for s in ("XOR", "Odd_Multiplier", "Prime_Modulo", "Givargis")]
    + [("progassoc", "B_Cache"), ("progassoc", "Column_associative")]
    + [("colassoc", "ColAssoc_XOR"), ("colassoc", "ColAssoc_Prime_Modulo")]
    + [("assocsweep", f"{k}way") for k in (1, 2, 4, 8, 16)]
    + [("policysweep", f"xor:{p}") for p in ("lru", "fifo", "plru", "mru", "lfu", "random")]
    + [("auxsweep", f"modulo:{c}4") for c in ("vc", "mc", "sb", "vc+sb")]
)


class TestDetectionShapes:
    def test_grid_partition_pinned(self):
        """The kernel grid splits into exactly these families."""
        cells = [make_cell(kind, "crc", label, BASE_CONFIG) for kind, label in GRID_LABELS]
        partition = sorted(
            (f.axis, tuple(c.label for c in f.members))
            for f in detect_families(cells, BASE_CONFIG)
        )
        assert partition == [
            ("assoc", ("baseline", "1way", "2way", "4way", "8way", "16way")),
            (
                "decode",
                (
                    "XOR", "Odd_Multiplier", "Prime_Modulo", "Givargis",
                    "B_Cache", "Column_associative",
                    "ColAssoc_XOR", "ColAssoc_Prime_Modulo",
                    "modulo:vc4", "modulo:mc4", "modulo:sb4", "modulo:vc+sb4",
                ),
            ),
            ("policy", ("xor:lru", "xor:fifo", "xor:plru", "xor:mru", "xor:lfu", "xor:random")),
        ]

    def test_fixed_sets_ladder_is_one_assoc_family(self):
        """The ext-assoc grid: baseline + assocsweep cells share one
        modulo mapping, hence one stack-distance pass."""
        cells = [make_cell("baseline", "crc", "baseline", BASE_CONFIG)] + [
            make_cell("assocsweep", "crc", lab, BASE_CONFIG)
            for lab in ("2way", "4way", "8way")
        ]
        (fam,) = detect_families(cells, BASE_CONFIG)
        assert fam.axis == "assoc" and len(fam.members) == 4
        assert fam.name == "crc/[baseline+2way+4way+8way]"

    def test_capacity_fixed_kway_cells_never_share_a_pass(self):
        """ext-bounds' k-way columns hold capacity fixed (``with_ways``), so
        their set mappings differ — they may share a decode, never a kernel."""
        cells = [
            make_cell("bounds", "crc", lab, BASE_CONFIG) for lab in ("2way", "4way")
        ]
        (fam,) = detect_families(cells, BASE_CONFIG)
        assert fam.axis == "decode"

    def test_workloads_are_never_mixed(self):
        cells = [
            make_cell("assocsweep", w, lab, BASE_CONFIG)
            for w in ("crc", "fft")
            for lab in ("2way", "4way")
        ]
        fams = detect_families(cells, BASE_CONFIG)
        assert sorted((f.axis, f.workload) for f in fams) == [
            ("assoc", "crc"),
            ("assoc", "fft"),
        ]

    def test_policy_ladder_is_one_policy_family(self):
        """The ext-policy grid: same scheme, every policy — one
        set-decomposition pass."""
        cells = [
            make_cell("policysweep", "crc", f"modulo:{p}", BASE_CONFIG)
            for p in ("lru", "fifo", "plru", "mru", "lfu", "random")
        ]
        (fam,) = detect_families(cells, BASE_CONFIG)
        assert fam.axis == "policy" and len(fam.members) == 6

    def test_policy_families_never_mix_schemes(self):
        cells = [
            make_cell("policysweep", "crc", f"{scheme}:{p}", BASE_CONFIG)
            for scheme in ("modulo", "xor")
            for p in ("lru", "fifo")
        ]
        fams = detect_families(cells, BASE_CONFIG)
        assert len(fams) == 2
        assert all(f.axis == "policy" and len(f.members) == 2 for f in fams)
        assert len({f.signature for f in fams}) == 2

    def test_lone_policy_cell_rides_the_decode_axis(self):
        cells = [
            make_cell("policysweep", "crc", "modulo:fifo", BASE_CONFIG),
            make_cell("indexing", "crc", "XOR", BASE_CONFIG),
        ]
        (fam,) = detect_families(cells, BASE_CONFIG)
        assert fam.axis == "decode"

    def test_non_kernel_cells_ride_the_decode_axis(self):
        cells = [
            make_cell("progassoc", "crc", "B_Cache", BASE_CONFIG),
            make_cell("colassoc", "crc", "ColAssoc_Base", BASE_CONFIG),
        ]
        (fam,) = detect_families(cells, BASE_CONFIG)
        assert fam.axis == "decode" and fam.signature is None

    def test_aux_cells_join_the_decode_axis(self):
        """The ext-aux grid shape: baseline + aux compositions + colassoc
        of one workload share a trace open and nothing more (each aux cell
        is already its own exact miss-event replay)."""
        cells = [
            make_cell("baseline", "crc", "baseline", BASE_CONFIG),
            make_cell("auxsweep", "crc", "modulo:vc4", BASE_CONFIG),
            make_cell("auxsweep", "crc", "modulo:mc+sb4", BASE_CONFIG),
            make_cell("colassoc", "crc", "ColAssoc_Base", BASE_CONFIG),
        ]
        (fam,) = detect_families(cells, BASE_CONFIG)
        assert fam.axis == "decode" and fam.signature is None
        assert len(fam.members) == 4

    def test_aux_cells_never_mix_workloads(self):
        cells = [
            make_cell("auxsweep", w, "modulo:vc4", BASE_CONFIG)
            for w in ("crc", "fft", "sha")
        ]
        fams = detect_families(cells, BASE_CONFIG)
        assert sorted(f.workload for f in fams) == ["crc", "fft", "sha"]
        assert all({c.workload for c in f.members} == {f.workload} for f in fams)

    def test_aux_cells_never_join_kernel_families(self):
        """An aux cell next to a Mattson ladder stays off the assoc pass —
        its composed hierarchy has no stack-distance shortcut."""
        cells = [
            make_cell("assocsweep", "crc", lab, BASE_CONFIG)
            for lab in ("2way", "4way")
        ] + [make_cell("auxsweep", "crc", "modulo:vc4", BASE_CONFIG)]
        fams = detect_families(cells, BASE_CONFIG)
        axes = sorted(f.axis for f in fams)
        assert axes == ["assoc", "single"]
        (aux_fam,) = [f for f in fams if f.axis == "single"]
        assert aux_fam.members[0].kind == "auxsweep"


REFS = 3000


@pytest.fixture
def config(tmp_path) -> PaperConfig:
    return replace(
        PaperConfig(),
        ref_limit=REFS,
        workload_scale=0.05,
        trace_cache_dir=tmp_path / "traces",
    )


class TestMidBatchFailure:
    def _grid_with_bad_tail(self, config):
        good = [
            make_cell("baseline", "crc", "baseline", config),
            make_cell("indexing", "crc", "XOR", config),
        ]
        bad = SimCell(kind="progassoc", workload="crc", label="Nonexistent_Model")
        return good, bad

    def test_failure_names_cell_and_keeps_completed_entries(self, config):
        good, bad = self._grid_with_bad_tail(config)
        cache = ResultCache(config.result_cache_path)
        with pytest.raises(CellExecutionError) as exc:
            run_cells(good + [bad], config, jobs=1, result_cache=cache)
        assert "(crc, Nonexistent_Model)" in str(exc.value)
        assert exc.value.__cause__ is not None
        # The two members that completed before the failure must have been
        # persisted under their unchanged per-cell keys...
        plan = plan_cells(good, config, jobs=1)
        for cell in good:
            assert cache.load(plan.keys[cell]) is not None, cell.label
        # ...so a retry of the good cells resumes fully warm.
        _, stats = run_cells(good, config, jobs=1, result_cache=cache)
        assert (stats.cache_hits, stats.cache_misses) == (2, 0)

    def test_failure_on_the_pool_path(self, config):
        good, bad = self._grid_with_bad_tail(config)
        cache = ResultCache(config.result_cache_path)
        # Two units (a crc decode family + a lone fft cell) + jobs=2 →
        # the ProcessPoolExecutor path; the bad label explodes in a worker.
        cells = good + [bad, make_cell("baseline", "fft", "baseline", config)]
        with pytest.raises(CellExecutionError) as exc:
            run_cells(cells, config, jobs=2, result_cache=cache)
        assert "(crc, Nonexistent_Model)" in str(exc.value)
        assert exc.value.__cause__ is not None
        plan = plan_cells(good, config, jobs=1)
        for cell in good:
            assert cache.load(plan.keys[cell]) is not None, cell.label

    def test_assoc_family_failure_attributed_to_first_member(self, config, monkeypatch):
        cells = [make_cell("assocsweep", "crc", lab, config) for lab in ("2way", "4way")]
        monkeypatch.setattr(
            "repro.core.simulator.simulate_lru_sweep",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("kernel exploded")),
        )
        with pytest.raises(CellExecutionError) as exc:
            run_cells(cells, config, jobs=1)
        assert "(crc, 2way)" in str(exc.value)
        assert "kernel exploded" in str(exc.value)
        assert exc.value.__cause__ is not None

    def test_policy_family_failure_attributed_to_first_member(self, config, monkeypatch):
        cells = [
            make_cell("policysweep", "crc", f"modulo:{p}", config)
            for p in ("lru", "fifo", "plru")
        ]
        monkeypatch.setattr(
            "repro.core.fastpolicy.simulate_policy_sweep",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("policy kernel exploded")),
        )
        with pytest.raises(CellExecutionError) as exc:
            run_cells(cells, config, jobs=1)
        assert "(crc, modulo:lru)" in str(exc.value)
        assert "policy kernel exploded" in str(exc.value)
        assert exc.value.__cause__ is not None

    def test_aux_family_failure_names_the_aux_cell(self, config):
        """A bad auxsweep member of a decode family (label validation is
        normally caught at make_cell time, so build one directly) surfaces
        as a CellExecutionError naming that cell, and the good members
        keep their cache entries."""
        good = [
            make_cell("baseline", "crc", "baseline", config),
            make_cell("auxsweep", "crc", "modulo:vc4", config),
        ]
        bad = SimCell(kind="auxsweep", workload="crc", label="modulo:zz4")
        cache = ResultCache(config.result_cache_path)
        with pytest.raises(CellExecutionError) as exc:
            run_cells(good + [bad], config, jobs=1, result_cache=cache)
        assert "(crc, modulo:zz4)" in str(exc.value)
        assert exc.value.__cause__ is not None
        plan = plan_cells(good, config, jobs=1)
        for cell in good:
            assert cache.load(plan.keys[cell]) is not None, cell.label
        _, stats = run_cells(good, config, jobs=1, result_cache=cache)
        assert (stats.cache_hits, stats.cache_misses) == (2, 0)

    def test_policy_family_completes_without_batching_too(self, config):
        """The same grid answered by each cell run alone: identical results
        (the parity half lives in the differential suite; here the engine
        must simply agree on the counters)."""
        cells = [
            make_cell("policysweep", "crc", f"modulo:{p}", config)
            for p in ("lru", "fifo", "plru")
        ]
        batched, bstats = run_cells(cells, config, jobs=1)
        uncached = replace(config, use_result_cache=False)
        assert bstats.cells_batched == 3
        for cell in cells:
            (alone,) = run_cells([cell], uncached, jobs=1)[0].values()
            res = batched[(cell.workload, cell.label)]
            assert res.misses == alone.misses, cell.label
            assert res.hits == alone.hits, cell.label
