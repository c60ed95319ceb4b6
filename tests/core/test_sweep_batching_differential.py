"""LRU sweeps: the differential harness's sweep rows under the
sweep-batching suite's test names, the sweep checks that are not row
comparisons, and the engine's batched cell grids against per-cell
sequential runs.

The rows, the trace zoo and the independent LRU model live in
``test_differential.py``; each test here takes its rows with ``groups``.
Any new batching axis added to the engine must extend
``TestEngineBatchedVsPerCell`` (DESIGN.md, "Differential-testing
contract").
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import fastsim
from repro.core.decompose import decode
from repro.core.fastsim import direct_mapped_miss_flags, lru_miss_flags, lru_sweep_miss_flags
from repro.core.indexing import ModuloIndexing, XorIndexing
from repro.core.simulator import simulate_indexing, simulate_lru_sweep, simulate_set_associative
from repro.experiments import PaperConfig
from repro.experiments.engine import EngineStats, make_cell, run_cells
from differential_support import assert_same_state
from test_differential import GEOMETRIES, SMALL, groups, run_rows, zoo


def arrays(label: str = "modulo", trace: str = "hot"):
    index = {"modulo": ModuloIndexing, "xor": XorIndexing}[label]
    return decode(index(SMALL), zoo(SMALL, trace), SMALL)


class TestSweepFlagsVsSingleWays:
    @groups("lru_sweep_miss_flags", {g: g for g in GEOMETRIES})
    def test_all_schemes_all_traces(self, rows):
        run_rows(rows)

    def test_duplicate_ways_deduplicated(self):
        blocks, indices = arrays()
        flags = lru_sweep_miss_flags(blocks, indices, [4, 2, 4, 2])
        assert sorted(flags) == [2, 4]
        np.testing.assert_array_equal(flags[2], lru_miss_flags(blocks, indices, 2))

    def test_empty_ways_list(self):
        assert lru_sweep_miss_flags(*arrays(), []) == {}

    def test_rejects_bad_ways(self):
        with pytest.raises(ValueError):
            lru_sweep_miss_flags(np.array([1]), np.array([0]), [2, 0])

    def test_direct_mapped_request_skips_the_distance_pass(self, monkeypatch):
        """A sweep whose every member is 1-way is answered by the
        direct-mapped kernel (``distance != 0`` is its outcome), without
        the stack-distance pass."""
        blocks, indices = arrays("xor", "random")
        expected = direct_mapped_miss_flags(blocks, indices)

        def refuse(*args):
            raise AssertionError("stack-distance pass for a direct-mapped sweep")

        monkeypatch.setattr(fastsim, "lru_stack_distances", refuse)
        flags = lru_sweep_miss_flags(blocks, indices, [1, 1])
        assert list(flags) == [1]
        np.testing.assert_array_equal(flags[1], expected)
        np.testing.assert_array_equal(lru_miss_flags(blocks, indices, 1), expected)


class TestSweepVsPerCellSimulators:
    @groups("simulate_lru_sweep", {g: f"{g}/setassoc" for g in GEOMETRIES})
    def test_setassoc_members_all_schemes_all_traces(self, rows):
        run_rows(rows)

    @groups("simulate_lru_sweep", {g: f"{g}/direct" for g in GEOMETRIES})
    def test_direct_members_all_schemes(self, rows):
        run_rows(rows)

    def test_mixed_direct_and_setassoc_sweep(self):
        """The ext-assoc shape: one direct baseline + a k-way ladder."""
        trace = zoo(SMALL, "hot")
        scheme = ModuloIndexing(SMALL)
        specs = [(1, "direct"), (2, "setassoc"), (4, "setassoc"), (8, "setassoc")]
        batched = simulate_lru_sweep(scheme, trace, SMALL, specs)
        assert_same_state(batched[0], simulate_indexing(scheme, trace, SMALL), "direct member")
        for (ways, _), got in zip(specs[1:], batched[1:]):
            g = SMALL.with_fixed_sets(ways)
            want = simulate_set_associative(scheme, trace, g, ways=ways)
            assert_same_state(got, want, f"{ways}way member")
        # Monotonicity sanity: more ways at fixed sets never adds misses.
        misses = [r.misses for r in batched]
        assert misses == sorted(misses, reverse=True)

    def test_results_in_spec_order(self):
        scheme = XorIndexing(SMALL)
        specs = [(8, "setassoc"), (1, "setassoc"), (2, "setassoc")]
        results = simulate_lru_sweep(scheme, zoo(SMALL, "hot"), SMALL, specs)
        assert [r.model for r in results] == [
            f"set_associative[{scheme.name},{w}way]" for w, _ in specs
        ]

    def test_rejects_direct_with_many_ways(self):
        with pytest.raises(ValueError, match="direct"):
            simulate_lru_sweep(ModuloIndexing(SMALL), zoo(SMALL, "single"), SMALL, [(2, "direct")])

    def test_rejects_unknown_style(self):
        with pytest.raises(ValueError, match="style"):
            simulate_lru_sweep(ModuloIndexing(SMALL), zoo(SMALL, "single"), SMALL, [(2, "plru")])

    def test_rejects_nonpositive_ways(self):
        with pytest.raises(ValueError):
            simulate_lru_sweep(
                ModuloIndexing(SMALL), zoo(SMALL, "single"), SMALL, [(0, "setassoc")]
            )


# -- engine: batched cell grids ≡ per-cell sequential reference --------------------

REFS = 3000


@pytest.fixture
def engine_config(tmp_path) -> PaperConfig:
    return replace(
        PaperConfig(),
        ref_limit=REFS,
        workload_scale=0.05,
        trace_cache_dir=tmp_path / "traces",
        use_result_cache=False,
    )


def grid(kind_labels, benches, config):
    """Cells in figure declaration order: baseline-ish cell first per bench."""
    return [
        make_cell(kind, bench, label, config)
        for bench in benches
        for kind, label in kind_labels
    ]


#: (figure id, cell shape) — trimmed to two benches each to stay tier-1 fast,
#: but preserving every kind/label mix the real figures declare.
FIGURE_SHAPES = {
    "fig4": [
        ("baseline", "baseline"),
        ("indexing", "XOR"),
        ("indexing", "Odd_Multiplier"),
        ("indexing", "Prime_Modulo"),
        ("indexing", "Givargis"),
        ("indexing", "Givargis_Xor"),
    ],
    "fig6_7": [
        ("baseline", "baseline"),
        ("progassoc", "Adaptive_Cache"),
        ("progassoc", "B_Cache"),
        ("progassoc", "Column_associative"),
    ],
    "fig8": [
        ("colassoc", "ColAssoc_Base"),
        ("colassoc", "ColAssoc_XOR"),
        ("colassoc", "ColAssoc_Odd_Multiplier"),
        ("colassoc", "ColAssoc_Prime_Modulo"),
    ],
    "ext_assoc": [
        ("baseline", "baseline"),
        ("assocsweep", "2way"),
        ("assocsweep", "4way"),
        ("assocsweep", "8way"),
        ("assocsweep", "16way"),
    ],
}


def run_alone(cells, config):
    """Each cell in its own ``run_cells`` call: one unit per run."""
    results, stats = {}, EngineStats()
    for cell in cells:
        result, cell_stats = run_cells([cell], config, jobs=1)
        results.update(result)
        stats.merge(cell_stats)
    return results, stats


class TestEngineBatchedVsPerCell:
    def _run_both(self, shape, benches, engine_config, jobs=1):
        batched_cfg = replace(engine_config, engine="auto")
        percell_cfg = replace(engine_config, engine="sequential")
        batched, bstats = run_cells(
            grid(shape, benches, batched_cfg), batched_cfg, jobs=jobs
        )
        percell, pstats = run_alone(grid(shape, benches, percell_cfg), percell_cfg)
        assert list(batched) == list(percell)
        for key in batched:
            assert_same_state(batched[key], percell[key], str(key))
        return bstats, pstats

    @pytest.mark.parametrize("fig", ["fig4", "fig6_7", "fig8"])
    def test_figure_families_bit_identical(self, fig, engine_config):
        bstats, pstats = self._run_both(
            FIGURE_SHAPES[fig], ("crc", "fft"), engine_config
        )
        # These figures batch on the decode axis: every cell travels in a family.
        assert bstats.cells_batched == bstats.cells_total
        assert bstats.families_batched == 2  # one family per bench
        assert pstats.cells_batched == 0 and pstats.families_batched == 0

    def test_figure_families_bit_identical_on_pool(self, engine_config):
        """jobs=2 ships each bench's decode family as one pool task."""
        bstats, _ = self._run_both(
            FIGURE_SHAPES["fig4"], ("crc", "fft"), engine_config, jobs=2
        )
        assert bstats.cells_batched == bstats.cells_total
        assert bstats.families_batched == 2

    def test_mattson_family_bit_identical(self, engine_config):
        """The ext-assoc shape: baseline + assocsweep ladder is one shared
        stack-distance pass under auto, per-cell under sequential."""
        bstats, _ = self._run_both(
            FIGURE_SHAPES["ext_assoc"], ("crc",), engine_config
        )
        assert bstats.families_batched == 1
        assert bstats.cells_batched == len(FIGURE_SHAPES["ext_assoc"])

    def test_mattson_family_bit_identical_on_pool(self, engine_config):
        """jobs=2 exercises the process-pool family path."""
        self._run_both(FIGURE_SHAPES["ext_assoc"], ("crc", "fft"), engine_config, jobs=2)

    def test_sequential_engine_disables_mattson_axis_only(self, engine_config):
        """engine="sequential" keeps decode families (exact by construction)
        but never routes cells into a shared kernel pass."""
        cfg = replace(engine_config, engine="sequential")
        cells = grid(FIGURE_SHAPES["ext_assoc"], ("crc",), cfg)
        results, stats = run_cells(cells, cfg, jobs=1)
        assert stats.families_batched == 1 and stats.cells_batched == len(cells)
        reference, _ = run_alone(cells, cfg)
        for key in results:
            assert_same_state(results[key], reference[key], str(key))
