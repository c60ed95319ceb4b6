"""Differential tests: sweep batching ≡ per-cell execution, bit for bit.

The sweep-batching PR promises that answering a whole cell family from one
pass changes *nothing* observable: not a model string, not a per-set
histogram, not an ``extra`` hit-class dict.  Three layers are pinned, in
the same style as ``test_fastsim_lru_differential.py``:

* :func:`repro.core.fastsim.lru_sweep_miss_flags` against repeated
  single-``ways`` :func:`~repro.core.fastsim.lru_miss_flags` calls, for
  every registered indexing scheme and the adversarial trace zoo;
* :func:`repro.core.simulator.simulate_lru_sweep` against the per-cell
  entry points it impersonates — :func:`~repro.core.simulator.simulate_indexing`
  for ``style="direct"`` members and
  :func:`~repro.core.simulator.simulate_set_associative` for
  ``style="setassoc"`` members over fixed-sets geometries — full
  :class:`~repro.core.simulator.SimulationResult` equality including
  per-set counts;
* the engine: fig 4/6/7/8-shaped and ext-assoc-shaped cell grids run
  batched (``engine="auto"``, ``batch_sweeps=True``, the decode and
  Mattson axes) against per-cell ``engine="sequential"`` reference
  execution with batching disabled — every cell's stored result identical.

Any new batching axis added to the engine must extend this suite
(DESIGN.md, "Differential-testing contract").
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.address import CacheGeometry
from repro.core import fastsim
from repro.core.fastsim import (
    direct_mapped_miss_flags,
    lru_miss_flags,
    lru_sweep_miss_flags,
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
from repro.core.simulator import (
    simulate_indexing,
    simulate_lru_sweep,
    simulate_set_associative,
)
from repro.experiments import PaperConfig
from repro.experiments.engine import make_cell, run_cells
from repro.trace import Trace

TINY = CacheGeometry(capacity_bytes=128, line_bytes=16, ways=1, address_bits=16)
SMALL = CacheGeometry(capacity_bytes=1024, line_bytes=16, ways=1)

SWEEP_WAYS = [1, 2, 3, 4, 8, 16]


# -- trace zoo (mirrors the LRU differential suite) --------------------------------


def random_trace(geometry: CacheGeometry, n: int = 4000, seed: int = 7) -> Trace:
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, 1 << geometry.address_bits, size=n, dtype=np.uint64)
    return Trace(addrs, name="random")


def all_one_set_trace(geometry: CacheGeometry, n: int = 512) -> Trace:
    stride = np.uint64(geometry.num_sets * geometry.line_bytes)
    base = np.uint64(3 * geometry.line_bytes)
    idx = np.arange(n, dtype=np.uint64)
    addrs = (base + idx * stride) % np.uint64(1 << geometry.address_bits)
    return Trace(addrs, name="one_set")


def cyclic_set_trace(geometry: CacheGeometry, period: int, n: int = 900) -> Trace:
    stride = np.uint64(geometry.num_sets * geometry.line_bytes)
    base = np.uint64(5 * geometry.line_bytes)
    idx = (np.arange(n) % period).astype(np.uint64)
    addrs = (base + idx * stride) % np.uint64(1 << geometry.address_bits)
    return Trace(addrs, name=f"cycle{period}")


def trace_zoo(geometry: CacheGeometry) -> list[Trace]:
    return [
        random_trace(geometry),
        all_one_set_trace(geometry),
        cyclic_set_trace(geometry, 3),
        cyclic_set_trace(geometry, 9),
        Trace(np.empty(0, dtype=np.uint64), name="empty"),
        Trace(np.array([7 * geometry.line_bytes], dtype=np.uint64), name="single"),
    ]


def scheme_lineup(geometry: CacheGeometry, fit_trace: Trace) -> list:
    """One instance of every registered scheme, trainables fitted."""
    fit_addrs = fit_trace.addresses
    bit_positions = tuple(
        range(geometry.offset_bits, geometry.offset_bits + geometry.index_bits)
    )[::-1]
    factories = [
        lambda: ModuloIndexing(geometry),
        lambda: XorIndexing(geometry),
        lambda: OddMultiplierIndexing(geometry, 9),
        lambda: PrimeModuloIndexing(geometry),
        lambda: BitSelectIndexing(geometry, bit_positions),
        lambda: GivargisIndexing(geometry).fit(fit_addrs),
        lambda: GivargisXorIndexing(geometry).fit(fit_addrs),
        lambda: PatelIndexing(geometry, max_swap_moves=4).fit(fit_addrs),
    ]
    schemes = []
    for make in factories:
        try:
            schemes.append(make())
        except ValueError:
            pass
    return schemes


def fixed_sets_geometry(base: CacheGeometry, ways: int) -> CacheGeometry:
    """Same num_sets/line size at ``ways`` — the sweep's exactness condition."""
    return base.with_fixed_sets(ways)


def assert_results_identical(batched, single, ctx: str) -> None:
    """Full SimulationResult equality — the bit-identity contract."""
    assert batched.model == single.model, ctx
    assert batched.trace_name == single.trace_name, ctx
    assert batched.accesses == single.accesses, ctx
    assert batched.hits == single.hits, ctx
    assert batched.misses == single.misses, ctx
    assert batched.lookup_cycles == single.lookup_cycles, ctx
    assert batched.extra == single.extra, ctx
    np.testing.assert_array_equal(
        batched.slot_accesses, single.slot_accesses, err_msg=ctx
    )
    np.testing.assert_array_equal(batched.slot_hits, single.slot_hits, err_msg=ctx)
    np.testing.assert_array_equal(batched.slot_misses, single.slot_misses, err_msg=ctx)


# -- kernel: one stack-distance pass ≡ one lru_miss_flags call per ways ------------


class TestSweepFlagsVsSingleWays:
    @pytest.mark.parametrize("geometry", [TINY, SMALL], ids=["tiny", "small"])
    def test_all_schemes_all_traces(self, geometry):
        fit = random_trace(geometry, n=2000, seed=99)
        for scheme in scheme_lineup(geometry, fit):
            for trace in trace_zoo(geometry):
                blocks = trace.blocks(geometry.offset_bits).astype(np.int64)
                indices = scheme.indices_of(trace.addresses)
                flags = lru_sweep_miss_flags(blocks, indices, SWEEP_WAYS)
                assert sorted(flags) == sorted(SWEEP_WAYS)
                for ways in SWEEP_WAYS:
                    np.testing.assert_array_equal(
                        flags[ways],
                        lru_miss_flags(blocks, indices, ways),
                        err_msg=f"{scheme.name}/{trace.name}/{ways}way",
                    )

    def test_duplicate_ways_deduplicated(self):
        trace = random_trace(SMALL, n=1000, seed=5)
        blocks = trace.blocks(SMALL.offset_bits).astype(np.int64)
        indices = ModuloIndexing(SMALL).indices_of(trace.addresses)
        flags = lru_sweep_miss_flags(blocks, indices, [4, 2, 4, 2])
        assert sorted(flags) == [2, 4]
        np.testing.assert_array_equal(flags[2], lru_miss_flags(blocks, indices, 2))

    def test_empty_ways_list(self):
        trace = random_trace(SMALL, n=100, seed=5)
        blocks = trace.blocks(SMALL.offset_bits).astype(np.int64)
        indices = ModuloIndexing(SMALL).indices_of(trace.addresses)
        assert lru_sweep_miss_flags(blocks, indices, []) == {}

    def test_rejects_bad_ways(self):
        with pytest.raises(ValueError):
            lru_sweep_miss_flags(np.array([1]), np.array([0]), [2, 0])

    def test_direct_mapped_request_skips_the_distance_pass(self, monkeypatch):
        """A sweep whose every member is 1-way is answered by the
        direct-mapped kernel (``distance != 0`` is its outcome), without
        the stack-distance pass."""
        trace = random_trace(SMALL, n=1000, seed=5)
        blocks = trace.blocks(SMALL.offset_bits).astype(np.int64)
        indices = XorIndexing(SMALL).indices_of(trace.addresses)
        expected = direct_mapped_miss_flags(blocks, indices)

        def refuse(*args):
            raise AssertionError("stack-distance pass for a direct-mapped sweep")

        monkeypatch.setattr(fastsim, "lru_stack_distances", refuse)
        flags = lru_sweep_miss_flags(blocks, indices, [1, 1])
        assert list(flags) == [1]
        np.testing.assert_array_equal(flags[1], expected)
        np.testing.assert_array_equal(lru_miss_flags(blocks, indices, 1), expected)


# -- simulate_lru_sweep ≡ the per-cell entry points it impersonates ----------------


class TestSweepVsPerCellSimulators:
    @pytest.mark.parametrize("base", [TINY, SMALL], ids=["tiny", "small"])
    def test_setassoc_members_all_schemes_all_traces(self, base):
        """Every scheme, every trace: sweep members ≡ simulate_set_associative
        over the matching fixed-sets geometry, per-set counts included."""
        fit = random_trace(base, n=2000, seed=99)
        specs = [(w, "setassoc") for w in (1, 2, 4, 8)]
        for scheme in scheme_lineup(base, fit):
            for trace in trace_zoo(base):
                batched = simulate_lru_sweep(scheme, trace, base, specs)
                for (ways, _), got in zip(specs, batched):
                    g = fixed_sets_geometry(base, ways)
                    want = simulate_set_associative(scheme, trace, g, ways=ways)
                    assert_results_identical(
                        got, want, f"{scheme.name}/{trace.name}/{ways}way"
                    )

    @pytest.mark.parametrize("base", [TINY, SMALL], ids=["tiny", "small"])
    def test_direct_members_all_schemes(self, base):
        """style="direct" reproduces simulate_indexing's packaging exactly —
        including the always-present direct_hits key."""
        fit = random_trace(base, n=2000, seed=99)
        for scheme in scheme_lineup(base, fit):
            for trace in trace_zoo(base):
                (got,) = simulate_lru_sweep(scheme, trace, base, [(1, "direct")])
                want = simulate_indexing(scheme, trace, base)
                assert_results_identical(got, want, f"{scheme.name}/{trace.name}")

    def test_mixed_direct_and_setassoc_sweep(self):
        """The ext-assoc shape: one direct baseline + a k-way ladder."""
        trace = random_trace(SMALL, n=5000, seed=17)
        scheme = ModuloIndexing(SMALL)
        specs = [(1, "direct"), (2, "setassoc"), (4, "setassoc"), (8, "setassoc")]
        batched = simulate_lru_sweep(scheme, trace, SMALL, specs)
        assert_results_identical(
            batched[0], simulate_indexing(scheme, trace, SMALL), "direct member"
        )
        for (ways, _), got in zip(specs[1:], batched[1:]):
            g = fixed_sets_geometry(SMALL, ways)
            assert_results_identical(
                got,
                simulate_set_associative(scheme, trace, g, ways=ways),
                f"{ways}way member",
            )
        # Monotonicity sanity: more ways at fixed sets never adds misses.
        misses = [r.misses for r in batched]
        assert misses == sorted(misses, reverse=True)

    def test_results_in_spec_order(self):
        trace = random_trace(SMALL, n=800, seed=23)
        scheme = XorIndexing(SMALL)
        specs = [(8, "setassoc"), (1, "setassoc"), (2, "setassoc")]
        results = simulate_lru_sweep(scheme, trace, SMALL, specs)
        assert [r.model for r in results] == [
            f"set_associative[{scheme.name},{w}way]" for w, _ in specs
        ]

    def test_rejects_direct_with_many_ways(self):
        trace = random_trace(SMALL, n=10)
        with pytest.raises(ValueError, match="direct"):
            simulate_lru_sweep(ModuloIndexing(SMALL), trace, SMALL, [(2, "direct")])

    def test_rejects_unknown_style(self):
        trace = random_trace(SMALL, n=10)
        with pytest.raises(ValueError, match="style"):
            simulate_lru_sweep(ModuloIndexing(SMALL), trace, SMALL, [(2, "plru")])

    def test_rejects_nonpositive_ways(self):
        trace = random_trace(SMALL, n=10)
        with pytest.raises(ValueError):
            simulate_lru_sweep(ModuloIndexing(SMALL), trace, SMALL, [(0, "setassoc")])


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


class TestEngineBatchedVsPerCell:
    def _run_both(self, shape, benches, engine_config, jobs=1):
        batched_cfg = replace(engine_config, engine="auto", batch_sweeps=True)
        percell_cfg = replace(engine_config, engine="sequential", batch_sweeps=False)
        batched, bstats = run_cells(
            grid(shape, benches, batched_cfg), batched_cfg, jobs=jobs
        )
        percell, pstats = run_cells(
            grid(shape, benches, percell_cfg), percell_cfg, jobs=1
        )
        assert list(batched) == list(percell)
        for key in batched:
            assert_results_identical(batched[key], percell[key], str(key))
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
        """engine="sequential" + batching keeps decode families (exact by
        construction) but never routes cells into a shared kernel pass."""
        cfg = replace(engine_config, engine="sequential", batch_sweeps=True)
        cells = grid(FIGURE_SHAPES["ext_assoc"], ("crc",), cfg)
        results, stats = run_cells(cells, cfg, jobs=1)
        ref_cfg = replace(engine_config, engine="sequential", batch_sweeps=False)
        reference, _ = run_cells(grid(FIGURE_SHAPES["ext_assoc"], ("crc",), ref_cfg), ref_cfg, jobs=1)
        for key in results:
            assert_results_identical(results[key], reference[key], str(key))
