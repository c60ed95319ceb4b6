"""Instruction-cache subsystem tests: layout, trace generation, placement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.address import PAPER_L1_GEOMETRY
from repro.core.indexing import ModuloIndexing
from repro.core.simulator import simulate_indexing
from repro.icache import (
    CallProfile,
    CodeLayout,
    Procedure,
    generate_itrace,
    optimize_placement,
    synthetic_call_sequence,
    weighted_overlap_cost,
)

G = PAPER_L1_GEOMETRY


def simple_program():
    return [
        Procedure("hot_a", 2048, body_coverage=1.0),
        Procedure("hot_b", 2048, body_coverage=1.0),
        Procedure("cold", 4096, body_coverage=0.5),
    ]


class TestProcedure:
    def test_validation(self):
        with pytest.raises(ValueError):
            Procedure("x", 0)
        with pytest.raises(ValueError):
            Procedure("x", 64, body_coverage=0.0)


class TestCodeLayout:
    def test_sequential_placement_non_overlapping(self):
        layout = CodeLayout(simple_program())
        assert layout.overlaps() == []
        assert layout.start_of("hot_b") >= layout.end_of("hot_a")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            CodeLayout([Procedure("a", 64), Procedure("a", 64)])

    def test_place_at_aligns(self):
        layout = CodeLayout(simple_program(), align=16)
        layout.place_at("cold", 0x1001)
        assert layout.start_of("cold") % 16 == 0

    def test_blocks_of_cover_body(self):
        layout = CodeLayout(simple_program())
        blocks = layout.blocks_of("hot_a", 32)
        assert blocks.size == pytest.approx(2048 / 32, abs=1)

    def test_overlap_detection(self):
        layout = CodeLayout(simple_program())
        layout.place_at("hot_b", layout.start_of("hot_a") + 64)
        assert ("hot_a", "hot_b") in layout.overlaps()


class TestCallProfile:
    def test_record_sequence(self):
        p = CallProfile().record_sequence(["a", "b", "a", "b", "c"])
        assert p.calls == {"a": 2, "b": 2, "c": 1}
        assert p.weight("a", "b") == 3  # a->b, b->a, a->b
        assert p.hot_order()[0] in ("a", "b")

    def test_self_adjacency_ignored(self):
        p = CallProfile().record_sequence(["a", "a", "a"])
        assert p.weight("a", "a") == 0


class TestTraceGeneration:
    def test_sequential_fetch_addresses(self):
        layout = CodeLayout([Procedure("f", 128)])
        t = generate_itrace(layout, ["f"], line_bytes=32)
        start = layout.start_of("f")
        assert t.addresses.tolist() == [start, start + 32, start + 64, start + 96]

    def test_loop_iterations_refetch(self):
        layout = CodeLayout([Procedure("f", 64)])
        t = generate_itrace(layout, ["f"], line_bytes=32, loop_iterations=3)
        assert len(t) == 6

    def test_body_coverage_truncates(self):
        layout = CodeLayout([Procedure("f", 1024, body_coverage=0.25)])
        t = generate_itrace(layout, ["f"], line_bytes=32)
        assert len(t) == 8  # 256 bytes / 32

    def test_invalid_loop_count(self):
        layout = CodeLayout([Procedure("f", 64)])
        with pytest.raises(ValueError):
            generate_itrace(layout, ["f"], loop_iterations=0)

    def test_synthetic_sequence_properties(self):
        names = [f"p{i}" for i in range(10)]
        seq = synthetic_call_sequence(names, length=500, seed=3)
        assert len(seq) == 500
        assert set(seq) <= set(names)
        # Zipf popularity: the hottest procedure clearly dominates the coldest.
        from collections import Counter

        counts = Counter(seq).most_common()
        assert counts[0][1] > 3 * counts[-1][1]

    @pytest.mark.parametrize("n_procs", [2, 24])
    @pytest.mark.parametrize("length", [1, 63, 64, 65, 3000])
    def test_synthetic_sequence_matches_per_call_draws(self, n_procs, length):
        """One ``choice`` per phase yields the sequence of one ``choice``
        per call (the reference loop below), RNG state for RNG state."""

        def per_call(procedures, length, seed, zipf_exponent=1.3, phase_length=64):
            rng = np.random.default_rng(seed)
            n = len(procedures)
            ranks = np.arange(1, n + 1, dtype=np.float64) ** -zipf_exponent
            popularity = ranks / ranks.sum()
            order = rng.permutation(n)
            sequence = []
            while len(sequence) < length:
                active = rng.choice(n, size=max(2, n // 3), replace=False, p=popularity)
                weights = popularity[active] / popularity[active].sum()
                for _ in range(min(phase_length, length - len(sequence))):
                    pick = int(rng.choice(active, p=weights))
                    sequence.append(procedures[order[pick] % n])
            return sequence

        names = [f"p{i}" for i in range(n_procs)]
        for seed in range(40):
            assert synthetic_call_sequence(names, length, seed) == per_call(
                names, length, seed
            )


class TestPlacement:
    def test_aliasing_hot_pair_is_separated(self):
        """Two ping-ponging procedures placed exactly a cache-capacity apart
        conflict on every call; the optimiser must separate them."""
        procs = [Procedure("a", 2048), Procedure("b", 2048), Procedure("pad", 28 * 1024)]
        layout = CodeLayout(procs)
        layout.place_sequentially(order=["a", "pad", "b"])
        # Force exact aliasing: b at a's address + capacity.
        layout.place_at("b", layout.start_of("a") + G.capacity_bytes)
        calls = ["a", "b"] * 200
        profile = CallProfile().record_sequence(calls)
        base_trace = generate_itrace(layout, calls, line_bytes=G.line_bytes)
        base = simulate_indexing(ModuloIndexing(G), base_trace, G)
        assert base.miss_rate > 0.9  # every fetch conflicts

        new_layout, cost_before, cost_after = optimize_placement(layout, profile, G)
        assert cost_after < cost_before
        assert new_layout.overlaps() == []
        opt_trace = generate_itrace(new_layout, calls, line_bytes=G.line_bytes)
        opt = simulate_indexing(ModuloIndexing(G), opt_trace, G)
        assert opt.miss_rate < 0.1

    def test_weighted_overlap_cost_zero_when_disjoint(self):
        procs = [Procedure("a", 1024), Procedure("b", 1024)]
        layout = CodeLayout(procs)  # sequential => disjoint sets (small code)
        profile = CallProfile().record_sequence(["a", "b"] * 10)
        assert weighted_overlap_cost(layout, profile, G) == 0.0

    def test_optimized_layout_keeps_all_procedures(self):
        procs = simple_program()
        layout = CodeLayout(procs)
        profile = CallProfile().record_sequence(["hot_a", "hot_b"] * 50 + ["cold"])
        new_layout, _, _ = optimize_placement(layout, profile, G)
        assert set(new_layout.procedures) == {p.name for p in procs}
        assert new_layout.overlaps() == []
