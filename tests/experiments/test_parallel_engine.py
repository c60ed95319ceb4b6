"""Parallel experiment engine tests.

Locks the engine's three contracts:

1. **Equivalence** — ``jobs=4`` and ``jobs=1`` produce row-for-row identical
   ``ExperimentResult``s (values, row order, rendered tables, arrays).
2. **Memoization** — a warm result cache short-circuits recomputation
   (counter-verified: zero cell simulations on the second run), and a
   corrupted or truncated cache entry is detected and recomputed, never
   trusted.
3. **Diagnosability** — worker failures surface as ``CellExecutionError``
   naming the failing (workload, scheme) cell; the registry raises a
   helpful ``KeyError`` for unknown experiment ids and orders
   ``available_experiments()`` numerically.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import (
    CellExecutionError,
    PaperConfig,
    available_experiments,
    run_experiment,
)
from repro.experiments import fig04_indexing_missrate as fig04
from repro.experiments import ext_hybrid
from repro.experiments import fig06_progassoc_missrate as fig06
from repro.experiments.engine import (
    ENGINE_VERSION,
    ResultCache,
    SimCell,
    cell_key,
    effective_jobs,
    make_cell,
    run_cells,
    trace_fingerprint,
)
from repro.experiments.engine.cells import execute_cell
from repro.experiments.report import render_table
from repro.experiments.runner import (
    profile_trace_path,
    workload_trace,
    workload_trace_path,
)

REFS = 4000
#: Cheap figures used for the jobs=1 ≡ jobs=4 equivalence checks.
CHEAP_FIGURES = ["fig1", "fig4", "fig8"]


@pytest.fixture(autouse=True)
def _clear_figure_memos():
    """The figure modules memoize one config in-process; tests want cold runs."""
    fig04._CACHE.clear()
    fig06._CACHE.clear()
    yield
    fig04._CACHE.clear()
    fig06._CACHE.clear()


@pytest.fixture
def config(tmp_path) -> PaperConfig:
    return replace(PaperConfig(), ref_limit=REFS, trace_cache_dir=tmp_path / "traces")


def _comparable(result):
    return (
        list(result.rows),  # row order matters ("row-for-row identical")
        result.rows,
        result.columns,
        render_table(result),
    )


class TestParallelSequentialEquivalence:
    @pytest.mark.parametrize("eid", CHEAP_FIGURES)
    def test_jobs4_identical_to_jobs1(self, eid, config, tmp_path):
        seq_cfg = replace(config, result_cache_dir=tmp_path / "rc_seq")
        par_cfg = replace(config, result_cache_dir=tmp_path / "rc_par")
        seq = run_experiment(eid, seq_cfg, jobs=1)
        fig04._CACHE.clear()
        fig06._CACHE.clear()
        par = run_experiment(eid, par_cfg, jobs=4)
        assert _comparable(seq) == _comparable(par)
        for key in seq.arrays:
            if isinstance(seq.arrays[key], np.ndarray):
                np.testing.assert_array_equal(seq.arrays[key], par.arrays[key])
        assert par.engine_stats["jobs"] == 4
        assert seq.engine_stats["jobs"] == 1
        assert par.engine_stats["cache_misses"] == seq.engine_stats["cache_misses"]

    def test_engine_run_cells_order_is_declaration_order(self, config):
        cells = [
            make_cell("baseline", w, "baseline", config)
            for w in ("sha", "fft", "crc")
        ]
        results, _ = run_cells(cells, config, jobs=2)
        assert list(results) == [("sha", "baseline"), ("fft", "baseline"), ("crc", "baseline")]


class TestResultCacheMemoization:
    def test_warm_cache_short_circuits_recomputation(self, config):
        cold = run_experiment("fig4", config)
        assert cold.engine_stats["cache_misses"] == cold.engine_stats["cells_total"] > 0
        assert cold.engine_stats["cache_hits"] == 0
        assert cold.engine_stats["cell_seconds"]  # per-cell wall times recorded

        fig04._CACHE.clear()  # force a fresh engine pass over the disk cache
        warm = run_experiment("fig4", config)
        assert warm.engine_stats["cache_misses"] == 0, "warm run must simulate nothing"
        assert warm.engine_stats["cache_hits"] == warm.engine_stats["cells_total"]
        assert warm.engine_stats["cell_seconds"] == {}
        assert _comparable(cold) == _comparable(warm)

    def test_result_cache_shared_across_figures(self, config):
        """fig4 and fig6 share per-benchmark baseline cells."""
        run_experiment("fig4", config)
        r6 = run_experiment("fig6", config)
        assert r6.engine_stats["cache_hits"] >= 11  # one baseline per benchmark

    def test_cache_location_defaults_beside_trace_cache(self, config):
        run_experiment("fig1", config)
        assert (config.trace_cache_dir / "results").exists()
        assert len(ResultCache(config.trace_cache_dir / "results")) >= 1

    def test_disabled_result_cache_always_recomputes(self, config):
        cfg = replace(config, use_result_cache=False)
        first = run_experiment("fig1", cfg)
        fig04._CACHE.clear()
        again = run_experiment("fig1", cfg)
        assert first.engine_stats["cache_misses"] == 1
        assert again.engine_stats["cache_misses"] == 1
        assert not (cfg.trace_cache_dir / "results").exists() or not list(
            (cfg.trace_cache_dir / "results").glob("*.npz")
        )


class TestCorruptionDetection:
    def _single_cell_key_and_cache(self, config):
        cell = make_cell("baseline", "crc", "baseline", config)
        cache = ResultCache(config.result_cache_path)
        results, stats = run_cells([cell], config, jobs=1, result_cache=cache)
        assert stats.cache_misses == 1
        path = next(iter(config.result_cache_path.glob("*.npz")))
        return cell, cache, path, results[("crc", "baseline")]

    def test_truncated_entry_recomputed(self, config):
        cell, cache, path, original = self._single_cell_key_and_cache(config)
        path.write_bytes(path.read_bytes()[: max(8, path.stat().st_size // 3)])
        results, stats = run_cells([cell], config, jobs=1, result_cache=cache)
        assert stats.cache_misses == 1 and stats.cache_hits == 0
        assert results[("crc", "baseline")].misses == original.misses

    def test_garbage_entry_recomputed(self, config):
        cell, cache, path, original = self._single_cell_key_and_cache(config)
        path.write_bytes(b"this is not an npz file at all")
        results, stats = run_cells([cell], config, jobs=1, result_cache=cache)
        assert stats.cache_misses == 1
        assert results[("crc", "baseline")].misses == original.misses

    def test_checksum_tamper_detected(self, config):
        """A structurally valid entry with doctored counters must be rejected."""
        import json

        cell, cache, path, original = self._single_cell_key_and_cache(config)
        key = path.stem
        entry = cache.load(key)
        assert entry is not None  # pristine entry verifies
        # Re-store with a lie, bypassing checksum recomputation.
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            arrays = {
                k: data[k].copy()
                for k in ("slot_accesses", "slot_hits", "slot_misses")
            }
        meta["misses"] = meta["misses"] + 1  # checksum now stale
        np.savez_compressed(
            path,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            **arrays,
        )
        assert cache.load(key) is None, "tampered entry must be treated as a miss"
        assert not path.exists(), "tampered entry must be deleted"
        results, stats = run_cells([cell], config, jobs=1, result_cache=cache)
        assert stats.cache_misses == 1
        assert results[("crc", "baseline")].misses == original.misses

    def test_stale_engine_version_recomputed(self, config, monkeypatch):
        cell, cache, path, _ = self._single_cell_key_and_cache(config)
        key = path.stem
        monkeypatch.setattr("repro.experiments.engine.cache.ENGINE_VERSION", ENGINE_VERSION + 1)
        assert cache.load(key) is None

    def test_fingerprint_tracks_trace_content(self, config):
        t1 = workload_trace("crc", config)
        t2 = workload_trace("crc", replace(config, seed=999))
        assert trace_fingerprint(t1) == trace_fingerprint(t1)
        assert trace_fingerprint(t1) != trace_fingerprint(t2)


class TestErrorPropagation:
    def test_unknown_experiment_message_names_id_and_known(self, config):
        with pytest.raises(KeyError) as exc:
            run_experiment("fig99", config)
        msg = str(exc.value)
        assert "fig99" in msg and "known" in msg and "fig4" in msg

    def test_available_experiments_numeric_ordering(self):
        ids = available_experiments()
        fig_ids = [e for e in ids if e.startswith("fig")]
        assert fig_ids.index("fig4") < fig_ids.index("fig10")
        assert fig_ids.index("fig9") < fig_ids.index("fig13")
        assert ids == sorted(
            ids, key=lambda e: (int("".join(c for c in e if c.isdigit()) or 0), e)
        )

    def test_sequential_failure_names_cell(self, config):
        bad = SimCell(kind="indexing", workload="no_such_workload", label="XOR")
        with pytest.raises(CellExecutionError) as exc:
            run_cells([bad], config, jobs=1)
        assert "no_such_workload" in str(exc.value) and "XOR" in str(exc.value)

    def test_worker_failure_names_cell(self, config):
        # Two pending cells + jobs=2 → the ProcessPoolExecutor path; the bad
        # label only explodes inside the worker.
        cells = [
            make_cell("baseline", "crc", "baseline", config),
            SimCell(kind="progassoc", workload="crc", label="Nonexistent_Model"),
        ]
        with pytest.raises(CellExecutionError) as exc:
            run_cells(cells, config, jobs=2)
        assert "(crc, Nonexistent_Model)" in str(exc.value)
        assert exc.value.__cause__ is not None

    def test_prefetch_failure_names_cell(self, config):
        bad = SimCell(kind="indexing", workload="no_such_workload", label="Prime_Modulo")
        with pytest.raises(CellExecutionError) as exc:
            run_cells([make_cell("baseline", "crc", "baseline", config), bad], config, jobs=2)
        assert "(no_such_workload, Prime_Modulo)" in str(exc.value)

    def test_unknown_cell_kind_rejected_eagerly(self, config):
        with pytest.raises(ValueError):
            make_cell("warp_drive", "crc", "baseline", config)

    @pytest.mark.parametrize(
        "kind,label",
        [
            ("baseline", "whatever"),
            ("indexing", "Bogus"),
            ("progassoc", "Bogus"),
            ("colassoc", "ColAssoc_Bogus"),
            ("setassoc", "3way"),
            ("assocsweep", "fourway"),
            ("bounds", "Bogus"),
            ("policysweep", "modulo:bogus"),
            ("auxsweep", "modulo:zz4"),
        ],
    )
    def test_unknown_label_rejected_eagerly(self, kind, label, config):
        """A label the kind cannot run fails at declaration, not in a worker."""
        with pytest.raises(ValueError):
            make_cell(kind, "crc", label, config)


class TestCacheKeyAudit:
    """Every outcome-changing model parameter must reach the cache key."""

    def _key(self, cell, config):
        fp = trace_fingerprint(workload_trace(cell.workload, config))
        return cell_key(
            cell.kind,
            cell.label,
            cell.params,
            config.geometry,
            fp,
            None,
            ways=cell.ways,
            policy=cell.policy,
        )

    def test_engine_version_is_three(self):
        assert ENGINE_VERSION == 3

    @pytest.mark.parametrize(
        "kind,label",
        [
            ("progassoc", "Column_associative"),
            ("colassoc", "ColAssoc_Base"),
            ("colassoc", "ColAssoc_XOR"),
            ("bounds", "ColAssoc"),
        ],
    )
    def test_protect_conventional_distinguishes_keys(self, kind, label, config):
        protected = make_cell(kind, "crc", label, config)
        unprotected = make_cell(
            kind, "crc", label, replace(config, protect_conventional=False)
        )
        assert ("protect_conventional", True) in protected.params
        assert ("protect_conventional", False) in unprotected.params
        assert self._key(protected, config) != self._key(unprotected, config)

    def test_bcache_mapping_point_distinguishes_keys(self, config):
        base = make_cell("progassoc", "crc", "B_Cache", config)
        other = make_cell(
            "progassoc", "crc", "B_Cache", replace(config, bcache_mapping_factor=4)
        )
        assert self._key(base, config) != self._key(other, config)
        bas = make_cell("progassoc", "crc", "B_Cache", replace(config, bcache_bas=4))
        assert self._key(base, config) != self._key(bas, config)

    def test_indexing_scheme_params_distinguish_keys(self, config):
        base = make_cell("colassoc", "crc", "ColAssoc_Odd_Multiplier", config)
        other = make_cell(
            "colassoc", "crc", "ColAssoc_Odd_Multiplier", replace(config, odd_multiplier=31)
        )
        assert self._key(base, config) != self._key(other, config)

    def test_engine_choice_is_not_in_keys(self, config):
        """auto and sequential are bit-identical, so they must share entries."""
        auto = make_cell("progassoc", "crc", "Column_associative", config)
        seq = make_cell(
            "progassoc", "crc", "Column_associative", replace(config, engine="sequential")
        )
        assert auto.params == seq.params
        assert self._key(auto, config) == self._key(seq, config)

    def test_warm_cache_survives_engine_switch(self, config):
        """A cache written by the fast engine must serve the sequential run."""
        cells = [make_cell("progassoc", "crc", "B_Cache", config)]
        cache = ResultCache(config.result_cache_path)
        _, cold = run_cells(cells, config, jobs=1, result_cache=cache)
        assert cold.cache_misses == 1
        seq_cfg = replace(config, engine="sequential")
        seq_cells = [make_cell("progassoc", "crc", "B_Cache", seq_cfg)]
        res, warm = run_cells(seq_cells, seq_cfg, jobs=1, result_cache=cache)
        assert warm.cache_hits == 1 and warm.cache_misses == 0

    def test_batch_sweeps_is_not_in_keys(self, config):
        """Batching is an execution knob; batched and per-cell runs are
        bit-identical, so they must share cache entries."""
        for kind, label in [
            ("baseline", "baseline"),
            ("indexing", "XOR"),
            ("assocsweep", "4way"),
            ("progassoc", "Column_associative"),
        ]:
            batched = make_cell(kind, "crc", label, config)
            plain = make_cell(
                kind, "crc", label, replace(config, batch_sweeps=False)
            )
            assert batched == plain, (kind, label)
            assert batched.params == plain.params, (kind, label)
            assert self._key(batched, config) == self._key(plain, config)

    def test_warm_cache_survives_batching_switch(self, config):
        """Entries written by a batched family must serve the per-cell run
        and vice versa — in both directions, zero recomputation."""
        labels = [("baseline", "baseline")] + [
            ("assocsweep", lab) for lab in ("2way", "4way", "8way")
        ]
        cells = [make_cell(kind, "crc", lab, config) for kind, lab in labels]
        cache = ResultCache(config.result_cache_path)
        # Batched cold run: one Mattson family answers all four cells.
        _, cold = run_cells(cells, config, jobs=1, result_cache=cache)
        assert cold.cache_misses == len(cells)
        assert cold.families_batched == 1 and cold.cells_batched == len(cells)
        # Per-cell warm run against the batched entries: all hits.
        plain_cfg = replace(config, batch_sweeps=False)
        plain_cells = [make_cell(kind, "crc", lab, plain_cfg) for kind, lab in labels]
        _, warm = run_cells(plain_cells, plain_cfg, jobs=1, result_cache=cache)
        assert (warm.cache_hits, warm.cache_misses) == (len(cells), 0)
        assert warm.families_batched == 0
        # And the reverse direction, from a fresh cache.
        reverse = ResultCache(config.result_cache_path.parent / "rc_reverse")
        _, cold2 = run_cells(plain_cells, plain_cfg, jobs=1, result_cache=reverse)
        assert cold2.cache_misses == len(cells) and cold2.cells_batched == 0
        _, warm2 = run_cells(cells, config, jobs=1, result_cache=reverse)
        assert (warm2.cache_hits, warm2.cache_misses) == (len(cells), 0)

    def test_policy_distinguishes_keys(self, config):
        keys = {
            self._key(make_cell("policysweep", "crc", f"modulo:{p}", config), config)
            for p in ("lru", "fifo", "plru", "mru", "lfu", "random")
        }
        assert len(keys) == 6

    def test_legacy_victim_key_unchanged_by_aux_migration(self):
        """Rehosting VictimCache on the aux subsystem must not orphan any
        warm store: the legacy Victim8 bounds key — pinned here literally,
        as computed before the migration — still comes out of cell_key."""
        from repro.core.address import PAPER_L1_GEOMETRY

        key = cell_key(
            "bounds",
            "Victim8",
            (("victim_lines", 8),),
            PAPER_L1_GEOMETRY,
            "f" * 64,
            None,
            None,
            "lru",
        )
        assert key == (
            "3fee143d9440e41ed56ce85d82b95aa67187643b010bd420ca2bdbfc44620099"
        )

    def test_aux_labels_and_depths_distinguish_keys(self, config):
        labels = [
            "modulo:vc4",
            "modulo:vc8",
            "modulo:mc4",
            "modulo:sb4",
            "modulo:vc+sb4",
            "xor:vc4",
        ]
        keys = {
            self._key(make_cell("auxsweep", "crc", lab, config), config)
            for lab in labels
        }
        assert len(keys) == len(labels)

    def test_aux_stream_knobs_keyed_only_for_stream_cells(self, config):
        """aux_streams/aux_allocate change sb outcomes, so sb-containing
        cells must key them; vc/mc-only cells are unaffected by them and
        must NOT key them (a knob flip would needlessly cold-miss)."""
        streams_cfg = replace(config, aux_streams=8, aux_allocate="always")
        for label in ("modulo:sb4", "modulo:vc+sb4", "modulo:mc+sb4"):
            base = make_cell("auxsweep", "crc", label, config)
            other = make_cell("auxsweep", "crc", label, streams_cfg)
            assert ("aux_streams", 4) in base.params, label
            assert ("aux_allocate", "miss") in base.params, label
            assert self._key(base, config) != self._key(other, config), label
        for label in ("modulo:vc4", "modulo:mc4"):
            base = make_cell("auxsweep", "crc", label, config)
            other = make_cell("auxsweep", "crc", label, streams_cfg)
            assert base.params == other.params == (), label
            assert self._key(base, config) == self._key(other, config), label

    def test_aux_odd_multiplier_reaches_keys(self, config):
        base = make_cell("auxsweep", "crc", "odd_multiplier:vc4", config)
        other = make_cell(
            "auxsweep", "crc", "odd_multiplier:vc4", replace(config, odd_multiplier=31)
        )
        assert self._key(base, config) != self._key(other, config)

    #: Per-kind SHA-256 over ``label=key`` lines for every label that
    #: existed before the Patel and ``Adaptive_Cache:<scheme>`` labels, at
    #: the default config with fixed trace/profile fingerprints — computed
    #: before those labels were added.  Adding labels must not move a key.
    PINNED_KIND_KEYS = {
        "baseline": "f3a063b8fe9c59f59934993cc70e6eb4f140fdd14401e1c5297840c4bae84fce",
        "indexing": "ca720130358ce662850a5d7b8c164095626c370e028bd2ee9ccf0bc42c8baacd",
        "progassoc": "254a445590d15c6da93913e576d038f8e0277bb0d9cc07c8213ae7b282de312f",
        "colassoc": "734e9fc4db6740bfb94f00f24a121d5c929e8af811ea45311dae4ac6ec42eb00",
        "setassoc": "66a98a64afcc591d08b9ea99e01189f8f5d924a0c2f819a2f6c3a3d6318724bf",
        "assocsweep": "96c939cfe887f62c5f24f4275dc48491ebae0d811d5966d81ffaa316f150d70d",
        "bounds": "bd0b5b4fff69526bcaf3f4bf3e6d3e20ca3f663eaffa763ae8791c8c41251bbe",
        "policysweep": "26762941ed9da4a69e95408cb38115a02a5937c47001c6a2df875ac0b108e2b9",
        "auxsweep": "ce1fdca09e643ec6c3803c0da72aaf7bcc099ca9e68230b7e7831846a240c7d3",
    }

    @staticmethod
    def _pre_existing_labels() -> dict[str, list[str]]:
        from repro.core.aux import AUX_COMBOS
        from repro.core.replacement import POLICIES

        schemes = ("modulo", "xor", "odd_multiplier", "prime_modulo")
        return {
            "baseline": ["baseline"],
            "indexing": ["XOR", "Odd_Multiplier", "Prime_Modulo", "Givargis", "Givargis_Xor"],
            "progassoc": ["Adaptive_Cache", "B_Cache", "Column_associative"],
            "colassoc": [
                "ColAssoc_Base",
                "ColAssoc_XOR",
                "ColAssoc_Odd_Multiplier",
                "ColAssoc_Prime_Modulo",
            ],
            "setassoc": ["2way", "4way", "8way", "FullAssoc"],
            "assocsweep": ["1way", "2way", "4way", "8way"],
            "bounds": [
                "2way", "4way", "8way", "FullAssoc", "Skewed2",
                "Victim8", "Adaptive", "B_Cache", "ColAssoc", "Belady",
            ],
            "policysweep": [f"{s}:{p}" for s in schemes for p in sorted(POLICIES)],
            "auxsweep": [f"{s}:{c}{d}" for s in schemes for c in AUX_COMBOS for d in (1, 4, 8)],
        }

    def test_pre_existing_keys_unchanged(self):
        config = PaperConfig()
        for kind, labels in self._pre_existing_labels().items():
            h = hashlib.sha256()
            for label in labels:
                cell = make_cell(kind, "crc", label, config)
                key = cell_key(
                    cell.kind,
                    cell.label,
                    cell.params,
                    config.geometry,
                    "0" * 64,
                    "1" * 64 if cell.needs_profile else None,
                    ways=cell.ways,
                    policy=cell.policy,
                )
                h.update(f"{label}={key}\n".encode())
            assert h.hexdigest() == self.PINNED_KIND_KEYS[kind], kind

    #: The same digest for every label added after the pins above.
    PINNED_LATER_KEYS = {
        "indexing": "786965ad6c7f38a87e9f9e6765e9417ddfa2c44ffb861a9b120e6b03c1dc2144",
        "progassoc": "8a055b482e972e7a37ca3c7fa52e9d327ba84589e1cd1d9ef4f8cba2cfed3bb4",
        "assocsweep": "63e8a639cdb577910892523ebcb4ec0e6d9056505ee57bddcca5e71cc13ed322",
    }

    def test_later_keys_unchanged(self):
        later = {
            "indexing": ["Patel_train", "Patel_transfer"],
            "progassoc": [
                f"Adaptive_Cache:{s}" for s in ("xor", "odd_multiplier", "prime_modulo")
            ],
            "assocsweep": ["16way"],
        }
        config = PaperConfig()
        for kind, labels in later.items():
            h = hashlib.sha256()
            for label in labels:
                cell = make_cell(kind, "crc", label, config)
                key = cell_key(
                    cell.kind,
                    cell.label,
                    cell.params,
                    config.geometry,
                    "0" * 64,
                    "1" * 64 if cell.needs_profile else None,
                    ways=cell.ways,
                    policy=cell.policy,
                )
                h.update(f"{label}={key}\n".encode())
            assert h.hexdigest() == self.PINNED_LATER_KEYS[kind], kind

    def test_adaptive_scheme_labels(self, config):
        bare = make_cell("progassoc", "crc", "Adaptive_Cache", config)
        labels = [f"Adaptive_Cache:{s}" for s in ("xor", "odd_multiplier", "prime_modulo")]
        keys = {self._key(bare, config)} | {
            self._key(make_cell("progassoc", "crc", lab, config), config) for lab in labels
        }
        assert len(keys) == 1 + len(labels)
        odd = "Adaptive_Cache:odd_multiplier"
        assert self._key(make_cell("progassoc", "crc", odd, config), config) != self._key(
            make_cell("progassoc", "crc", odd, replace(config, odd_multiplier=31)), config
        )
        shifted = replace(config, sht_fraction=1 / 4)
        assert self._key(make_cell("progassoc", "crc", labels[0], config), config) != (
            self._key(make_cell("progassoc", "crc", labels[0], shifted), config)
        )
        for bad in ("B_Cache:xor", "Adaptive_Cache:givargis", "Adaptive_Cache:"):
            with pytest.raises(ValueError):
                make_cell("progassoc", "crc", bad, config)

    def test_patel_labels(self, config):
        train = make_cell("indexing", "crc", "Patel_train", config)
        transfer = make_cell("indexing", "crc", "Patel_transfer", config)
        assert not train.needs_profile and transfer.needs_profile
        assert ("max_swap_moves", 16) in train.params
        assert ("max_swap_moves", 16) in transfer.params
        assert ("profile_seed_offset", config.profile_seed_offset) in transfer.params

    def test_hybrid_modulo_and_baseline_cells_are_fig6_cells(self, config):
        columns = ext_hybrid._columns(config)
        pairs = [
            (("baseline", "baseline"), ("baseline", "baseline")),
            (columns["ColAssoc+modulo"], ("progassoc", "Column_associative")),
            (columns["Adaptive+modulo"], ("progassoc", "Adaptive_Cache")),
        ]
        for (h_kind, h_label), (f_kind, f_label) in pairs:
            hybrid = make_cell(h_kind, "crc", h_label, config)
            fig6 = make_cell(f_kind, "crc", f_label, config)
            assert self._key(hybrid, config) == self._key(fig6, config)

    def test_policy_seed_in_keys_for_random_cells_only(self, config):
        other = replace(config, policy_seed=7)
        rand_a = make_cell("policysweep", "crc", "modulo:random", config)
        rand_b = make_cell("policysweep", "crc", "modulo:random", other)
        assert ("policy_seed", 0) in rand_a.params
        assert ("policy_seed", 7) in rand_b.params
        assert self._key(rand_a, config) != self._key(rand_b, config)
        # Deterministic policies ignore the seed: same cell, same key.
        det_a = make_cell("policysweep", "crc", "modulo:fifo", config)
        det_b = make_cell("policysweep", "crc", "modulo:fifo", other)
        assert det_a == det_b
        assert self._key(det_a, config) == self._key(det_b, config)

    def test_policy_batching_is_not_in_keys(self, config):
        """The policy axis is an execution knob like batch_sweeps: batched
        and per-cell policysweep runs must share cache entries."""
        for label in ("modulo:fifo", "xor:random"):
            batched = make_cell("policysweep", "crc", label, config)
            plain = make_cell(
                "policysweep", "crc", label, replace(config, batch_sweeps=False)
            )
            assert batched == plain, label
            assert self._key(batched, config) == self._key(plain, config)

    def test_warm_cache_survives_policy_batching_switch(self, config):
        """Entries written by a batched policy family must serve the
        per-cell run and vice versa — both directions, zero recomputation."""
        labels = [f"modulo:{p}" for p in ("lru", "fifo", "plru", "random")]
        cells = [make_cell("policysweep", "crc", lab, config) for lab in labels]
        cache = ResultCache(config.result_cache_path)
        _, cold = run_cells(cells, config, jobs=1, result_cache=cache)
        assert cold.cache_misses == len(cells)
        assert cold.families_batched == 1 and cold.cells_batched == len(cells)
        plain_cfg = replace(config, batch_sweeps=False)
        plain_cells = [
            make_cell("policysweep", "crc", lab, plain_cfg) for lab in labels
        ]
        _, warm = run_cells(plain_cells, plain_cfg, jobs=1, result_cache=cache)
        assert (warm.cache_hits, warm.cache_misses) == (len(cells), 0)
        assert warm.families_batched == 0
        reverse = ResultCache(config.result_cache_path.parent / "rc_pol_reverse")
        _, cold2 = run_cells(plain_cells, plain_cfg, jobs=1, result_cache=reverse)
        assert cold2.cache_misses == len(cells) and cold2.cells_batched == 0
        _, warm2 = run_cells(cells, config, jobs=1, result_cache=reverse)
        assert (warm2.cache_hits, warm2.cache_misses) == (len(cells), 0)


class TestTracePathTransfer:
    """Workers consume trace paths, not pickled address arrays."""

    def test_workload_trace_path_materialises_and_roundtrips(self, config):
        path = workload_trace_path("crc", config)
        assert path.exists() and path.suffix == ".rtr"  # raw mmap format
        from repro.trace.io import load_trace

        via_path = load_trace(path).with_name("crc")
        via_cache = workload_trace("crc", config)
        np.testing.assert_array_equal(via_path.addresses, via_cache.addresses)
        assert via_path.name == via_cache.name

    def test_profile_trace_path_differs_from_eval_trace(self, config):
        assert profile_trace_path("crc", config) != workload_trace_path("crc", config)
        zero = replace(config, profile_seed_offset=0)
        assert profile_trace_path("crc", zero) == workload_trace_path("crc", zero)

    def test_execute_cell_by_path_is_bit_identical(self, config):
        for kind, label in [
            ("baseline", "baseline"),
            ("progassoc", "B_Cache"),
            ("indexing", "Givargis"),
        ]:
            cell = make_cell(kind, "crc", label, config)
            tpath = workload_trace_path("crc", config)
            ppath = profile_trace_path("crc", config) if cell.needs_profile else None
            by_path = execute_cell(cell, config, tpath, ppath)
            by_spec = execute_cell(cell, config)
            assert by_path.misses == by_spec.misses, (kind, label)
            assert by_path.hits == by_spec.hits, (kind, label)
            assert by_path.lookup_cycles == by_spec.lookup_cycles, (kind, label)
            assert by_path.trace_name == by_spec.trace_name, (kind, label)
            np.testing.assert_array_equal(by_path.slot_misses, by_spec.slot_misses)

    def test_parallel_path_transfer_bit_identical(self, config, tmp_path):
        cells = [
            make_cell("progassoc", w, label, config)
            for w in ("crc", "fft")
            for label in ("B_Cache", "Column_associative")
        ]
        seq_cfg = replace(config, result_cache_dir=tmp_path / "rc_a")
        par_cfg = replace(config, result_cache_dir=tmp_path / "rc_b")
        seq, _ = run_cells(cells, seq_cfg, jobs=1)
        par, _ = run_cells(cells, par_cfg, jobs=3)
        assert list(seq) == list(par)
        for key in seq:
            assert seq[key].misses == par[key].misses, key
            assert seq[key].extra == par[key].extra, key
            np.testing.assert_array_equal(
                seq[key].slot_accesses, par[key].slot_accesses
            )


class TestJobsResolution:
    def test_effective_jobs(self):
        import os

        assert effective_jobs(1) == 1
        assert effective_jobs(7) == 7
        auto = os.cpu_count() or 1
        assert effective_jobs(0) == auto
        assert effective_jobs(None) == auto
        assert effective_jobs(-3) == auto

    def test_run_experiment_jobs_override(self, config):
        r = run_experiment("fig1", config, jobs=2)
        assert r.engine_stats["jobs"] == 2
