"""Key parity: the service must derive *byte-identical* cache keys.

The job server never re-implements key derivation — its request
normalizer builds cells with the engine's own :func:`make_cell` and keys
them through the engine's own :func:`plan_cells`.  These tests audit that
property from three angles:

1. structural — normalized requests produce exactly the cells the
   in-process engine builds;
2. arithmetical — the planned keys equal a from-scratch recomputation via
   :func:`cell_key` over freshly fingerprinted traces (the
   ``TestCacheKeyAudit`` style);
3. behavioural — work submitted over the wire lands in the result cache
   under keys the in-process engine *finds*: a follow-up ``run_cells`` /
   ``run_experiment`` with the same config is 100% cache hits.
"""

from __future__ import annotations

import pytest

from repro.experiments import run_experiment
from repro.experiments.engine import (
    ResultCache,
    cell_key,
    make_cell,
    plan_cells,
    run_cells,
    trace_fingerprint,
)
from repro.experiments.runner import profile_trace_path, workload_trace
from repro.service.protocol import (
    E_BAD_REQUEST,
    ProtocolError,
    normalize_cell_request,
    normalize_sweep_request,
    sweep_cell,
)
from repro.trace.io import load_trace

# Request shapes covering every cell family the protocol can express.
CELL_REQUESTS = [
    {"type": "cell", "kind": "baseline", "workload": "fft", "label": "baseline"},
    {"type": "cell", "kind": "indexing", "workload": "fft", "label": "XOR"},
    {"type": "cell", "kind": "indexing", "workload": "crc", "label": "Odd_Multiplier"},
    {"type": "cell", "kind": "indexing", "workload": "fft", "label": "Givargis"},
    {"type": "cell", "kind": "setassoc", "workload": "fft", "label": "4way"},
    {
        "type": "cell",
        "kind": "progassoc",
        "workload": "crc",
        "label": "Column_associative",
    },
]


def _recomputed_key(cell, config) -> str:
    """Independent from-scratch key: regenerate + refingerprint the traces."""
    fp = trace_fingerprint(workload_trace(cell.workload, config))
    profile_fp = None
    if cell.needs_profile:
        profile_fp = trace_fingerprint(load_trace(profile_trace_path(cell.workload, config)))
    return cell_key(
        cell.kind,
        cell.label,
        cell.params,
        config.geometry,
        fp,
        profile_fp,
        ways=cell.ways,
        policy=cell.policy,
    )


class TestStructuralParity:
    @pytest.mark.parametrize("req", CELL_REQUESTS, ids=lambda r: r["label"])
    def test_normalized_cell_equals_engine_cell(self, req, service_config):
        cell, _ = normalize_cell_request(req, service_config)
        assert cell == make_cell(
            req["kind"], req["workload"], req["label"], service_config
        )

    def test_sweep_cells_equal_engine_cells(self, service_config):
        cells, _ = normalize_sweep_request(
            {"workload": "fft", "schemes": ["baseline", "XOR", "4way"]},
            service_config,
        )
        assert cells == [
            make_cell("baseline", "fft", "baseline", service_config),
            make_cell("indexing", "fft", "XOR", service_config),
            make_cell("setassoc", "fft", "4way", service_config),
        ]


class TestArithmeticalParity:
    @pytest.mark.parametrize("req", CELL_REQUESTS, ids=lambda r: r["label"])
    def test_planned_key_matches_recomputation(self, req, service_config):
        cell, config = normalize_cell_request(req, service_config)
        plan = plan_cells([cell], config, jobs=1)
        assert plan.keys[cell] == _recomputed_key(cell, config)

    def test_config_overrides_shift_keys_like_the_engine(self, service_config):
        req = {
            "type": "cell",
            "kind": "indexing",
            "workload": "crc",
            "label": "Odd_Multiplier",
        }
        cell_a, cfg_a = normalize_cell_request(req, service_config)
        cell_b, cfg_b = normalize_cell_request(
            {**req, "config": {"odd_multiplier": 21}}, service_config
        )
        key_a = plan_cells([cell_a], cfg_a, jobs=1).keys[cell_a]
        key_b = plan_cells([cell_b], cfg_b, jobs=1).keys[cell_b]
        assert key_a != key_b
        assert key_b == _recomputed_key(cell_b, cfg_b)


class TestBehaviouralParity:
    """Wire-submitted work must be found by the in-process engine."""

    def test_service_cell_hits_engine_cache(self, server, service_config):
        with server.client() as client:
            meta = client.submit_cell("indexing", "fft", "XOR")["meta"]
        assert meta["cache_hit"] is False  # fresh tmp cache: really simulated
        # In-process run of the *same* cell must be a pure cache hit.
        cell = make_cell("indexing", "fft", "XOR", service_config)
        _, stats = run_cells([cell], service_config, jobs=1)
        assert (stats.cache_hits, stats.cache_misses) == (1, 0)
        # And the on-disk entry sits under exactly the key the server said.
        cache = ResultCache(service_config.result_cache_path)
        assert meta["key"] in cache

    def test_engine_run_serves_adaptive_scheme_cell(self, server, service_config):
        """An ext-hybrid ``Adaptive_Cache:<scheme>`` cell computed in process
        is found by a later wire submission of the same label."""
        cell = make_cell("progassoc", "crc", "Adaptive_Cache:xor", service_config)
        _, stats = run_cells([cell], service_config, jobs=1)
        assert stats.cache_misses == 1
        with server.client() as client:
            meta = client.submit_cell("progassoc", "crc", "Adaptive_Cache:xor")["meta"]
        assert meta["cache_hit"] is True

    def test_service_sweep_hits_engine_cache(self, server, service_config):
        schemes = ["baseline", "XOR", "4way"]
        with server.client() as client:
            reply = client.sweep("fft", schemes)
        assert all(row["ok"] for row in reply["rows"])
        cells = [sweep_cell("fft", label, service_config) for label in schemes]
        _, stats = run_cells(cells, service_config, jobs=1)
        assert (stats.cache_hits, stats.cache_misses) == (len(schemes), 0)

    def test_service_experiment_hits_engine_cache(self, server, service_config):
        with server.client() as client:
            client.run_experiment("fig1")
        result = run_experiment("fig1", service_config)
        assert result.engine_stats["cache_misses"] == 0
        assert result.engine_stats["cache_hits"] == result.engine_stats["cells_total"]


class TestSweepBatchingParity:
    """Batching is invisible to keys, so batched and per-cell work must
    interchange freely across the wire/in-process boundary."""

    LADDER = [("baseline", "baseline")] + [
        ("assocsweep", lab) for lab in ("2way", "4way", "8way")
    ]

    def test_batch_sweeps_override_is_rejected(self, service_config):
        """Batching is not a knob: a request that asks to turn it off is a
        bad request, not silently ignored."""
        req = {"type": "cell", "kind": "assocsweep", "workload": "fft", "label": "4way"}
        with pytest.raises(ProtocolError, match="batch_sweeps") as exc:
            normalize_cell_request({**req, "config": {"batch_sweeps": False}}, service_config)
        assert exc.value.code == E_BAD_REQUEST

    def test_per_cell_submissions_serve_batched_run(self, server, service_config):
        """Cells submitted over the wire one by one must be found by an
        in-process batched run — pure cache hits, nothing re-simulated."""
        with server.client() as client:
            for kind, label in self.LADDER:
                meta = client.submit_cell(kind, "fft", label)["meta"]
                assert meta["cache_hit"] is False  # fresh tmp cache
        cells = [make_cell(kind, "fft", label, service_config) for kind, label in self.LADDER]
        _, stats = run_cells(cells, service_config, jobs=1)
        assert (stats.cache_hits, stats.cache_misses) == (len(self.LADDER), 0)

    def test_batched_run_serves_per_cell_submissions(self, server, service_config):
        """And the reverse: a batched in-process Mattson family warms the
        cache for every later per-cell wire submission."""
        cells = [make_cell(kind, "crc", label, service_config) for kind, label in self.LADDER]
        _, stats = run_cells(cells, service_config, jobs=1)
        assert stats.families_batched == 1 and stats.cells_batched == len(cells)
        with server.client() as client:
            for kind, label in self.LADDER:
                meta = client.submit_cell(kind, "crc", label)["meta"]
                assert meta["cache_hit"] is True, label

    def test_service_stats_report_batched_families(self, server):
        with server.client() as client:
            client.run_experiment("ext-assoc")
            cells = client.stats()["cells"]
        assert cells["families_batched"] > 0
        assert cells["cells_batched"] > cells["families_batched"]
