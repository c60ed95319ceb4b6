"""Wire-protocol unit tests: framing, normalization, and serialization."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.simulator import SimulationResult
from repro.experiments.config import PaperConfig
from repro.experiments.engine import run_cells
from repro.experiments.engine.cells import make_cell
from repro.service import protocol
from repro.service.protocol import (
    CONFIG_OVERRIDES,
    MAX_FRAME_BYTES,
    ProtocolError,
    config_from_overrides,
    decode_frame,
    encode_frame,
    error_frame,
    normalize_cell_request,
    normalize_experiment_request,
    normalize_sweep_request,
    parse_deadline,
    result_to_wire,
    sweep_cell,
)

CONFIG = PaperConfig()


class TestFraming:
    def test_round_trip(self):
        frame = {"type": "cell", "id": "r1", "workload": "fft", "n": 3}
        assert decode_frame(encode_frame(frame)) == frame

    def test_encoding_is_newline_terminated_and_deterministic(self):
        a = encode_frame({"b": 1, "a": 2})
        b = encode_frame({"a": 2, "b": 1})
        assert a == b  # sort_keys: same dict -> same bytes
        assert a.endswith(b"\n") and a.count(b"\n") == 1

    @pytest.mark.parametrize(
        "line", [b"", b"   \n", b"not json\n", b"[1, 2]\n", b'"str"\n']
    )
    def test_malformed_frames_raise(self, line):
        with pytest.raises(ProtocolError):
            decode_frame(line)

    def test_oversized_frame_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_frame(b"x" * (MAX_FRAME_BYTES + 1))

    def test_error_frame_shape(self):
        frame = error_frame("r9", protocol.E_OVERLOADED, "queue full")
        assert frame == {
            "id": "r9",
            "ok": False,
            "type": "error",
            "error": {"code": "overloaded", "message": "queue full"},
        }


class TestConfigOverrides:
    def test_whitelisted_overrides_apply_with_coercion(self):
        config = config_from_overrides(
            {"ref_limit": "9000", "seed": 7, "workload_scale": "0.25"}, CONFIG
        )
        assert config.ref_limit == 9000
        assert config.seed == 7
        assert config.workload_scale == 0.25

    def test_none_and_empty_return_base(self):
        assert config_from_overrides(None, CONFIG) is CONFIG
        assert config_from_overrides({}, CONFIG) is CONFIG

    def test_unknown_key_rejected(self):
        # Operator-owned knobs must not be reachable over the wire.
        for key in ("trace_cache_dir", "result_cache_dir", "jobs", "nope"):
            with pytest.raises(ProtocolError, match="not allowed"):
                config_from_overrides({key: "x"}, CONFIG)

    def test_non_dict_rejected(self):
        with pytest.raises(ProtocolError, match="must be an object"):
            config_from_overrides([1, 2], CONFIG)

    def test_engine_values_validated(self):
        assert config_from_overrides({"engine": "sequential"}, CONFIG).engine
        with pytest.raises(ProtocolError, match="engine"):
            config_from_overrides({"engine": "gpu"}, CONFIG)

    def test_bad_coercion_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="ref_limit"):
            config_from_overrides({"ref_limit": "many"}, CONFIG)

    def test_cell_timeout_override(self):
        assert config_from_overrides({"cell_timeout": 2}, CONFIG).cell_timeout == 2.0
        assert (
            config_from_overrides({"cell_timeout": None}, CONFIG).cell_timeout is None
        )

    def test_every_override_is_a_real_config_field(self):
        fields = set(PaperConfig.__dataclass_fields__)
        assert set(CONFIG_OVERRIDES) <= fields


class TestNormalization:
    def test_cell_request_builds_the_engine_cell(self):
        req = {"type": "cell", "kind": "indexing", "workload": "fft", "label": "XOR"}
        cell, config = normalize_cell_request(req, CONFIG)
        assert cell == make_cell("indexing", "fft", "XOR", CONFIG)
        assert config is CONFIG

    def test_cell_request_overrides_feed_make_cell(self):
        req = {
            "type": "cell",
            "kind": "indexing",
            "workload": "fft",
            "label": "Odd_Multiplier",
            "config": {"odd_multiplier": 21},
        }
        cell, config = normalize_cell_request(req, CONFIG)
        assert ("odd_multiplier", 21) in cell.params
        assert config.odd_multiplier == 21

    @pytest.mark.parametrize(
        "req",
        [
            {"kind": "indexing", "workload": "fft"},  # missing label
            {"kind": "indexing", "workload": "nope", "label": "XOR"},
            {"kind": "nope", "workload": "fft", "label": "XOR"},
            {"kind": "setassoc", "workload": "fft", "label": "nope"},
            {"kind": "indexing", "workload": "", "label": "XOR"},
        ],
    )
    def test_bad_cell_requests_raise(self, req):
        with pytest.raises(ProtocolError):
            normalize_cell_request(req, CONFIG)

    @pytest.mark.parametrize(
        "kind,label",
        [
            ("indexing", "Bogus"),
            ("colassoc", "ColAssoc_Bogus"),
            ("progassoc", "Bogus"),
            ("baseline", "whatever"),
        ],
    )
    def test_unknown_labels_rejected(self, kind, label):
        req = {"kind": kind, "workload": "crc", "label": label}
        with pytest.raises(ProtocolError):
            normalize_cell_request(req, CONFIG)

    def test_sweep_label_routing(self):
        assert sweep_cell("fft", "baseline", CONFIG).kind == "baseline"
        assert sweep_cell("fft", "4way", CONFIG).kind == "setassoc"
        assert sweep_cell("fft", "XOR", CONFIG).kind == "indexing"

    def test_sweep_request(self):
        req = {"workload": "crc", "schemes": ["baseline", "XOR", "4way"]}
        cells, _ = normalize_sweep_request(req, CONFIG)
        assert [c.kind for c in cells] == ["baseline", "indexing", "setassoc"]
        assert all(c.workload == "crc" for c in cells)

    @pytest.mark.parametrize(
        "schemes", [None, [], "XOR", ["XOR", ""], ["XOR", 3]]
    )
    def test_bad_sweep_schemes_raise(self, schemes):
        with pytest.raises(ProtocolError):
            normalize_sweep_request(
                {"workload": "fft", "schemes": schemes}, CONFIG
            )

    def test_experiment_request(self):
        eid, _ = normalize_experiment_request({"experiment": "fig1"}, CONFIG)
        assert eid == "fig1"
        with pytest.raises(ProtocolError, match="unknown experiment"):
            normalize_experiment_request({"experiment": "fig99"}, CONFIG)


class TestDeadline:
    def test_absent_uses_default(self):
        assert parse_deadline({}, 5.0) == 5.0
        assert parse_deadline({}, None) is None

    def test_request_value_wins(self):
        assert parse_deadline({"deadline": 2}, 5.0) == 2.0

    @pytest.mark.parametrize("value", [0, -1, "soon", []])
    def test_invalid_deadlines_raise(self, value):
        with pytest.raises(ProtocolError):
            parse_deadline({"deadline": value}, None)


def _result() -> SimulationResult:
    return SimulationResult(
        model="XOR",
        trace_name="fft",
        accesses=100,
        hits=80,
        misses=20,
        lookup_cycles=123,
        slot_accesses=np.array([50, 50], dtype=np.int64),
        slot_hits=np.array([40, 40], dtype=np.int64),
        slot_misses=np.array([10, 10], dtype=np.int64),
        extra={"swaps": np.int64(3)},
    )


class TestResultSerialization:
    def test_scalars_always_arrays_on_request(self):
        doc = result_to_wire(_result())
        assert doc["misses"] == 20 and doc["miss_rate"] == 0.2
        assert "slot_misses" not in doc
        doc = result_to_wire(_result(), include_arrays=True)
        assert doc["slot_misses"] == [10, 10]

    def test_wire_doc_is_json_safe_and_deterministic(self):
        # np ints must not leak: two serializations are byte-identical.
        a = json.dumps(result_to_wire(_result(), True), sort_keys=True)
        b = json.dumps(result_to_wire(_result(), True), sort_keys=True)
        assert a == b
        assert json.loads(a)["extra"] == {"swaps": 3}

    def test_wire_doc_does_not_depend_on_engine_or_store(self, tmp_path):
        """The colassoc kernel and the per-access loop add their ``extra``
        classes in different orders, and the store keeps them sorted: the
        wire doc, serialized in its own key order, is the same bytes for
        all three."""
        config = replace(CONFIG, ref_limit=2000, trace_cache_dir=tmp_path / "traces")
        cell = make_cell("colassoc", "crc", "ColAssoc_XOR", config)
        docs = []
        for engine in ("auto", "sequential"):
            node = replace(config, engine=engine, use_result_cache=False)
            docs.append(run_cells([cell], node, jobs=1)[0])
        stored = replace(config, result_cache_dir=tmp_path / "results")
        run_cells([cell], stored, jobs=1)
        results, stats = run_cells([cell], stored, jobs=1)
        assert stats.cache_hits == 1
        docs.append(results)
        wire = [json.dumps(result_to_wire(r[(cell.workload, cell.label)], True)) for r in docs]
        assert wire[0] == wire[1] == wire[2]
