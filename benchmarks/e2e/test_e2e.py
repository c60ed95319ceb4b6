"""Self-tests of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import socket
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import tracer  # noqa: E402
from spans import Span  # noqa: E402


def _span(sid, parent, name, start, end, pid=1, hit=None):
    return Span(sid, parent, pid, name, start, end, hit)


# -- self time -----------------------------------------------------------------------


def test_union_length_merges_overlaps_and_clips():
    assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert spans.union_length([(0, 10)], 2, 5) == 3
    assert spans.union_length([]) == 0


def test_self_time_subtracts_nested_and_cross_pid_children_once():
    trace = [
        _span("1-0", None, "engine_run:run_cells", 0.0, 10.0),
        _span("1-1", "1-0", "warm:warm_traces", 1.0, 4.0),
        _span("1-2", "1-1", "trace_io:get_or_create", 2.0, 3.0),
        # Two pool workers running in parallel under the same parent.
        _span("2-0", "1-0", "engine_family:execute_family", 3.0, 6.0, pid=2),
        _span("3-0", "1-0", "engine_family:execute_family", 5.0, 8.0, pid=3),
    ]
    selfs = spans.self_times(trace)
    assert selfs["1-0"] == pytest.approx(10.0 - 7.0)  # children cover [1, 8]
    assert selfs["1-1"] == pytest.approx(2.0)
    assert selfs["1-2"] == pytest.approx(1.0)
    assert selfs["2-0"] == pytest.approx(3.0)


def test_layer_metrics_per_operation():
    trace = [
        _span("1-0", None, "store_load:load", 1.0, 2.0, hit=True),
        _span("1-1", "1-0", "store_load:load", 1.0, 1.5, hit=False),  # nested: one call
        _span("1-2", None, "store_load:load", 3.0, 4.0, hit=False),
        _span("1-3", None, "experiment:fig4", 5.0, 7.0),
        _span("1-4", None, "store_load:load", 20.0, 21.0),  # outside the window
    ]
    out = spans.layer_metrics(trace, (0.0, 10.0), ops=2, experiments=["fig4"],
                              untraced={"probe_s": 1.0})
    assert out["store_load.calls"] == 1.0
    assert out["store_load.self_s"] == pytest.approx(1.0)
    assert out["store_load.hit_ratio"] == 0.5
    assert out["experiment.fig4_s"] == pytest.approx(1.0)
    assert out["probe_s"] == pytest.approx(0.5)
    assert out["unattributed_s"] == pytest.approx((10.0 - 4.0 - 1.0) / 2)


def test_fallback_and_bypass_classification():
    trace = [
        _span("1-0", None, "experiment:ext-hybrid", 0, 10),
        _span("1-1", "1-0", "sequential:simulate", 1, 2),  # bypass
        _span("1-2", None, "engine_run:run_cells", 0, 10),
        _span("2-0", "1-2", "engine_cell:execute_cell", 1, 9, pid=2),
        _span("2-1", "2-0", "fastassoc:simulate_progassoc", 1, 8, pid=2),
        _span("2-2", "2-1", "sequential:simulate", 2, 7, pid=2),  # fallback
        _span("2-3", "2-0", "sequential:simulate", 8, 9, pid=2),  # neither
        _span("1-3", None, "fastpolicy:simulate_policy", 0, 1),
        _span("1-4", "1-3", "sequential:simulate", 0, 1),  # both
    ]
    fallbacks, bypasses = spans.sequential_classes(trace)
    assert {s.id for s in fallbacks} == {"2-2", "1-4"}
    assert {s.id for s in bypasses} == {"1-1", "1-4"}


# -- statistics and reporting ----------------------------------------------------------


def test_p99_needs_ten_samples_above_it():
    assert run.tail_percentile(list(range(1000))) == 989
    assert run.tail_percentile(list(range(999))) is None
    assert run.tail_percentile([]) is None


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads(run.BENCHMARK.read_text())
    report = {"ops": [1.0, 2.0], "scaled": [1.0, 2.0], "work_s": 3.0, "window": [0.0, 4.0],
              "peak_rss_mb": 50.0, "failed": 0, "attempted": 2}
    e2e = run.end_to_end(report, [(0.5, 1.0)])
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == {
        (name, unit) for name, (_value, unit) in e2e.items()
    }
    from repro.experiments import available_experiments

    values = spans.layer_metrics([], (0.0, 1.0), 1, available_experiments(),
                                 {"probe_s": 0.0, "startup_s": 0.0})
    names = set(values) | set(loadgen.SERVICE_LAYERS)
    names |= {"engine.hit_ratio", "engine.batched_ratio", "trace_overhead"}
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == {
        (n, run.layer_unit(n)) for n in names
    }
    assert [w["name"] for w in spec["workloads"]] == list(loadgen.WORKLOADS)


def test_replay_median_is_taken_per_experiment():
    # Each replay had one slow experiment; the per-part medians miss all three.
    parts = [{"a": 1.0, "b": 2.0, "rest": 0.5}, {"a": 3.0, "b": 2.0, "rest": 0.5},
             {"a": 1.0, "b": 6.0, "rest": 0.5}]
    report = {"scaled": [sum(p.values()) for p in parts], "parts": parts}
    assert run.op_seconds(report) == pytest.approx(3.5)
    assert run.op_seconds({"scaled": [3.0, 1.0, 2.0]}) == 2.0


def test_times_are_scaled_by_the_host_factor_next_to_them():
    # The host was twice as slow during the second operation and set-up.
    report = {"ops": [1.0, 2.0], "scaled": [1.0, 1.0], "work_s": 2.0, "window": [0.0, 3.0],
              "peak_rss_mb": 50.0, "failed": 0, "attempted": 2}
    e2e = run.end_to_end(report, [(1.0, 1.0), (2.0, 2.0), (3.0, 1.0)])
    assert e2e["setup_s"][0] == 1.0
    assert e2e["p50_ms"][0] == 1000.0
    assert e2e["ops_per_s"][0] == 1.0
    assert run.extras(report)["wall_ops_per_s"][0] == pytest.approx(2 / 3)
    assert 0.5 < loadgen.host_factor() < 20


def test_digest_pins_and_pairs_count_as_failures(monkeypatch, tmp_path):
    pins = tmp_path / "digests.json"
    pins.write_text(json.dumps({"5": {"kernel-grid": "aa", "replay-warm": "ff"}}))
    monkeypatch.setattr(run, "DIGESTS", pins)

    def report(digest):
        return {"digest": digest, "failed": 0, "errors": []}

    reports = {"kernel-grid": report("bb"), "serve-mixed": report("cc"),
               "route-mixed": report("dd"), "replay-cold": report("ee"),
               "replay-warm": run.crashed("replay-warm: run exited 1")}
    run.check_digests(reports, 5)
    # A crashed workload is not compared with its pin or its partner again.
    assert [reports[n]["failed"] for n in reports] == [1, 1, 1, 0, 1]


def test_failed_workloads_still_end_with_the_result_line(monkeypatch, capsys):
    # kernel-grid's process crashes; every request of serve-mixed is refused.
    def spawn(role, workload, args, deadline, trace_dir=None):
        if workload == "kernel-grid":
            raise run.RunFailed(f"{workload}: {role} exited -9")
        return {"setup_s": 1.0, "setup_factor": 1.0, "ops": [], "scaled": [], "work_s": 1.0,
                "window": [0.0, 1.0], "attempted": 1000, "failed": 1000,
                "errors": ["request 0: overloaded"], "digest": "aa", "peak_rss_mb": 60.0}

    monkeypatch.setattr(run, "spawn", spawn)
    code = run.main(["--workload", "kernel-grid", "--workload", "serve-mixed", "--seed", "5"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result == {"correct": False, "attempted": 1001, "failed": 1001, "metrics": {}}


# -- the trace shim --------------------------------------------------------------------


def _bindings():
    """Identity of every binding the shim may replace."""
    import asyncio.base_events
    from concurrent.futures import ProcessPoolExecutor

    from repro.experiments.runner import EXPERIMENT_REGISTRY

    tracer.import_all()
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                seen[(name, attr)] = id(value)
                if isinstance(value, type):
                    for member, fn in vars(value).items():
                        seen[(name, attr, member)] = id(fn)
    for eid, fn in EXPERIMENT_REGISTRY.items():
        seen[("registry", eid)] = id(fn)
    seen["submit"] = id(ProcessPoolExecutor.submit)
    seen["run_in_executor"] = id(asyncio.base_events.BaseEventLoop.run_in_executor)
    return seen


def test_install_and_remove_restore_every_binding(tmp_path):
    import numpy as np

    from repro.core import simulator
    from repro.core.address import PAPER_L1_GEOMETRY
    from repro.core.indexing import XorIndexing
    from repro.trace.event import Trace

    before = _bindings()
    original = simulator.simulate_indexing
    inst = tracer.install(tmp_path)
    try:
        during = _bindings()
        assert simulator.simulate_indexing is not original
        assert sum(before[k] != during[k] for k in before) > 50
        trace = Trace(np.arange(0, 4096, 4, dtype=np.uint64), name="t")
        simulator.simulate_indexing(XorIndexing(PAPER_L1_GEOMETRY), trace, PAPER_L1_GEOMETRY)
    finally:
        inst.remove()
    assert _bindings() == before
    names = [s.name for s in spans.load_spans(tmp_path)]
    assert "simulator:simulate_indexing" in names
    assert "indexing:indices_of" in names


# -- digests and failure accounting ----------------------------------------------------


def test_digests_are_stable_at_a_tiny_size(tmp_path):
    from repro.experiments import PaperConfig, run_experiment
    from repro.experiments.engine import make_cell, run_cells

    config = replace(PaperConfig(), ref_limit=3000, trace_cache_dir=tmp_path,
                     use_result_cache=False)
    cells = [make_cell(kind, "crc", label, config) for kind, label in loadgen.GRID_LABELS]
    grids = [loadgen.grid_digest(cells, run_cells(cells, config, jobs=j)[0]) for j in (1, 2)]
    assert grids[0] == grids[1]
    first = loadgen.experiment_digest([run_experiment("ext-assoc", config)])
    again = loadgen.experiment_digest([run_experiment("ext-assoc", config)])
    assert first == again
    assert loadgen.service_digest([{"a": 1}, {"b": 2}]) != loadgen.service_digest([{"a": 1}])


class _ErrorServer:
    """A daemon that answers ``stats`` and rejects every cell as overloaded."""

    def __init__(self):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            conn, _ = self.sock.accept()
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        with conn, conn.makefile("rwb") as f:
            for line in f:
                req = json.loads(line)
                if req["type"] == "stats":
                    reply = {"id": req["id"], "ok": True, "type": "result", "stats": {}}
                else:
                    reply = {"id": req["id"], "ok": False, "type": "error",
                             "error": {"code": "overloaded", "message": "queue full"}}
                f.write(json.dumps(reply).encode() + b"\n")
                f.flush()


def test_an_error_frame_counts_as_a_failed_request(tmp_path):
    server = _ErrorServer()
    workload = loadgen.ServeMixed(7, tmp_path, None)
    workload.address = ("127.0.0.1", server.port)
    workload.hot = {}
    report = workload.measure(0.01)
    # Even a short run sends the whole prefix that the digest covers.
    assert report["attempted"] >= loadgen.DIGEST_REQUESTS
    assert report["failed"] == report["attempted"]
    assert report["ops"] == []
    assert "overloaded" in report["errors"][0]
