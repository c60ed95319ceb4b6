"""End-to-end daemon tests over real TCP connections.

The acceptance contract of ISSUE 5, locked executable:

* 32 concurrent clients submitting the identical cell -> it is simulated
  exactly once and every client gets a bit-identical result, which is
  itself bit-identical to the in-process engine's answer;
* sweeps stream per-cell events and mark coalesced duplicates;
* an oversized burst is rejected with structured ``overloaded`` errors
  (never a hang), and the rejection is retriable;
* deadlines surface as structured ``timeout`` errors and the server keeps
  answering afterwards;
* ``health``/``stats`` expose version, protocol, queue depth, coalescing
  and cache-hit counters;
* ``shutdown`` stops the daemon cleanly.
"""

from __future__ import annotations

import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
import repro.service.scheduler as scheduler_mod
from repro.experiments import run_experiment
from repro.experiments.engine import make_cell, plan_cells
from repro.experiments.engine.cells import execute_cell
from repro.service import (
    PROTOCOL_VERSION,
    ServiceClient,
    ServiceError,
    ServiceOverloaded,
    ServiceTimeout,
)
from repro.service.protocol import decode_frame, encode_frame, result_to_wire

N_CLIENTS = 32


class TestConcurrentClients:
    def test_32_clients_identical_cell_executes_exactly_once(
        self, server, service_config
    ):
        """The headline serving property, end to end over TCP."""

        barrier = threading.Barrier(N_CLIENTS)

        def one_client(_i: int) -> dict:
            with server.client() as client:
                barrier.wait(timeout=60)
                return client.submit_cell("indexing", "fft", "XOR", arrays=True)

        with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
            replies = list(pool.map(one_client, range(N_CLIENTS)))

        # Exactly-once: one real simulation across all 32 clients; everyone
        # else coalesced onto the flight or hit the cache it populated.
        assert server.stats.cells_executed == 1
        assert server.stats.cells_submitted == N_CLIENTS
        assert (
            server.stats.cells_coalesced + server.stats.cells_cache_hits
            == N_CLIENTS - 1
        )

        # Bit-identical fan-out: all wire results equal...
        results = [r["result"] for r in replies]
        assert all(r == results[0] for r in results)
        assert len({r["meta"]["key"] for r in replies}) == 1

        # ...and equal to the in-process engine's own answer for the cell.
        cell = make_cell("indexing", "fft", "XOR", service_config)
        plan = plan_cells([cell], service_config, jobs=1)
        local = execute_cell(
            cell,
            service_config,
            plan.trace_paths["fft"],
        )
        wire = results[0]
        assert wire["misses"] == int(local.misses)
        assert wire["hits"] == int(local.hits)
        assert wire["accesses"] == int(local.accesses)
        assert wire["lookup_cycles"] == int(local.lookup_cycles)
        assert wire["slot_misses"] == np.asarray(local.slot_misses).astype(int).tolist()

    def test_pipelined_requests_on_one_connection(self, server):
        """Many ids in flight on a single socket; answers correlate by id."""
        with server.client() as client:
            sock_file = client._file
            for i in range(6):
                sock_file.write(
                    encode_frame(
                        {
                            "id": f"p{i}",
                            "type": "cell",
                            "kind": "indexing",
                            "workload": "fft",
                            "label": "XOR",
                        }
                    )
                )
            sock_file.flush()
            seen = {}
            while len(seen) < 6:
                frame = decode_frame(sock_file.readline())
                if frame.get("type") == "result":
                    seen[frame["id"]] = frame
            assert set(seen) == {f"p{i}" for i in range(6)}
            assert all(f["ok"] for f in seen.values())
        assert server.stats.cells_executed == 1  # all six coalesced/cached


class TestWorkloads:
    def test_hpc_workload_cell_matches_in_process(self, server, service_config):
        """The service accepts every registered workload, the HPC kernels too."""
        with server.client() as client:
            reply = client.submit_cell("indexing", "spmv", "XOR", arrays=True)
        cell = make_cell("indexing", "spmv", "XOR", service_config)
        plan = plan_cells([cell], service_config, jobs=1)
        local = execute_cell(cell, service_config, plan.trace_paths["spmv"])
        assert reply["result"] == result_to_wire(local, include_arrays=True)
        assert reply["meta"]["key"] == plan.keys[cell]


class TestSweep:
    def test_duplicate_labels_coalesce_and_stream_events(self, server):
        events = []
        with server.client() as client:
            reply = client.sweep(
                "fft", ["baseline", "XOR", "XOR"], on_event=events.append
            )
        rows = reply["rows"]
        assert [row["label"] for row in rows] == ["baseline", "XOR", "XOR"]
        assert all(row["ok"] for row in rows)
        # The duplicate XOR joined the first XOR's flight.
        assert [row["coalesced"] for row in rows] == [False, False, True]
        # Identical labels -> identical results.
        assert rows[1]["result"] == rows[2]["result"]
        # One event per settled cell, done counting up to total.
        assert len(events) == 3
        assert sorted(e["done"] for e in events) == [1, 2, 3]
        assert all(e["total"] == 3 for e in events)
        assert server.stats.cells_coalesced >= 1


class TestBackpressure:
    def test_burst_beyond_max_pending_is_rejected_not_hung(self, make_server):
        server = make_server(max_pending=1)
        with server.client() as client:
            reply = client.sweep("fft", ["baseline", "XOR", "Prime_Modulo"])
        rows = reply["rows"]
        # The admitted row finished; the burst overflow was *rejected* with
        # a structured, retriable error -- not buffered, not hung.
        assert rows[0]["ok"] is True
        for row in rows[1:]:
            assert row["ok"] is False
            assert row["error"]["code"] == "overloaded"
        assert server.stats.cells_rejected == 2

        # Retriability: the same labels succeed once the queue has drained.
        with server.client() as client:
            for label in ("XOR", "Prime_Modulo"):
                assert client.submit_cell("indexing", "fft", label)["result"]

    def test_single_cell_overload_raises_typed_error(
        self, make_server, monkeypatch
    ):
        gate = threading.Event()

        def slow(cell, config, trace_path=None, profile_path=None):
            from repro.experiments.engine.cells import timed_execute_cell

            assert gate.wait(20)
            return timed_execute_cell(cell, config, trace_path, profile_path)

        monkeypatch.setattr(scheduler_mod, "timed_execute_cell", slow)
        server = make_server(max_pending=1)
        try:
            with server.client() as blocker, server.client() as probe:
                blocker._file.write(
                    encode_frame(
                        {
                            "id": "r1",
                            "type": "cell",
                            "kind": "indexing",
                            "workload": "fft",
                            "label": "XOR",
                        }
                    )
                )
                blocker._file.flush()
                # Wait until the slow flight occupies the only slot.
                deadline = time.time() + 20
                while server.scheduler.queue_depth == 0:
                    assert time.time() < deadline
                    time.sleep(0.01)
                with pytest.raises(ServiceOverloaded):
                    probe.submit_cell("indexing", "fft", "Prime_Modulo")
        finally:
            gate.set()


class TestDeadlines:
    def test_deadline_is_a_structured_timeout(self, make_server, monkeypatch):
        release = threading.Event()

        def stuck(cell, config, trace_path=None, profile_path=None):
            assert release.wait(30)
            raise RuntimeError("released after test")

        monkeypatch.setattr(scheduler_mod, "timed_execute_cell", stuck)
        server = make_server()
        try:
            with server.client() as client:
                t0 = time.perf_counter()
                with pytest.raises(ServiceTimeout):
                    client.submit_cell("indexing", "fft", "XOR", deadline=0.2)
                assert time.perf_counter() - t0 < 20  # error, not a hang
                # The server is still healthy and answering.
                assert client.health()["status"] == "ok"
            assert server.stats.deadline_timeouts == 1
        finally:
            release.set()


class TestObservability:
    def test_health_reports_version_and_protocol(self, server):
        with server.client() as client:
            health = client.health()
        assert health["status"] == "ok"
        assert health["version"] == repro.__version__
        assert health["protocol"] == PROTOCOL_VERSION
        assert health["uptime_seconds"] >= 0
        assert {"queue_depth", "in_flight", "max_pending"} <= set(health)

    def test_stats_counters_move(self, server):
        with server.client() as client:
            client.submit_cell("indexing", "fft", "XOR")
            client.submit_cell("indexing", "fft", "XOR")  # cache hit
            stats = client.stats()
        cells = stats["cells"]
        assert cells["submitted"] == 2
        assert cells["executed"] == 1
        assert cells["cache_hits"] == 1
        assert cells["cache_hit_ratio"] == 0.5
        assert stats["requests"]["cell"] == 2
        assert stats["requests"]["stats"] == 1
        assert stats["connections"]["total"] >= 1
        hist = stats["latency"]["cell"]
        assert hist["count"] == 2
        assert hist["p99_seconds"] >= hist["p50_seconds"] >= 0


class TestExperiments:
    def test_experiment_matches_in_process_run(self, server, service_config):
        events = []
        with server.client() as client:
            reply = client.run_experiment("fig1", on_event=events.append)
        wire = reply["experiment"]
        local = run_experiment("fig1", service_config)
        assert wire["experiment_id"] == local.experiment_id == "fig1"
        assert wire["columns"] == list(local.columns)
        assert wire["rows"] == {k: dict(v) for k, v in local.rows.items()}
        # Progress streamed: one event per settled cell, monotone `done`.
        assert events, "no progress events streamed"
        assert events[-1]["done"] == events[-1]["total"]
        assert [e["done"] for e in events] == sorted(e["done"] for e in events)
        # And the in-process follow-up was pure cache hits (key parity).
        assert local.engine_stats["cache_misses"] == 0

    def test_second_submission_is_all_cache(self, server):
        with server.client() as client:
            client.run_experiment("fig1")
            again = client.run_experiment("fig1")["experiment"]
        assert again["engine_stats"]["cache_misses"] == 0
        assert again["engine_stats"]["cache_hits"] == (
            again["engine_stats"]["cells_total"]
        )


class TestErrors:
    def test_unknown_request_type(self, server):
        with server.client() as client:
            with pytest.raises(ServiceError) as exc_info:
                client.request({"type": "teleport"})
        assert exc_info.value.code == "bad_request"

    def test_unknown_workload_and_experiment(self, server):
        with server.client() as client:
            with pytest.raises(ServiceError) as exc_info:
                client.submit_cell("indexing", "nope", "XOR")
            assert exc_info.value.code == "bad_request"
            with pytest.raises(ServiceError) as exc_info:
                client.run_experiment("fig99")
            assert exc_info.value.code == "bad_request"

    def test_disallowed_config_override(self, server):
        with server.client() as client:
            with pytest.raises(ServiceError) as exc_info:
                client.submit_cell(
                    "indexing", "fft", "XOR", config={"result_cache_dir": "/pwn"}
                )
        assert exc_info.value.code == "bad_request"
        assert "not allowed" in exc_info.value.message

    def test_malformed_json_gets_an_error_frame(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            f = sock.makefile("rwb")
            f.write(b"this is not json\n")
            f.flush()
            frame = decode_frame(f.readline())
        assert frame["ok"] is False
        assert frame["error"]["code"] == "bad_request"

    def test_worker_failure_is_an_internal_error(self, server, monkeypatch):
        def boom(cell, config, trace_path=None, profile_path=None):
            raise ValueError("synthetic cell failure")

        monkeypatch.setattr(scheduler_mod, "timed_execute_cell", boom)
        with server.client() as client:
            with pytest.raises(ServiceError) as exc_info:
                client.submit_cell("indexing", "fft", "Prime_Modulo")
            assert exc_info.value.code == "internal"
            assert "synthetic cell failure" in exc_info.value.message
            # Still alive afterwards.
            assert client.health()["status"] == "ok"


class TestDisconnectAndShutdown:
    def test_client_disconnect_cancels_its_flight(self, server, monkeypatch):
        release = threading.Event()

        def stuck(cell, config, trace_path=None, profile_path=None):
            assert release.wait(30)
            raise RuntimeError("released after test")

        monkeypatch.setattr(scheduler_mod, "timed_execute_cell", stuck)
        try:
            sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
            sock.sendall(
                encode_frame(
                    {
                        "id": "gone",
                        "type": "cell",
                        "kind": "indexing",
                        "workload": "fft",
                        "label": "XOR",
                    }
                )
            )
            deadline = time.time() + 20
            while server.scheduler.queue_depth == 0:
                assert time.time() < deadline, "request never reached the scheduler"
                time.sleep(0.01)
            sock.close()  # the only waiter walks away
            while server.scheduler.queue_depth > 0:
                assert time.time() < deadline, "flight was not cancelled"
                time.sleep(0.01)
            assert server.stats.cells_cancelled >= 1
        finally:
            release.set()

    def test_shutdown_verb_stops_the_daemon(self, make_server):
        server = make_server()
        with server.client() as client:
            assert client.shutdown() is True
        server._thread.join(30)
        assert not server._thread.is_alive()
        # The port is actually released: a fresh connect fails.
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", server.port), timeout=1)
