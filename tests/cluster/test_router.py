"""End-to-end cluster router tests (real loopback TCP, in-process daemons).

The router is a forwarder on the daemon's own serving path; locked here:

* every cell kind routed through the cluster is **bit-identical** to the
  in-process engine's answer (differential over the full wire payload,
  arrays included), and the router/worker content keys agree;
* a sweep's cells each go to their ring owner (per-worker executed
  counts match the placement), rows come back in request order, and
  progress events count router-wide;
* identical concurrent cells coalesce at the router — one simulation
  cluster-wide, every client bit-identical;
* router flights keep the scheduler's admission (``max_pending``),
  waiter deadlines and last-waiter cancellation;
* a fresh cluster sharing only the shared store answers warm without
  simulating (cross-node warm hits);
* killing a worker mid-use ejects it, the key fails over to a survivor,
  and with no survivors the client gets a retriable ``unavailable`` error;
* ``stats``/``health`` aggregate per-worker counters cluster-wide;
* every registered experiment, forwarded whole to one worker, reproduces
  the in-process figure exactly.
"""

from __future__ import annotations

import gc
import logging
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.experiments import available_experiments, run_experiment
from repro.experiments.engine import plan_cells
from repro.experiments.engine.cache import ENTRY_SUFFIX
from repro.experiments.engine.cells import execute_cell, make_cell
from repro.service import (
    ServiceError,
    ServiceOverloaded,
    ServiceTimeout,
    ServiceUnavailable,
)
from repro.service.protocol import encode_frame, result_to_wire, sweep_cell

#: One representative cell per engine kind (labels per ``make_cell``).
KIND_LABELS = [
    ("baseline", "baseline"),
    ("indexing", "XOR"),
    ("progassoc", "Column_associative"),
    ("colassoc", "ColAssoc_XOR"),
    ("setassoc", "4way"),
    ("assocsweep", "2way"),
    ("bounds", "FullAssoc"),
]

WORKLOAD = "fft"


def _local_reference(kind: str, label: str, config):
    """The in-process engine's answer for one cell (and its cache key)."""
    cell = make_cell(kind, WORKLOAD, label, config)
    plan = plan_cells([cell], config, jobs=1)
    result = execute_cell(
        cell,
        config,
        plan.trace_paths.get(cell.workload),
        plan.profile_paths.get(cell.workload) if cell.needs_profile else None,
    )
    return result, plan.keys[cell]


def _wait_until(predicate, timeout: float = 20.0, what: str = "condition"):
    deadline = time.time() + timeout
    while not predicate():
        assert time.time() < deadline, f"timed out waiting for {what}"
        time.sleep(0.02)


class TestDifferential:
    def test_every_cell_kind_is_bit_identical_to_local(
        self, make_cluster, cluster_config
    ):
        """The headline property: routing never changes a single bit."""
        cluster = make_cluster(1)
        worker_addr = cluster.workers[0].addr
        with cluster.client() as client:
            for kind, label in KIND_LABELS:
                reply = client.submit_cell(kind, WORKLOAD, label, arrays=True)
                local, key = _local_reference(kind, label, cluster_config)
                assert reply["result"] == result_to_wire(
                    local, include_arrays=True
                ), f"{kind}/{label} diverged from the in-process engine"
                # Key parity: router, worker and local engine all derived
                # the same content key for the cell.
                assert reply["meta"]["key"] == key
                assert reply["meta"]["worker"] == worker_addr
        assert cluster.total_executed() == len(KIND_LABELS)


class TestSweepRouting:
    LABELS = ["baseline", "XOR", "Odd_Multiplier", "Prime_Modulo", "4way"]

    def test_sweep_splits_by_ring_owner_and_merges_rows(
        self, make_cluster, cluster_config
    ):
        cluster = make_cluster(2)
        router = cluster.router.server
        events = []
        with cluster.client() as client:
            reply = client.sweep(WORKLOAD, self.LABELS, on_event=events.append)

        rows = reply["rows"]
        assert [row["label"] for row in rows] == self.LABELS
        assert all(row["ok"] for row in rows)

        # Where the ring places each cell.
        cells = [sweep_cell(WORKLOAD, lab, cluster_config) for lab in self.LABELS]
        plan = plan_cells(cells, cluster_config, jobs=1)
        expected_shards: dict[str, int] = {}
        for cell in cells:
            owner = router.ring.owner(plan.keys[cell])
            expected_shards[owner] = expected_shards.get(owner, 0) + 1
        assert sum(expected_shards.values()) == len(self.LABELS)

        # Each worker only executed the cells the ring assigned to it.
        for i, worker in enumerate(cluster.workers):
            assert worker.stats.cells_executed == expected_shards.get(
                worker.addr, 0
            ), f"worker {i} executed cells it does not own"

        # Events renumbered router-wide: one per cell, done counts 1..N.
        assert len(events) == len(self.LABELS)
        assert sorted(e["done"] for e in events) == list(
            range(1, len(self.LABELS) + 1)
        )
        assert all(e["total"] == len(self.LABELS) for e in events)

    def test_sweep_rows_match_single_worker_run(self, make_cluster):
        split = make_cluster(2)
        solo = make_cluster(1)
        with split.client() as client:
            split_rows = client.sweep(WORKLOAD, self.LABELS, arrays=True)["rows"]
        with solo.client() as client:
            solo_rows = client.sweep(WORKLOAD, self.LABELS, arrays=True)["rows"]
        for a, b in zip(split_rows, solo_rows):
            assert a["result"] == b["result"]


class TestCoalescing:
    N_CLIENTS = 8

    def test_concurrent_identical_cells_simulate_once_cluster_wide(
        self, make_cluster
    ):
        cluster = make_cluster(2)
        barrier = threading.Barrier(self.N_CLIENTS)

        def one_client(_i: int) -> dict:
            with cluster.client() as client:
                barrier.wait(timeout=60)
                return client.submit_cell(
                    "indexing", WORKLOAD, "XOR", arrays=True
                )

        with ThreadPoolExecutor(max_workers=self.N_CLIENTS) as pool:
            replies = list(pool.map(one_client, range(self.N_CLIENTS)))

        # Exactly one simulation across the whole cluster.
        assert cluster.total_executed() == 1
        results = [r["result"] for r in replies]
        assert all(r == results[0] for r in results)
        # All 8 landed on the same key, hence the same worker.
        workers = {r["meta"]["worker"] for r in replies}
        assert len(workers) == 1
        router = cluster.router.server
        stats = router.cluster_stats
        # Everyone after the first either joined the router flight or hit
        # the worker-side flight/cache — nobody resimulated.
        assert (
            stats["routes_coalesced"]
            + sum(w.stats.cells_coalesced for w in cluster.workers)
            + sum(w.stats.cells_cache_hits for w in cluster.workers)
            == self.N_CLIENTS - 1
        )


class TestSharedStore:
    def test_cross_node_warm_hit_through_shared_store(self, make_cluster):
        """A fresh cluster sharing only the shared dir never simulates."""
        first = make_cluster(1)
        with first.client() as client:
            warm = client.submit_cell("indexing", WORKLOAD, "XOR", arrays=True)
        assert first.total_executed() == 1

        # The worker's write-behind publisher runs asynchronously; wait for
        # the entry to land in the shared tier before dialing cluster two.
        _wait_until(
            lambda: any(first.shared_dir.rglob(f"*{ENTRY_SUFFIX}")),
            what="shared-store publish",
        )

        second = make_cluster(1, shared_dir=first.shared_dir)
        with second.client() as client:
            reply = client.submit_cell("indexing", WORKLOAD, "XOR", arrays=True)
        assert reply["result"] == warm["result"]
        assert second.total_executed() == 0, "warm key was re-simulated"
        assert second.workers[0].stats.cells_cache_hits == 1

    def test_router_store_probe_answers_without_dialing_workers(
        self, make_cluster
    ):
        cluster = make_cluster(1, router_store=True)
        with cluster.client() as client:
            client.submit_cell("indexing", WORKLOAD, "XOR")
            _wait_until(
                lambda: any(cluster.shared_dir.rglob(f"*{ENTRY_SUFFIX}")),
                what="shared-store publish",
            )
            reply = client.submit_cell("indexing", WORKLOAD, "XOR")
        assert reply["meta"]["cache_hit"] is True
        assert reply["meta"]["worker"] is None
        router = cluster.router.server
        assert router.cluster_stats["router_cache_hits"] == 1
        assert cluster.total_executed() == 1


class TestFailover:
    def test_dead_worker_is_ejected_and_key_fails_over(self, make_cluster):
        cluster = make_cluster(2)
        router = cluster.router.server

        # Pick the cell's owner *before* killing anything, then kill it.
        with cluster.client() as client:
            first = client.submit_cell("indexing", WORKLOAD, "XOR", arrays=True)
        owner = first["meta"]["worker"]
        victim = next(w for w in cluster.workers if w.addr == owner)
        survivor = next(w for w in cluster.workers if w.addr != owner)
        victim.stop()

        with cluster.client() as client:
            # A *different* key (no store hit anywhere) owned by... whoever;
            # the one we KNOW was owned by the victim is the same cell with
            # a fresh router (no router store) — resubmit it: the victim's
            # link fails, the key fails over, and the survivor answers from
            # scratch or its own path — bit-identically.
            reply = client.submit_cell("indexing", WORKLOAD, "XOR", arrays=True)
        assert reply["result"] == first["result"]
        assert reply["meta"]["worker"] == survivor.addr
        assert router.alive[victim.addr] is False
        assert router.cluster_stats["workers_ejected"] >= 1

        # The survivor keeps serving unrelated keys too.
        with cluster.client() as client:
            assert client.submit_cell("baseline", WORKLOAD, "baseline")["result"]

    def test_all_workers_dead_is_a_retriable_unavailable(self, make_cluster):
        cluster = make_cluster(2, probe_interval=0.1)
        for worker in cluster.workers:
            worker.stop()
        router = cluster.router.server
        _wait_until(
            lambda: not any(router.alive.values()),
            what="prober to eject both workers",
        )
        with cluster.client() as client:
            with pytest.raises(ServiceUnavailable) as exc_info:
                client.submit_cell("indexing", WORKLOAD, "XOR")
            assert exc_info.value.code == "unavailable"
            # The router itself is alive and still answers health.
            assert client.health()["status"] == "ok"
        assert router.cluster_stats["routes_unavailable"] >= 1

    def test_sweep_with_no_workers_fails_soft_per_row(self, make_cluster):
        cluster = make_cluster(1, probe_interval=0.1)
        cluster.workers[0].stop()
        router = cluster.router.server
        _wait_until(
            lambda: not any(router.alive.values()),
            what="prober to eject the worker",
        )
        with cluster.client() as client:
            rows = client.sweep(WORKLOAD, ["baseline", "XOR"])["rows"]
        for row in rows:
            assert row["ok"] is False
            assert row["error"]["code"] == "unavailable"


class TestObservability:
    def test_router_health_reports_ring_and_workers(self, make_cluster):
        cluster = make_cluster(2)
        with cluster.client() as client:
            health = client.health()
        assert health["status"] == "ok"
        assert health["role"] == "router"
        assert health["workers_alive"] == 2
        assert set(health["workers"]) == {w.addr for w in cluster.workers}
        assert all(w["alive"] for w in health["workers"].values())
        assert health["ring"]["nodes"] == 2

    def test_router_stats_aggregate_worker_counters(self, make_cluster):
        cluster = make_cluster(2)
        with cluster.client() as client:
            client.submit_cell("indexing", WORKLOAD, "XOR")
            client.submit_cell("indexing", WORKLOAD, "Prime_Modulo")
            client.submit_cell("indexing", WORKLOAD, "XOR")  # warm
            stats = client.stats()
        assert stats["role"] == "router"
        cluster_section = stats["cluster"]
        assert set(cluster_section["alive"]) == {w.addr for w in cluster.workers}
        routing = cluster_section["routing"]
        assert routing["routes_forwarded"] >= 2
        totals = cluster_section["worker_cell_totals"]
        assert totals["executed"] == cluster.total_executed() == 2
        assert totals["executed"] == sum(
            (snap or {}).get("cells", {}).get("executed", 0)
            for snap in cluster_section["workers"].values()
        )

    def test_structured_bad_request_propagates(self, make_cluster):
        cluster = make_cluster(1)
        with cluster.client() as client:
            with pytest.raises(ServiceError) as exc_info:
                client.submit_cell("indexing", "nope", "XOR")
            assert exc_info.value.code == "bad_request"
            with pytest.raises(ServiceError) as exc_info:
                client.submit_cell("setassoc", WORKLOAD, "NotAWay")
            assert exc_info.value.code == "bad_request"


class TestRoutedExperiments:
    def test_experiment_matches_in_process_run(
        self, make_cluster, cluster_config
    ):
        cluster = make_cluster(2)
        events = []
        with cluster.client() as client:
            reply = client.run_experiment("fig1", on_event=events.append)
        wire = reply["experiment"]
        local = run_experiment("fig1", cluster_config)
        assert wire["experiment_id"] == local.experiment_id == "fig1"
        assert wire["columns"] == list(local.columns)
        assert wire["rows"] == {k: dict(v) for k, v in local.rows.items()}
        # The figure's cells really ran on the workers, not in the router.
        assert cluster.total_executed() > 0
        assert cluster.router.stats.cells_executed == 0
        # Forwarded whole: the one worker named in meta ran every cell.
        owner = next(w for w in cluster.workers if w.addr == reply["meta"]["worker"])
        assert owner.stats.cells_executed == cluster.total_executed()
        assert events, "no progress events streamed"
        assert events[-1]["done"] == events[-1]["total"]

    def test_routed_families_match_in_process_run(self, make_cluster, cluster_config):
        """ext-assoc's ladders form assoc families: the worker that runs the
        figure batches them as ``serve`` does, and the rows stay the local
        ones."""
        cluster = make_cluster(2)
        with cluster.client() as client:
            reply = client.run_experiment("ext-assoc")
        local = run_experiment("ext-assoc", cluster_config)
        assert local.engine_stats["families_batched"] > 0
        assert reply["experiment"]["rows"] == {k: dict(v) for k, v in local.rows.items()}
        assert cluster.total_executed() > 0
        assert cluster.router.stats.cells_executed == 0


@pytest.mark.parametrize("eid", available_experiments())
def test_every_experiment_routes_whole(eid, make_cluster, cluster_config, caplog):
    """Each registered figure, forwarded whole through a 2-worker cluster,
    equals the in-process run row for row, and no routed task dies
    unobserved."""
    cluster = make_cluster(2)
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        with cluster.client() as client:
            reply = client.run_experiment(eid)
        cluster.stop()
        gc.collect()
    local = run_experiment(eid, cluster_config)
    assert reply["experiment"]["rows"] == {k: dict(v) for k, v in local.rows.items()}
    assert not [r for r in caplog.records if "never retrieved" in r.getMessage()]


class TestRouterServing:
    """Router flights are scheduler flights: admission, waiter deadlines
    and last-waiter cancellation hold at the router too."""

    #: Worker service time per cell, longer than every wait below.
    DELAY = 3.0

    def _slow_cluster(self, make_cluster, cluster_config, **router_kwargs):
        return make_cluster(
            1,
            config=replace(cluster_config, cell_delay=self.DELAY),
            router_kwargs=router_kwargs,
        )

    def test_max_pending_rejects_a_second_distinct_key(
        self, make_cluster, cluster_config
    ):
        cluster = self._slow_cluster(make_cluster, cluster_config, max_pending=1)
        first: dict = {}

        def submit_first() -> None:
            with cluster.client() as client:
                first["reply"] = client.submit_cell("indexing", WORKLOAD, "XOR")

        thread = threading.Thread(target=submit_first)
        thread.start()
        with cluster.client() as client:
            _wait_until(
                lambda: client.health()["queue_depth"] == 1, what="the first flight"
            )
            with pytest.raises(ServiceOverloaded):
                client.submit_cell("indexing", WORKLOAD, "Prime_Modulo")
        thread.join(60)
        assert first["reply"]["result"]["accesses"] > 0
        assert cluster.router.stats.cells_rejected == 1

    def test_client_disconnect_releases_the_router_flight(
        self, make_cluster, cluster_config
    ):
        cluster = self._slow_cluster(make_cluster, cluster_config)
        sock = socket.create_connection(("127.0.0.1", cluster.router.port), timeout=10)
        sock.sendall(
            encode_frame(
                {
                    "id": "gone",
                    "type": "cell",
                    "kind": "indexing",
                    "workload": WORKLOAD,
                    "label": "XOR",
                }
            )
        )
        with cluster.client() as client:
            _wait_until(
                lambda: client.health()["queue_depth"] == 1, what="the flight"
            )
            sock.close()  # the only waiter walks away
            _wait_until(
                lambda: client.health()["queue_depth"] == 0,
                timeout=1.0,
                what="the router to cancel the abandoned flight",
            )
        assert cluster.router.stats.cells_cancelled == 1

    def test_routed_cell_deadline_answers_timeout(self, make_cluster, cluster_config):
        cluster = self._slow_cluster(make_cluster, cluster_config)
        with cluster.client() as client:
            with pytest.raises(ServiceTimeout):
                client.submit_cell("indexing", WORKLOAD, "XOR", deadline=0.5)
            assert client.health()["status"] == "ok"
        assert cluster.router.stats.deadline_timeouts == 1
