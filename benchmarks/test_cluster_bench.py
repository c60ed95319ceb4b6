"""Cluster scaling floors: distinct-key load over 1/2/4 workers.

Proves the router actually *scales* rather than merely forwarding: a fixed
batch of ``N_CELLS`` distinct-key cells (distinct ``odd_multiplier``
overrides → distinct content keys) is pushed through a router in front of
1 worker and then of 2 or 4 workers, and the 2-/4-worker runs must beat
the 1-worker run by ≥1.7× and ≥3.0×.  Each floor measures its own
1-worker baseline, so it asserts however it is selected or ordered, and
takes the fastest of ``ROUNDS`` cold batches on each side.

On a small CI box the simulations themselves are too cheap (and share one
CPU), so worker capacity is made explicit with the ``cell_delay`` config
knob: each cell occupies a worker slot for ``CELL_DELAY`` seconds, making
a worker's throughput ``SLOTS / CELL_DELAY`` cells/s — the standard
service-time model for load-generator benches.  Keys are pre-balanced
across the ring (the load-generator knows the placement function), so the
measured quantity is pure capacity scaling, not placement luck.

A third test checks **cross-node warm hits**: a fresh node sharing only
the shared result store with a finished 2-worker run re-requests its batch
and must answer every key without simulating anything.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest
from bench_timing import best_of

from repro.cluster import ClusterRouter
from repro.experiments import PaperConfig
from repro.experiments.engine import LocalDirStore, cell_key, trace_fingerprint
from repro.experiments.runner import workload_trace
from repro.service import ReproServer, ServiceClient

#: Tiny simulation + explicit service time: the floors measure capacity.
CLUSTER_REFS = 1500
CLUSTER_SCALE = 0.05
CELL_DELAY = 0.25
SLOTS = 4
N_CELLS = 32
WORKLOAD = "fft"

#: Scaling floors over the 1-worker baseline.
MIN_SPEEDUP_2W = 1.7
MIN_SPEEDUP_4W = 3.0
#: Cold batches timed per cluster; each side of a floor is the fastest.
ROUNDS = 3


class _Daemon:
    """One server on a private event-loop thread (bench-local helper)."""

    def __init__(self, server):
        self.server = server
        self._started = threading.Event()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._started.wait(60), "daemon did not start"

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def main() -> None:
            await self.server.start()
            self._started.set()
            await self.server.serve_forever()

        try:
            self._loop.run_until_complete(main())
        finally:
            self._started.set()
            self._loop.close()

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def addr(self) -> str:
        return f"127.0.0.1:{self.server.port}"

    def stop(self) -> None:
        import contextlib

        with contextlib.suppress(RuntimeError):
            self._loop.call_soon_threadsafe(self.server._stopping.set)
        self._thread.join(60)


class BenchCluster:
    """Router + N workers with per-node caches and a shared result store."""

    def __init__(self, root: Path, config: PaperConfig, n_workers: int,
                 shared_dir: Path | None = None):
        self.shared_dir = shared_dir or root / "shared-results"
        self._candidates = itertools.count(101, 2)
        self.workers = [
            _Daemon(
                ReproServer(
                    replace(
                        config,
                        trace_cache_dir=root / f"w{i}" / "traces",
                        result_store="shared",
                        shared_store_dir=self.shared_dir,
                        cell_delay=CELL_DELAY,
                    ),
                    port=0,
                    workers=SLOTS,
                    use_processes=False,
                )
            )
            for i in range(n_workers)
        ]
        self.router = _Daemon(
            ClusterRouter(
                [w.addr for w in self.workers],
                replace(
                    config,
                    trace_cache_dir=root / "router" / "traces",
                    use_result_cache=False,
                ),
                port=0,
                probe_interval=0.5,
            )
        )

    def warm(self) -> None:
        """Pay every trace-generation cost outside the measured region."""
        for worker in self.workers:
            with ServiceClient("127.0.0.1", worker.port) as client:
                client.submit_cell("baseline", WORKLOAD, "baseline")
        with ServiceClient("127.0.0.1", self.router.port) as client:
            client.submit_cell("baseline", WORKLOAD, "baseline")

    def balanced_batch(self, config: PaperConfig, per_worker: int) -> dict[int, str]:
        """Odd multipliers this cluster has not requested yet (cold keys),
        spread exactly evenly over the ring, each with its cell key."""
        ring = self.router.server.ring
        trace_fp = trace_fingerprint(workload_trace(WORKLOAD, config))
        want = {node: per_worker for node in ring.nodes}
        chosen: dict[int, str] = {}
        while any(want.values()):
            m = next(self._candidates)
            key = cell_key(
                "indexing",
                "Odd_Multiplier",
                (("odd_multiplier", m),),
                config.geometry,
                trace_fp,
            )
            owner = ring.owner(key)
            if want[owner] > 0:
                want[owner] -= 1
                chosen[m] = key
        return chosen

    def run_load(self, multipliers: list[int]) -> int:
        """Submit one distinct-key cell per multiplier, fully concurrent."""

        def one(m: int) -> bool:
            with ServiceClient(
                "127.0.0.1", self.router.port, timeout=300.0
            ) as client:
                reply = client.submit_cell(
                    "indexing",
                    WORKLOAD,
                    "Odd_Multiplier",
                    config={"odd_multiplier": m},
                )
                return bool(reply["result"])

        with ThreadPoolExecutor(max_workers=len(multipliers)) as pool:
            return sum(pool.map(one, multipliers))

    def total_executed(self) -> int:
        return sum(w.server.stats.cells_executed for w in self.workers)

    def stop(self) -> None:
        self.router.stop()
        for worker in self.workers:
            worker.stop()


@pytest.fixture
def cluster_config(tmp_path) -> PaperConfig:
    return replace(
        PaperConfig(),
        ref_limit=CLUSTER_REFS,
        workload_scale=CLUSTER_SCALE,
        jobs=1,
        trace_cache_dir=tmp_path / "plan-traces",
    )


def _measure(cluster: BenchCluster, batch: dict[int, str]) -> float:
    """Wall time of one distinct-key batch; every cell simulates exactly once."""
    warm_executed = cluster.total_executed()
    seconds, ok = best_of(lambda: cluster.run_load(list(batch)), rounds=1, warmup=0)
    assert ok == N_CELLS, "not every distinct-key cell completed"
    assert cluster.total_executed() - warm_executed == N_CELLS
    return seconds


def _cold_batch_seconds(root: Path, config: PaperConfig, n_workers: int) -> float:
    """Fastest of ``ROUNDS`` balanced cold batches through a fresh
    ``n_workers`` cluster."""
    cluster = BenchCluster(root, config, n_workers)
    try:
        cluster.warm()
        return min(
            _measure(cluster, cluster.balanced_batch(config, N_CELLS // n_workers))
            for _ in range(ROUNDS)
        )
    finally:
        cluster.stop()


@pytest.mark.parametrize(
    "n_workers,floor",
    [(2, MIN_SPEEDUP_2W), (4, MIN_SPEEDUP_4W)],
    ids=["2_workers", "4_workers"],
)
def test_cluster_scaling(cluster_config, tmp_path, n_workers, floor):
    t1 = _cold_batch_seconds(tmp_path / "1w", cluster_config, 1)
    tn = _cold_batch_seconds(tmp_path / f"{n_workers}w", cluster_config, n_workers)
    speedup = t1 / tn
    assert speedup >= floor, (
        f"{n_workers}-worker speedup {speedup:.2f}x below the {floor}x floor "
        f"(1 worker {t1:.2f}s, {n_workers} workers {tn:.2f}s)"
    )


def test_cluster_cross_node_warm_hits(cluster_config, tmp_path):
    """A fresh node sharing only the store answers the batch without simulating."""
    shared = tmp_path / "shared-results"
    cold = BenchCluster(tmp_path / "cold", cluster_config, 2, shared_dir=shared)
    try:
        cold.warm()
        batch = cold.balanced_batch(cluster_config, N_CELLS // 2)
        _measure(cold, batch)
        # The write-behind publishers drain asynchronously: wait until the
        # shared tier lists every key of the batch.
        store = LocalDirStore(shared)
        deadline = time.time() + 30
        while not set(batch.values()) <= set(store.keys()):
            assert time.time() < deadline, "shared-store publish did not drain"
            time.sleep(0.05)
    finally:
        cold.stop()

    fresh = BenchCluster(tmp_path / "fresh", cluster_config, 1, shared_dir=shared)
    try:
        fresh.warm()
        warm_executed = fresh.total_executed()
        seconds, ok = best_of(lambda: fresh.run_load(list(batch)), rounds=1, warmup=0)
        assert ok == N_CELLS
        # The whole batch came out of the shared tier: zero simulations.
        assert fresh.total_executed() == warm_executed, (
            "cross-node warm keys were re-simulated"
        )
        # Warm hits skip the service-time floor entirely: the batch must
        # finish faster than one cold delay round per slot.
        assert seconds < N_CELLS * CELL_DELAY / SLOTS
    finally:
        fresh.stop()
