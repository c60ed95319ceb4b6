#!/usr/bin/env python
"""End-to-end smoke of the cluster router, as CI runs it.

Boots a *real* two-worker cluster as subprocesses — two ``repro-cache
serve`` daemons sharing one shared result store, fronted by one
``repro-cache route`` daemon — and exercises the clustering contract over
TCP:

1.  router ``health`` reports both ring workers alive;
2.  a cold sweep's cells each run on their ring owner — every worker's
    ``executed`` delta equals the count the consistent-hash placement
    (recomputed independently in this process) gives it — and every row
    matches the in-process engine bit-for-bit;
3.  ``fig1`` routed cold, then rerun — the rerun is answered entirely
    from cache (zero new simulations) and is bit-identical;
4.  ``fig13`` (SMT traces) and ``ext-policy`` (4-way geometry), routed
    whole to one worker, equal their in-process rows;
5.  a worker is SIGKILLed mid-burst: the burst still completes with every
    row ok (structured retriable failover, no client-visible error), the
    router ejects the dead node, and the rows are *still* bit-identical
    to the in-process engine;
6.  exactly-once: a warm rerun of the failover burst executes nothing on
    the survivor, and every requested key exists exactly once in the
    shared store;
7.  ``shutdown`` stops router and surviving worker cleanly.

Run:  PYTHONPATH=src python scripts/cluster_smoke.py
"""

from __future__ import annotations

import contextlib
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cluster.ring import HashRing  # noqa: E402
from repro.experiments import PaperConfig, run_experiment  # noqa: E402
from repro.experiments.engine import ResultCache, plan_cells  # noqa: E402
from repro.experiments.engine.cells import execute_cell  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.service.protocol import sweep_cell  # noqa: E402

REFS = 6000
SCALE = 0.1
CELL_DELAY = 0.3
STARTUP_TIMEOUT = 120.0
SWEEP_LABELS = [
    "baseline", "XOR", "Odd_Multiplier", "Prime_Modulo",
    "2way", "4way", "8way", "FullAssoc",
]


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"cluster-smoke FAILED: {message}")
    print(f"  ok: {message}")


def kill(proc: subprocess.Popen) -> None:
    """SIGKILL a daemon and every process it forked."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)


def start(args: list[str], workdir: Path, pattern: str) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), PYTHONUNBUFFERED="1")
    workdir.mkdir(parents=True, exist_ok=True)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=workdir,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        # Own process group: a daemon that ran a figure has forked engine
        # pool workers, and a SIGKILL must take them down with it.
        start_new_session=True,
    )
    watchdog = threading.Timer(STARTUP_TIMEOUT, kill, (proc,))
    watchdog.daemon = True
    watchdog.start()
    try:
        assert proc.stdout is not None
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    match = re.search(pattern, line)
    if match is None:
        kill(proc)
        raise SystemExit(f"cluster-smoke FAILED: unexpected startup line {line!r}")
    # Drain further stdout so the daemon never blocks on a full pipe.
    threading.Thread(target=lambda: proc.stdout.read(), daemon=True).start()
    print(f"daemon up: {line.strip()}")
    return proc, int(match.group(1))


def start_worker(workdir: Path, shared: Path) -> tuple[subprocess.Popen, int]:
    return start(
        [
            "serve", "--port", "0", "--jobs", "2", "--threads",
            "--refs", str(REFS), "--scale", str(SCALE),
            "--store", "shared", "--shared-dir", str(shared),
            "--cell-delay", str(CELL_DELAY),
        ],
        workdir,
        r"listening on [\d.]+:(\d+)",
    )


def local_reference(config: PaperConfig, workload: str, labels: list[str]):
    """In-process engine results for the sweep, keyed by label."""
    cells = [sweep_cell(workload, label, config) for label in labels]
    plan = plan_cells(cells, config, jobs=1)
    out = {}
    for label, cell in zip(labels, cells):
        result = execute_cell(
            cell,
            config,
            plan.trace_paths.get(cell.workload),
            plan.profile_paths.get(cell.workload) if cell.needs_profile else None,
        )
        out[label] = (result, plan.keys[cell])
    return out


def executed_per_worker(client: ServiceClient) -> dict[str, int]:
    """Each ring worker's ``executed`` counter, as the router reports it."""
    workers = client.stats()["cluster"]["workers"]
    return {
        node: int(((snap or {}).get("cells") or {}).get("executed", 0))
        for node, snap in workers.items()
    }


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro_cluster_smoke_") as tmp:
        root = Path(tmp)
        shared = root / "shared-results"
        w1, p1 = start_worker(root / "w1", shared)
        w2, p2 = start_worker(root / "w2", shared)
        workers = [f"127.0.0.1:{p1}", f"127.0.0.1:{p2}"]
        router_proc, router_port = start(
            ["route", "--port", "0", "--workers", ",".join(workers),
             "--refs", str(REFS), "--scale", str(SCALE),
             "--probe-interval", "0.5"],
            root / "router",
            r"listening on [\d.]+:(\d+)",
        )
        procs = [w1, w2, router_proc]
        # The smoke's own config mirrors the daemons' flags, so its keys
        # and results are the cluster's — that parity IS the test.
        config = replace(
            PaperConfig(),
            ref_limit=REFS,
            workload_scale=SCALE,
            trace_cache_dir=root / "smoke" / "traces",
        )
        try:
            with ServiceClient("127.0.0.1", router_port, timeout=600.0) as client:
                # 1. both workers on the ring and alive
                health = client.health()
                check(health["role"] == "router", "health reports the router role")
                check(
                    health["workers_alive"] == 2,
                    "health reports 2/2 ring workers alive",
                )

                # 2. cold sweep: each cell on its ring owner, bit-identical rows
                # (over crc: fig1's one cell, fft baseline, stays cold for 3.)
                reference = local_reference(config, "crc", SWEEP_LABELS)
                ring = HashRing(workers)
                expected = {node: 0 for node in workers}
                for label in SWEEP_LABELS:
                    expected[ring.owner(reference[label][1])] += 1
                before = executed_per_worker(client)
                reply = client.sweep("crc", SWEEP_LABELS, arrays=True)
                check(
                    all(row["ok"] for row in reply["rows"]),
                    f"cold sweep completed all {len(SWEEP_LABELS)} rows",
                )
                after = executed_per_worker(client)
                check(
                    {node: after[node] - before[node] for node in workers} == expected,
                    f"each worker executed the cells the ring gives it {expected}",
                )
                if sum(1 for n in expected.values() if n) < 2:
                    print("  note: this port draw hashed every key to one worker")
                for row in reply["rows"]:
                    local, _key = reference[row["label"]]
                    check(
                        row["result"]["misses"] == int(local.misses)
                        and row["result"]["slot_misses"]
                        == [int(v) for v in local.slot_misses],
                        f"row {row['label']} bit-identical to in-process engine",
                    )

                # 3. fig1 cold, then answered entirely from cache
                first = client.run_experiment("fig1")["experiment"]
                check(
                    first["engine_stats"]["cache_misses"] > 0,
                    "first fig1 actually simulated (routed)",
                )
                second = client.run_experiment("fig1")["experiment"]
                check(
                    second["engine_stats"]["cache_misses"] == 0,
                    "fig1 rerun is answered entirely from cache",
                )
                check(second["rows"] == first["rows"], "fig1 reruns bit-identical")

                # 4. derived-trace and 4-way figures route whole
                for eid in ("fig13", "ext-policy"):
                    routed = client.run_experiment(eid)["experiment"]["rows"]
                    local = run_experiment(eid, config).rows
                    check(
                        routed == {k: dict(v) for k, v in local.items()},
                        f"routed {eid} rows equal the in-process run",
                    )

                # 5. SIGKILL a worker mid-burst: failover, no client errors
                burst_reference = local_reference(config, "sha", SWEEP_LABELS)
                burst_result: dict = {}

                def burst() -> None:
                    with ServiceClient(
                        "127.0.0.1", router_port, timeout=600.0
                    ) as burst_client:
                        burst_result["reply"] = burst_client.sweep(
                            "sha", SWEEP_LABELS, arrays=True
                        )

                burst_thread = threading.Thread(target=burst)
                burst_thread.start()
                time.sleep(CELL_DELAY)  # land the kill mid-flight
                kill(w2)
                burst_thread.join(timeout=600)
                check(not burst_thread.is_alive(), "burst finished after the kill")
                rows = burst_result["reply"]["rows"]
                check(
                    all(row["ok"] for row in rows),
                    "every burst row completed despite the SIGKILL (failover)",
                )
                for row in rows:
                    local, _key = burst_reference[row["label"]]
                    check(
                        row["result"]["misses"] == int(local.misses),
                        f"failover row {row['label']} bit-identical",
                    )
                deadline = time.time() + 30
                while client.health()["workers_alive"] != 1:
                    check(time.time() < deadline, "router ejected the dead worker")
                    time.sleep(0.2)
                check(True, "router ejected the dead worker (1/2 alive)")

                # 6. exactly-once: a warm rerun executes nothing new...
                stats_before = client.stats()["cluster"]["worker_cell_totals"]
                rerun = client.sweep("sha", SWEEP_LABELS)
                check(all(row["ok"] for row in rerun["rows"]), "warm rerun ok")
                stats_after = client.stats()["cluster"]["worker_cell_totals"]
                check(
                    stats_after["executed"] == stats_before["executed"],
                    "warm rerun simulated nothing (exactly-once)",
                )
                # ...and every requested key is in the shared store once
                # (one entry per content key, by construction and on disk).
                on_disk = set(ResultCache(shared).keys())
                wanted = {key for _res, key in burst_reference.values()} | {
                    key for _res, key in reference.values()
                }
                check(
                    wanted <= on_disk,
                    f"all {len(wanted)} requested keys present in the shared store",
                )

                # 7. clean shutdown of router and survivor
                check(client.shutdown() is True, "router shutdown acknowledged")
            with ServiceClient("127.0.0.1", p1, timeout=60.0) as wclient:
                check(wclient.shutdown() is True, "survivor shutdown acknowledged")
            check(router_proc.wait(timeout=60) == 0, "router exited cleanly")
            check(w1.wait(timeout=60) == 0, "survivor exited cleanly")
        finally:
            for proc in procs:
                kill(proc)  # the whole group: a SIGKILLed daemon leaves its forks
                proc.wait(timeout=30)
    print("cluster-smoke PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
