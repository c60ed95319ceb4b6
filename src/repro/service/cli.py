"""CLI verbs of the serving layer: daemons and one-shot clients.

``serve`` starts the asyncio worker daemon in the foreground (Ctrl-C or a
client ``shutdown`` request stops it cleanly); ``route`` starts the
cluster router over a ring of workers; ``submit`` is a thin client for
one-shot submissions; ``stats`` and ``health`` are first-class
observability verbs with human-readable latency/liveness rendering::

    repro-cache serve --port 7411 --jobs 4 --max-pending 64
    repro-cache serve --port 7501 --store shared --shared-dir /mnt/results
    repro-cache route --port 7411 --workers 127.0.0.1:7501,127.0.0.1:7502
    repro-cache submit fig4 --refs 8000             # experiment by id
    repro-cache submit cell --workload fft --label XOR
    repro-cache submit sweep --workload fft --schemes baseline,XOR,4way
    repro-cache stats  [--json]      # p50/p90/p99 per request type
    repro-cache health [--json]      # liveness (+ per-worker ring state)
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import sys
from typing import Any

__all__ = [
    "add_service_commands",
    "cmd_health",
    "cmd_route",
    "cmd_serve",
    "cmd_stats",
    "cmd_submit",
    "DEFAULT_PORT",
]

DEFAULT_PORT = 7411


def add_service_commands(sub: argparse._SubParsersAction) -> None:
    serve = sub.add_parser(
        "serve", help="start the simulation job server (JSON lines over TCP)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"TCP port (default {DEFAULT_PORT}; 0 = ephemeral, printed on start)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="worker processes in the persistent cell pool (0 = all cores)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="admission limit: distinct in-flight cell computations before "
        "requests are rejected with a structured 'overloaded' error",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="default per-request deadline in seconds (requests may override)",
    )
    serve.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        help="per-cell simulation budget in seconds (defaults to --deadline)",
    )
    serve.add_argument(
        "--threads",
        action="store_true",
        help="use a thread pool instead of worker processes (debug/CI only)",
    )
    serve.add_argument("--refs", type=int, default=None, help="default trace length")
    serve.add_argument("--seed", type=int, default=None)
    serve.add_argument("--scale", type=float, default=None)
    serve.add_argument(
        "--store",
        choices=("local", "shared"),
        default="local",
        help="result-store backend: 'local' (private results dir) or "
        "'shared' (cluster-visible two-tier store; requires --shared-dir)",
    )
    serve.add_argument(
        "--shared-dir",
        default=None,
        help="cluster-visible results directory for --store shared",
    )
    serve.add_argument(
        "--cell-delay",
        type=float,
        default=None,
        help="artificial per-cell service time in seconds (load-generator "
        "knob for scaling benches; leave unset in production)",
    )

    route = sub.add_parser(
        "route",
        help="start the cluster router: consistent-hash cells over workers",
    )
    route.add_argument("--host", default="127.0.0.1")
    route.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"TCP port (default {DEFAULT_PORT}; 0 = ephemeral, printed on start)",
    )
    route.add_argument(
        "--workers",
        required=True,
        help="comma-separated worker addresses, e.g. "
        "127.0.0.1:7501,127.0.0.1:7502",
    )
    route.add_argument("--max-pending", type=int, default=256)
    route.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="default per-request deadline in seconds (requests may override)",
    )
    route.add_argument(
        "--probe-interval",
        type=float,
        default=1.0,
        help="seconds between worker health probes (ring ejection/rejoin)",
    )
    route.add_argument(
        "--probe-timeout",
        type=float,
        default=2.0,
        help="per-probe timeout before a worker is ejected",
    )
    route.add_argument("--refs", type=int, default=None, help="default trace length")
    route.add_argument("--seed", type=int, default=None)
    route.add_argument("--scale", type=float, default=None)
    route.add_argument(
        "--store",
        choices=("local", "shared"),
        default="local",
        help="router-side store probe backend; with 'shared' the router "
        "answers warm keys without dialing any worker",
    )
    route.add_argument("--shared-dir", default=None)

    for verb, help_text in (
        ("stats", "fetch and render a server/router stats snapshot"),
        ("health", "fetch and render a server/router health probe"),
    ):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=DEFAULT_PORT)
        p.add_argument(
            "--json", action="store_true", help="raw JSON instead of a summary"
        )

    submit = sub.add_parser(
        "submit", help="submit work to a running job server and print the reply"
    )
    submit.add_argument(
        "target",
        help="experiment id (fig1..fig14), or one of: cell, sweep, health, "
        "stats, shutdown",
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=DEFAULT_PORT)
    submit.add_argument("--kind", default="indexing", help="cell: engine cell kind")
    submit.add_argument("--workload", default=None, help="cell/sweep: workload name")
    submit.add_argument("--label", default=None, help="cell: scheme/model label")
    submit.add_argument(
        "--schemes",
        default="baseline,XOR,Odd_Multiplier,Prime_Modulo",
        help="sweep: comma-separated labels",
    )
    submit.add_argument(
        "--deadline", type=float, default=None, help="per-request deadline (seconds)"
    )
    submit.add_argument(
        "--arrays", action="store_true", help="include per-set arrays in the reply"
    )
    submit.add_argument(
        "--quiet", action="store_true", help="suppress streamed progress events"
    )
    submit.add_argument("--refs", type=int, default=None, help="config override")
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument("--scale", type=float, default=None)


# -- serve -------------------------------------------------------------------------


def _daemon_config(args: argparse.Namespace, **extra: Any):
    """Shared ``serve``/``route`` flag → :class:`PaperConfig` mapping."""
    from dataclasses import replace
    from pathlib import Path

    from ..experiments.config import PaperConfig

    updates: dict[str, Any] = dict(extra)
    if args.refs is not None:
        updates["ref_limit"] = args.refs
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.scale is not None:
        updates["workload_scale"] = args.scale
    if getattr(args, "store", "local") != "local":
        if args.shared_dir is None:
            raise SystemExit("error: --store shared requires --shared-dir")
        updates["result_store"] = args.store
        updates["shared_store_dir"] = Path(args.shared_dir)
    return replace(PaperConfig(), **updates)


def cmd_serve(args: argparse.Namespace) -> int:
    from .server import ReproServer

    updates: dict[str, Any] = {"jobs": args.jobs}
    if args.cell_timeout is not None:
        updates["cell_timeout"] = args.cell_timeout
    if args.cell_delay is not None:
        updates["cell_delay"] = args.cell_delay
    config = _daemon_config(args, **updates)
    from ..experiments.engine.parallel import effective_jobs

    server = ReproServer(
        config,
        host=args.host,
        port=args.port,
        workers=effective_jobs(args.jobs),
        max_pending=args.max_pending,
        use_processes=not args.threads,
        default_deadline=args.deadline,
    )

    async def main() -> None:
        await server.start()
        print(
            f"repro.service listening on {server.host}:{server.port} "
            f"(workers={effective_jobs(args.jobs)}, "
            f"max_pending={args.max_pending})",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.close()
        print("repro.service stopped", flush=True)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("repro.service interrupted; shut down", file=sys.stderr)
    return 0


# -- route -------------------------------------------------------------------------


def cmd_route(args: argparse.Namespace) -> int:
    from ..cluster.router import ClusterRouter, parse_worker

    workers = [w.strip() for w in args.workers.split(",") if w.strip()]
    if not workers:
        print("error: --workers must list at least one host:port", file=sys.stderr)
        return 2
    try:
        for addr in workers:
            parse_worker(addr)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = _daemon_config(args)
    router = ClusterRouter(
        workers,
        config,
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        default_deadline=args.deadline,
        probe_interval=args.probe_interval,
        probe_timeout=args.probe_timeout,
    )

    async def main() -> None:
        await router.start()
        alive = await router.probe_workers()
        up = sum(1 for ok in alive.values() if ok)
        print(
            f"repro.cluster router listening on {router.host}:{router.port} "
            f"({up}/{len(alive)} workers up: "
            f"{', '.join(router.ring.nodes)})",
            flush=True,
        )
        try:
            await router.serve_forever()
        finally:
            await router.close()
        print("repro.cluster router stopped", flush=True)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("repro.cluster router interrupted; shut down", file=sys.stderr)
    return 0


# -- stats / health ----------------------------------------------------------------


def _fmt_seconds(seconds: float) -> str:
    if seconds <= 0:
        return "0"
    if seconds < 0.001:
        return f"{seconds * 1e6:.0f}µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def _render_stats(snapshot: dict[str, Any], where: str) -> str:
    lines: list[str] = []
    role = snapshot.get("role", "server")
    lines.append(
        f"repro.service {role} @ {where} — uptime "
        f"{_fmt_seconds(float(snapshot.get('uptime_seconds', 0.0)))}"
    )
    requests = snapshot.get("requests") or {}
    if requests:
        lines.append(
            "requests: "
            + "  ".join(f"{k}={v}" for k, v in sorted(requests.items()))
        )
    errors = snapshot.get("errors") or {}
    if errors:
        lines.append(
            "errors:   "
            + "  ".join(f"{k}={v}" for k, v in sorted(errors.items()))
        )
    cells = snapshot.get("cells") or {}
    if cells:
        lines.append(
            "cells:    "
            f"submitted={cells.get('submitted', 0)} "
            f"executed={cells.get('executed', 0)} "
            f"cache_hits={cells.get('cache_hits', 0)} "
            f"coalesced={cells.get('coalesced', 0)} "
            f"rejected={cells.get('rejected', 0)} "
            f"failed={cells.get('failed', 0)} "
            f"(hit ratio {100 * float(cells.get('cache_hit_ratio', 0.0)):.1f}%)"
        )
    latency = snapshot.get("latency") or {}
    if latency:
        lines.append("latency (seconds; bucket upper bounds):")
        header = (
            f"  {'type':<12}{'count':>8}{'mean':>10}{'p50':>10}"
            f"{'p90':>10}{'p99':>10}{'max':>10}"
        )
        lines.append(header)
        for rtype, hist in sorted(latency.items()):
            lines.append(
                f"  {rtype:<12}{hist.get('count', 0):>8}"
                f"{_fmt_seconds(float(hist.get('mean_seconds', 0))):>10}"
                f"{_fmt_seconds(float(hist.get('p50_seconds', 0))):>10}"
                f"{_fmt_seconds(float(hist.get('p90_seconds', 0))):>10}"
                f"{_fmt_seconds(float(hist.get('p99_seconds', 0))):>10}"
                f"{_fmt_seconds(float(hist.get('max_seconds', 0))):>10}"
            )
    cluster = snapshot.get("cluster")
    if cluster:
        alive = cluster.get("alive") or []
        workers = cluster.get("workers") or {}
        lines.append(
            f"cluster:  {len(alive)}/{len(workers)} workers alive"
            + (f" ({', '.join(alive)})" if alive else "")
        )
        routing = cluster.get("routing") or {}
        if routing:
            lines.append(
                "routing:  "
                + "  ".join(f"{k}={v}" for k, v in sorted(routing.items()))
            )
        totals = cluster.get("worker_cell_totals") or {}
        if totals:
            lines.append(
                "workers:  "
                f"executed={totals.get('executed', 0)} "
                f"cache_hits={totals.get('cache_hits', 0)} "
                f"submitted={totals.get('submitted', 0)} "
                f"coalesced={totals.get('coalesced', 0)}"
            )
        for node, snap in sorted(workers.items()):
            if snap is None:
                lines.append(f"  {node:<24} (unreachable)")
                continue
            wcells = snap.get("cells") or {}
            lines.append(
                f"  {node:<24} executed={wcells.get('executed', 0)} "
                f"cache_hits={wcells.get('cache_hits', 0)} "
                f"uptime={_fmt_seconds(float(snap.get('uptime_seconds', 0)))}"
            )
    return "\n".join(lines)


def _render_health(health: dict[str, Any], where: str) -> str:
    lines = [
        f"{health.get('status', '?')} — {health.get('server', 'repro.service')} "
        f"v{health.get('version', '?')} @ {where} "
        f"(pid {health.get('pid', '?')}, uptime "
        f"{_fmt_seconds(float(health.get('uptime_seconds', 0.0)))})"
    ]
    lines.append(
        f"connections open: {health.get('connections_open', 0)}; "
        f"queue depth: {health.get('queue_depth', 0)}"
    )
    workers = health.get("workers")
    if workers is not None:
        ring = health.get("ring") or {}
        lines.append(
            f"ring: {ring.get('nodes', len(workers))} workers × "
            f"{ring.get('vnodes', '?')} vnodes; "
            f"{health.get('workers_alive', 0)}/{len(workers)} alive"
        )
        for node, state in sorted(workers.items()):
            status = "up" if state.get("alive") else "DOWN"
            linked = "connected" if state.get("connected") else "not connected"
            lines.append(f"  {node:<24} {status:<5} ({linked})")
    return "\n".join(lines)


def _observability_verb(args: argparse.Namespace, verb: str) -> int:
    from .client import ServiceClient, ServiceError

    where = f"{args.host}:{args.port}"
    try:
        with ServiceClient(args.host, args.port) as client:
            reply = client.stats() if verb == "stats" else client.health()
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConnectionError, OSError) as exc:
        print(
            f"error: cannot reach repro.service at {where}: {exc}",
            file=sys.stderr,
        )
        return 3
    with contextlib.suppress(BrokenPipeError):
        if args.json:
            print(json.dumps(reply, indent=2, sort_keys=True))
        elif verb == "stats":
            print(_render_stats(reply, where))
        else:
            print(_render_health(reply, where))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    return _observability_verb(args, "stats")


def cmd_health(args: argparse.Namespace) -> int:
    return _observability_verb(args, "health")


# -- submit ------------------------------------------------------------------------


def _overrides_from(args: argparse.Namespace) -> dict[str, Any]:
    overrides: dict[str, Any] = {}
    if args.refs is not None:
        overrides["ref_limit"] = args.refs
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.scale is not None:
        overrides["workload_scale"] = args.scale
    return overrides


def cmd_submit(args: argparse.Namespace) -> int:
    from ..experiments import available_experiments
    from .client import ServiceClient, ServiceError

    def on_event(frame: dict[str, Any]) -> None:
        if not args.quiet:
            cell = frame.get("cell", "?")
            print(
                f"  [{frame.get('done', '?')}/{frame.get('total', '?')}] {cell}",
                file=sys.stderr,
                flush=True,
            )

    target = args.target
    # Usage errors are decidable without a server; report them before dialing.
    known = ("cell", "sweep", "health", "stats", "shutdown")
    if target not in known and target not in available_experiments():
        print(
            f"error: unknown submit target {target!r}; expected an "
            f"experiment id, cell, sweep, health, stats or shutdown",
            file=sys.stderr,
        )
        return 2
    if target == "cell" and (not args.workload or not args.label):
        print("error: submit cell requires --workload and --label", file=sys.stderr)
        return 2
    if target == "sweep" and not args.workload:
        print("error: submit sweep requires --workload", file=sys.stderr)
        return 2
    try:
        with ServiceClient(args.host, args.port) as client:
            if target == "health":
                reply: dict[str, Any] = client.health()
            elif target == "stats":
                reply = client.stats()
            elif target == "shutdown":
                reply = {"shutting_down": client.shutdown()}
            elif target == "cell":
                reply = client.submit_cell(
                    args.kind,
                    args.workload,
                    args.label,
                    config=_overrides_from(args),
                    deadline=args.deadline,
                    arrays=args.arrays,
                )
            elif target == "sweep":
                schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
                reply = client.sweep(
                    args.workload,
                    schemes,
                    config=_overrides_from(args),
                    deadline=args.deadline,
                    arrays=args.arrays,
                    on_event=on_event,
                )
            else:
                reply = client.run_experiment(
                    target,
                    config=_overrides_from(args),
                    deadline=args.deadline,
                    on_event=on_event,
                )
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConnectionError, OSError) as exc:
        print(
            f"error: cannot reach repro.service at {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 3
    with contextlib.suppress(BrokenPipeError):
        print(json.dumps(reply, indent=2, sort_keys=True))
    return 0
