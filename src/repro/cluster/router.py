"""The cluster router daemon (``repro route``).

A :class:`ClusterRouter` is a :class:`~repro.service.server.ReproServer`
that owns no simulation workers of its own: it speaks the identical wire
protocol to clients, but serves ``cell``/``sweep``/``experiment`` requests
by consistent-hashing their result-cache keys onto a ring of ordinary
worker daemons and forwarding the frames.  Because keys are
content-addressed, any worker computes the identical result entry —
placement is purely a locality/caching decision, which is what makes the
whole design safe:

routing
    ``cell`` requests forward to the key's ring owner.  ``sweep`` requests
    are *split* into one sub-sweep per owning worker and the streamed
    progress events are re-merged/renumbered.  ``experiment`` requests run
    the unmodified figure runner in a router thread with a
    :class:`ClusterExecutor` injected through the engine's pool hook: each
    sweep family the engine submits is split into one routed ``cell``
    request per member, so every cell of the figure runs cluster-wide.

router-level single-flight
    Identical concurrent keys coalesce into one in-flight forward *before*
    ever dialing a worker — the cluster-wide analogue of the scheduler's
    flight map.

health + failover
    A background prober health-checks every worker; a failed probe ejects
    the node (alive-set filtering over the static ring — placement of
    every other key is untouched, and a later successful probe rejoins
    it).  A transport failure mid-request (:class:`WorkerDown`) re-routes
    the key to the next node in ring-preference order.  *Structured*
    worker errors (``overloaded``/``timeout``/``bad_request``/
    ``internal``) mean the worker is alive and answered: they propagate to
    the client unchanged.  When no live worker remains the client gets a
    retriable ``unavailable`` error.

exactly-once
    Failover can at worst re-*submit* a key, never duplicate a *result*:
    the store is key-addressed with atomic whole-file replaces, so each
    key resolves to exactly one entry, and a re-routed worker that finds
    the key already published answers from the store without simulating
    (the smoke test audits precisely this).

With ``result_store="shared"`` the router probes the shared store itself
and answers warm keys without dialing any worker at all.
"""

from __future__ import annotations

import asyncio
import contextlib
from concurrent.futures import Executor
from typing import Any

from .. import __version__
from ..experiments.config import PaperConfig
from ..experiments.engine.cells import SimCell
from ..experiments.engine.families import SweepFamily, execute_family
from ..service import protocol
from ..service.protocol import (
    CONFIG_OVERRIDES,
    E_INTERNAL,
    E_UNAVAILABLE,
    PROTOCOL_VERSION,
    ProtocolError,
)
from ..service.server import ReproServer, Send
from .link import WorkerDown, WorkerLink
from .ring import DEFAULT_VNODES, HashRing

__all__ = ["ClusterExecutor", "ClusterRouter", "Unavailable", "parse_worker"]


class Unavailable(ProtocolError):
    """No live worker can serve the key; retriable (code ``unavailable``)."""

    def __init__(self, message: str):
        super().__init__(message, code=E_UNAVAILABLE)


def parse_worker(addr: str) -> tuple[str, str, int]:
    """``host:port`` → (node name, host, port); the address is the name."""
    host, sep, port = addr.rpartition(":")
    if not sep or not host:
        raise ValueError(f"worker address {addr!r} is not host:port")
    try:
        return addr, host, int(port)
    except ValueError as exc:
        raise ValueError(f"worker address {addr!r} has a bad port") from exc


class ClusterExecutor(Executor):
    """Bridge from the engine's pool hook onto the router's ring.

    ``run_cells`` submits ``execute_family(family, config, ...)`` units to
    whatever executor :func:`engine_pool_scope` injected; this executor
    routes each member of such a unit as one ``cell`` request on the
    router's event loop, all members in flight at once, and hands back a
    :class:`concurrent.futures.Future` (via ``run_coroutine_threadsafe``)
    of ``execute_family``'s ``(completed, failure)`` reply, so the engine's
    own settle, timeout and cancel bookkeeping keeps working unchanged.
    It holds no threads of its own.
    """

    def __init__(self, router: "ClusterRouter", loop: asyncio.AbstractEventLoop):
        self._router = router
        self._loop = loop

    def submit(self, fn, /, *args, **kwargs):
        if fn is not execute_family or kwargs:
            raise TypeError(f"the cluster executor runs execute_family only, not {fn!r}")
        family, config = args[0], args[1]
        return asyncio.run_coroutine_threadsafe(
            self._route_family(family, config), self._loop
        )

    async def _route_family(self, family: SweepFamily, config: PaperConfig):
        """``execute_family``'s reply for a family routed member by member:
        the members that completed, in member order, up to the first that
        failed, and that member's ``(workload, label, message)``."""
        replies = await asyncio.gather(
            *(self._router.route_engine_cell(cell, config) for cell in family.members),
            return_exceptions=True,
        )
        completed = []
        for cell, reply in zip(family.members, replies):
            if isinstance(reply, BaseException):
                return completed, (cell.workload, cell.label, str(reply))
            completed.append((cell, *reply))
        return completed, None


class ClusterRouter(ReproServer):
    """Consistent-hash routing front-end over worker daemons."""

    def __init__(
        self,
        workers: list[str],
        config: PaperConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_pending: int = 256,
        default_deadline: float | None = None,
        probe_interval: float = 1.0,
        probe_timeout: float = 2.0,
        vnodes: int = DEFAULT_VNODES,
    ):
        # workers=1/use_processes=False: the parent's scheduler pool is a
        # single idle thread — the router never simulates on it; it reuses
        # the scheduler only for plan() (key derivation) and the store.
        super().__init__(
            config,
            host,
            port,
            workers=1,
            max_pending=max_pending,
            use_processes=False,
            default_deadline=default_deadline,
        )
        parsed = [parse_worker(addr) for addr in workers]
        self.ring = HashRing([node for node, _h, _p in parsed], vnodes=vnodes)
        self.links: dict[str, WorkerLink] = {
            node: WorkerLink(node, h, p) for node, h, p in parsed
        }
        #: Optimistic liveness: a configured worker is assumed up until a
        #: probe or a forward says otherwise (failover covers the gap).
        self.alive: dict[str, bool] = {node: True for node in self.ring.nodes}
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.cluster_stats: dict[str, int] = {
            "routes_forwarded": 0,
            "routes_coalesced": 0,
            "router_cache_hits": 0,
            "routes_failed_over": 0,
            "routes_unavailable": 0,
            "workers_ejected": 0,
            "workers_rejoined": 0,
        }
        self._route_flights: dict[tuple[str, bool], asyncio.Task] = {}
        self._prober_task: asyncio.Task | None = None
        self._cluster_executor: ClusterExecutor | None = None
        self._event_tasks: set[asyncio.Task] = set()

    # -- lifecycle ------------------------------------------------------------------

    async def start(self) -> None:
        await super().start()
        self._prober_task = asyncio.create_task(self._probe_loop())

    async def close(self) -> None:
        if self._prober_task is not None:
            self._prober_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._prober_task
            self._prober_task = None
        for flight in list(self._route_flights.values()):
            flight.cancel()
        for link in self.links.values():
            await link.close()
        await super().close()

    # -- health probing ---------------------------------------------------------------

    def _mark_dead(self, node: str, reason: str) -> None:
        if self.alive.get(node, False):
            self.alive[node] = False
            self.cluster_stats["workers_ejected"] += 1
        self.links[node].reset(reason)

    def _mark_alive(self, node: str) -> None:
        if not self.alive.get(node, True):
            self.alive[node] = True
            self.cluster_stats["workers_rejoined"] += 1

    def _alive_nodes(self) -> list[str]:
        return [n for n in self.ring.nodes if self.alive.get(n, False)]

    async def probe_workers(self) -> dict[str, bool]:
        """One probe round over every configured worker; returns liveness."""

        async def one(node: str) -> None:
            try:
                await self.links[node].probe(self.probe_timeout)
            except (WorkerDown, asyncio.TimeoutError) as exc:
                self._mark_dead(node, getattr(exc, "reason", str(exc)))
            else:
                self._mark_alive(node)

        await asyncio.gather(*(one(node) for node in self.ring.nodes))
        return dict(self.alive)

    async def _probe_loop(self) -> None:
        while True:
            with contextlib.suppress(Exception):
                await self.probe_workers()
            await asyncio.sleep(self.probe_interval)

    # -- core routing -----------------------------------------------------------------

    async def _forward_payload(
        self, key: str, payload: dict[str, Any], on_event=None
    ) -> tuple[str, dict[str, Any]]:
        """Forward along the key's preference order; (node, terminal frame).

        Transport failures eject the node and try the next preference; a
        structured answer — success *or* worker-reported error — returns.
        """
        attempts: list[str] = []
        tried = 0
        for node in self.ring.preference(key):
            if not self.alive.get(node, False):
                attempts.append(f"{node}: ejected")
                continue
            try:
                frame = await self.links[node].request(payload, on_event=on_event)
            except WorkerDown as exc:
                self._mark_dead(node, exc.reason)
                self.cluster_stats["routes_failed_over"] += 1
                attempts.append(f"{node}: {exc.reason}")
                tried += 1
                continue
            if (
                not frame.get("ok")
                and (frame.get("error") or {}).get("code") == protocol.E_CANCELLED
            ):
                # The *worker* abandoned the request (it is shutting down
                # and cancelled its in-flight work) — our waiter is still
                # here.  That is a node failure, not an answer: eject and
                # fail the key over like any transport death.
                self._mark_dead(node, "cancelled in-flight work (shutting down)")
                self.cluster_stats["routes_failed_over"] += 1
                attempts.append(f"{node}: cancelled in-flight work")
                tried += 1
                continue
            return node, frame
        self.cluster_stats["routes_unavailable"] += 1
        detail = "; ".join(attempts) if attempts else "no workers configured"
        raise Unavailable(
            f"no live worker for key {key[:12]}… "
            f"({tried} transport failure(s); {detail}); retry later"
        )

    async def _route_cell_body(
        self, key: str, payload: dict[str, Any], cell_name: str
    ) -> dict[str, Any]:
        """One routed cell: store probe, then forward-with-failover."""
        arrays = bool(payload.get("arrays"))
        store = self.scheduler.result_cache
        if store is not None:
            loop = asyncio.get_running_loop()
            cached = await loop.run_in_executor(None, store.load, key)
            if cached is not None:
                self.cluster_stats["router_cache_hits"] += 1
                self.stats.cells_cache_hits += 1
                return {
                    "result": protocol.result_to_wire(
                        cached, include_arrays=arrays
                    ),
                    "meta": {
                        "cell": cell_name,
                        "key": key,
                        "cache_hit": True,
                        "coalesced": False,
                        "worker": None,
                        "seconds": 0.0,
                    },
                }
        node, frame = await self._forward_payload(key, payload)
        if not frame.get("ok"):
            err = frame.get("error") or {}
            raise ProtocolError(
                f"worker {node}: {err.get('message', 'unspecified error')}",
                code=err.get("code", E_INTERNAL),
            )
        out = {k: v for k, v in frame.items() if k not in ("id", "ok", "type")}
        meta = dict(out.get("meta") or {})
        worker_key = meta.get("key")
        if worker_key is not None and worker_key != key:
            # The worker derived a different content key for the same cell:
            # its base config diverges from the router's.  Serving that
            # silently would break bit-identity — fail loudly instead.
            raise ProtocolError(
                f"worker {node} keyed this cell {worker_key[:12]}… but the "
                f"router keyed it {key[:12]}…; node configs diverge",
                code=E_INTERNAL,
            )
        meta["worker"] = node
        out["meta"] = meta
        self.cluster_stats["routes_forwarded"] += 1
        return out

    async def _route_flight(
        self, key: str, payload: dict[str, Any], cell_name: str
    ) -> dict[str, Any]:
        """Router-level single-flight around :meth:`_route_cell_body`."""
        fkey = (key, bool(payload.get("arrays")))
        flight = self._route_flights.get(fkey)
        coalesced = flight is not None
        if coalesced:
            self.cluster_stats["routes_coalesced"] += 1
            self.stats.cells_coalesced += 1
        else:
            flight = asyncio.create_task(
                self._route_cell_body(key, payload, cell_name)
            )
            self._route_flights[fkey] = flight

            def _cleanup(task: asyncio.Task, k=fkey) -> None:
                if self._route_flights.get(k) is task:
                    del self._route_flights[k]

            flight.add_done_callback(_cleanup)
        settled = await asyncio.shield(flight)
        # Per-waiter meta: joining waiters see coalesced=True without
        # mutating the shared flight payload.
        out = dict(settled)
        meta = dict(out.get("meta") or {})
        meta["coalesced"] = bool(meta.get("coalesced")) or coalesced
        out["meta"] = meta
        return out

    # -- request handlers --------------------------------------------------------------

    async def _handle_cell(self, req: dict, send: Send) -> dict:
        cell, config = protocol.normalize_cell_request(req, self.config)
        deadline = protocol.parse_deadline(req, self.default_deadline)
        self.stats.cells_submitted += 1
        plan = await self.scheduler.plan([cell], config)
        key = plan.keys[cell]
        payload = {k: v for k, v in req.items() if k != "id"}
        if deadline is not None:
            payload["deadline"] = deadline
        return await self._route_flight(key, payload, cell.name)

    async def _handle_sweep(self, req: dict, send: Send) -> dict:
        cells, config = protocol.normalize_sweep_request(req, self.config)
        deadline = protocol.parse_deadline(req, self.default_deadline)
        rid = req.get("id")
        arrays = bool(req.get("arrays"))
        schemes = list(req.get("schemes"))
        plan = await self.scheduler.plan(cells, config)
        total = len(cells)
        self.stats.cells_submitted += total
        settled = 0
        rows: list[dict[str, Any] | None] = [None] * total
        event_tasks: list[asyncio.Task] = []

        def emit(cell_name: str, ok: bool) -> None:
            # Sync context (worker event callbacks), so the send is a task;
            # the handler drains `event_tasks` before its terminal frame so
            # clients always see every event first.
            nonlocal settled
            settled += 1
            task = asyncio.get_running_loop().create_task(
                send(
                    {
                        "id": rid,
                        "type": "event",
                        "event": "cell",
                        "cell": cell_name,
                        "ok": ok,
                        "done": settled,
                        "total": total,
                    }
                )
            )
            event_tasks.append(task)
            self._event_tasks.add(task)
            task.add_done_callback(self._event_tasks.discard)

        # Split the sweep by owning worker (ejected nodes excluded up
        # front; a node dying mid-sub-sweep fails over per-cell below).
        alive = self._alive_nodes()
        groups: dict[str | None, list[int]] = {}
        for i, cell in enumerate(cells):
            owner: str | None
            try:
                owner = self.ring.owner(plan.keys[cell], alive=alive)
            except LookupError:
                owner = None
            groups.setdefault(owner, []).append(i)

        async def route_one_cell(i: int) -> dict[str, Any]:
            """Per-cell fallback path (failover / no owner)."""
            cell = cells[i]
            payload: dict[str, Any] = {
                "type": "cell",
                "kind": cell.kind,
                "workload": cell.workload,
                "label": cell.label,
                "arrays": arrays,
            }
            if req.get("config"):
                payload["config"] = req["config"]
            if deadline is not None:
                payload["deadline"] = deadline
            try:
                out = await self._route_flight(
                    plan.keys[cell], payload, cell.name
                )
            except asyncio.CancelledError:
                raise
            except ProtocolError as exc:
                self.stats.count_error(exc.code)
                return {
                    "ok": False,
                    "label": schemes[i],
                    "cell": cell.name,
                    "error": {"code": exc.code, "message": str(exc)},
                }
            except Exception as exc:  # noqa: BLE001 — row-level fail-soft
                self.stats.count_error(E_INTERNAL)
                return {
                    "ok": False,
                    "label": schemes[i],
                    "cell": cell.name,
                    "error": {"code": E_INTERNAL, "message": str(exc)},
                }
            meta = out.get("meta") or {}
            return {
                "ok": True,
                "label": schemes[i],
                "cell": cell.name,
                "result": out["result"],
                "cache_hit": bool(meta.get("cache_hit")),
                "coalesced": bool(meta.get("coalesced")),
            }

        async def run_group(owner: str | None, idxs: list[int]) -> None:
            if owner is None:
                self.cluster_stats["routes_unavailable"] += len(idxs)
                for i in idxs:
                    rows[i] = {
                        "ok": False,
                        "label": schemes[i],
                        "cell": cells[i].name,
                        "error": {
                            "code": E_UNAVAILABLE,
                            "message": "no live worker in the ring",
                        },
                    }
                    emit(cells[i].name, False)
                return
            sub: dict[str, Any] = {
                "type": "sweep",
                "workload": req["workload"],
                "schemes": [schemes[i] for i in idxs],
                "arrays": arrays,
            }
            if req.get("config"):
                sub["config"] = req["config"]
            if deadline is not None:
                sub["deadline"] = deadline

            def on_worker_event(frame: dict[str, Any]) -> None:
                # Renumber: the worker's done/total covers its sub-sweep
                # only; the client sees router-wide progress.
                if frame.get("event") == "cell":
                    emit(frame.get("cell", "?"), bool(frame.get("ok")))

            async def fail_over(reason: str) -> None:
                self._mark_dead(owner, reason)
                self.cluster_stats["routes_failed_over"] += len(idxs)
                # The owner died mid-sub-sweep: re-route each member
                # individually (the per-key preference order decides the
                # new homes; the key-addressed store keeps it exactly-once).
                for i in idxs:
                    rows[i] = await route_one_cell(i)
                    emit(cells[i].name, bool(rows[i].get("ok")))

            try:
                frame = await self.links[owner].request(
                    sub, on_event=on_worker_event
                )
            except WorkerDown as exc:
                await fail_over(exc.reason)
                return
            if (
                not frame.get("ok")
                and (frame.get("error") or {}).get("code") == protocol.E_CANCELLED
            ):
                await fail_over("cancelled in-flight work (shutting down)")
                return
            if not frame.get("ok"):
                err = frame.get("error") or {}
                code = err.get("code", E_INTERNAL)
                self.stats.count_error(code)
                for i in idxs:
                    rows[i] = {
                        "ok": False,
                        "label": schemes[i],
                        "cell": cells[i].name,
                        "error": {
                            "code": code,
                            "message": f"worker {owner}: "
                            f"{err.get('message', 'unspecified error')}",
                        },
                    }
                return
            sub_rows = frame.get("rows") or []
            self.cluster_stats["routes_forwarded"] += len(idxs)
            for j, i in enumerate(idxs):
                rows[i] = sub_rows[j] if j < len(sub_rows) else {
                    "ok": False,
                    "label": schemes[i],
                    "cell": cells[i].name,
                    "error": {
                        "code": E_INTERNAL,
                        "message": f"worker {owner} returned too few rows",
                    },
                }

        await asyncio.gather(*(run_group(o, idxs) for o, idxs in groups.items()))
        if event_tasks:
            await asyncio.gather(*event_tasks, return_exceptions=True)
        return {
            "rows": list(rows),
            "meta": {
                "cells_total": total,
                "shards": {
                    owner or "(unavailable)": len(idxs)
                    for owner, idxs in groups.items()
                },
            },
        }

    # -- routed experiments -------------------------------------------------------------

    def _experiment_engine_pool(self) -> ClusterExecutor:
        if self._cluster_executor is None:
            self._cluster_executor = ClusterExecutor(
                self, asyncio.get_running_loop()
            )
        return self._cluster_executor

    async def route_engine_cell(self, cell: SimCell, config: PaperConfig):
        """Route one engine-submitted cell; returns ``(result, seconds)``.

        One member of a family the :class:`ClusterExecutor` bridge routes,
        with ``timed_execute_cell``'s reply.  Overrides are sent as absolute
        values for every whitelisted knob, so runner-level config
        variation in those knobs survives the wire; everything else
        (geometry, table fractions, ...) must match across the cluster's
        base configs — the key cross-check in ``_route_cell_body`` turns
        any divergence into a loud structured error.
        """
        overrides = {name: getattr(config, name) for name in CONFIG_OVERRIDES}
        payload = {
            "type": "cell",
            "kind": cell.kind,
            "workload": cell.workload,
            "label": cell.label,
            "config": overrides,
            "arrays": True,
        }
        plan = await self.scheduler.plan([cell], config)
        out = await self._route_flight(plan.keys[cell], payload, cell.name)
        result = protocol.result_from_wire(out["result"])
        seconds = float((out.get("meta") or {}).get("seconds") or 0.0)
        return result, seconds

    # -- observability ------------------------------------------------------------------

    async def _handle_health(self, req: dict, send: Send) -> dict:
        return {
            "health": self.stats.health(
                __version__,
                extra={
                    "protocol": PROTOCOL_VERSION,
                    "role": "router",
                    "queue_depth": len(self._route_flights),
                    "workers": {
                        node: {
                            "alive": self.alive.get(node, False),
                            "connected": self.links[node].connected,
                        }
                        for node in self.ring.nodes
                    },
                    "workers_alive": len(self._alive_nodes()),
                    "ring": {
                        "nodes": len(self.ring.nodes),
                        "vnodes": self.ring.vnodes,
                    },
                },
            )
        }

    async def _handle_stats(self, req: dict, send: Send) -> dict:
        async def fetch(node: str) -> dict[str, Any] | None:
            if not self.alive.get(node, False):
                return None
            try:
                frame = await self.links[node].request(
                    {"type": "stats"}, timeout=self.probe_timeout
                )
            except (WorkerDown, asyncio.TimeoutError):
                return None
            return frame.get("stats") if frame.get("ok") else None

        per_worker = dict(
            zip(
                self.ring.nodes,
                await asyncio.gather(*(fetch(n) for n in self.ring.nodes)),
            )
        )
        totals: dict[str, int] = {}
        for snap in per_worker.values():
            for name, value in ((snap or {}).get("cells") or {}).items():
                if isinstance(value, (int, float)) and name != "cache_hit_ratio":
                    totals[name] = totals.get(name, 0) + int(value)
        return {
            "stats": self.stats.snapshot(
                queue_depth=len(self._route_flights),
                in_flight=len(self._route_flights),
                extra={
                    "version": __version__,
                    "protocol": PROTOCOL_VERSION,
                    "role": "router",
                    "cluster": {
                        "alive": self._alive_nodes(),
                        "routing": dict(self.cluster_stats),
                        "workers": per_worker,
                        "worker_cell_totals": totals,
                    },
                },
            )
        }
