"""The cluster router daemon (``repro route``).

A :class:`ClusterRouter` is a :class:`~repro.service.server.ReproServer`
that owns no simulation workers of its own: it speaks the identical wire
protocol to clients and serves requests by consistent-hashing them onto a
ring of ordinary worker daemons and forwarding the frames.  Because keys
are content-addressed, any worker computes the identical result entry —
placement is purely a locality/caching decision, which is what makes the
whole design safe:

routing
    ``cell`` and ``sweep`` requests run through the server's own handlers
    and :class:`~repro.service.scheduler.CellScheduler`, so the router
    gets the daemon's store probe, single-flight coalescing, admission
    (``max_pending``), waiter deadlines and last-waiter cancellation.
    The one step it does differently is settling a missed key: it
    forwards one ``cell`` request to the key's ring owner
    (:meth:`ClusterRouter._forward_cell`) and rehydrates the reply.
    ``experiment`` requests are placed by a digest of their id and
    overrides and forwarded whole: one worker runs the figure exactly as
    ``serve`` does, and its progress events are relayed to the client.

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
import hashlib
from typing import Any

from ..experiments.config import PaperConfig
from ..experiments.engine.cells import SimCell
from ..experiments.engine.parallel import CellPlan
from ..service import protocol
from ..service.protocol import (
    CONFIG_OVERRIDES,
    E_INTERNAL,
    E_UNAVAILABLE,
    ProtocolError,
    encode_frame,
)
from ..service.scheduler import Settled
from ..service.server import ReproServer, Send
from .link import WorkerDown, WorkerLink
from .ring import DEFAULT_VNODES, HashRing

__all__ = ["ClusterRouter", "Unavailable", "parse_worker"]


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
        # workers=1/use_processes=False: the scheduler's pool is a single
        # idle thread — the router never simulates; its scheduler settles
        # every missed key by forwarding it.
        super().__init__(
            config,
            host,
            port,
            workers=1,
            max_pending=max_pending,
            use_processes=False,
            default_deadline=default_deadline,
        )
        self.scheduler.settle = self._forward_cell
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
        self._routing: dict[str, int] = {
            "routes_forwarded": 0,
            "routes_failed_over": 0,
            "routes_unavailable": 0,
            "workers_ejected": 0,
            "workers_rejoined": 0,
        }
        self._prober_task: asyncio.Task | None = None

    @property
    def cluster_stats(self) -> dict[str, int]:
        """Routing counters; store hits and coalescing are the scheduler's."""
        return {
            **self._routing,
            "router_cache_hits": self.stats.cells_cache_hits,
            "routes_coalesced": self.stats.cells_coalesced,
        }

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
        for link in self.links.values():
            await link.close()
        await super().close()

    # -- health probing ---------------------------------------------------------------

    def _mark_dead(self, node: str, reason: str) -> None:
        if self.alive.get(node, False):
            self.alive[node] = False
            self._routing["workers_ejected"] += 1
        self.links[node].reset(reason)

    def _mark_alive(self, node: str) -> None:
        if not self.alive.get(node, True):
            self.alive[node] = True
            self._routing["workers_rejoined"] += 1

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

    # -- forwarding -------------------------------------------------------------------

    async def _forward_payload(
        self, key: str, payload: dict[str, Any], on_event=None
    ) -> tuple[str, dict[str, Any]]:
        """Forward along the key's preference order; (node, terminal frame).

        Transport failures eject the node and try the next preference; a
        worker-reported error is raised with the worker's code.
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
                self._routing["routes_failed_over"] += 1
                attempts.append(f"{node}: {exc.reason}")
                tried += 1
                continue
            if not frame.get("ok"):
                err = frame.get("error") or {}
                if err.get("code") == protocol.E_CANCELLED:
                    # The *worker* abandoned the request (it is shutting
                    # down and cancelled its in-flight work) — our waiter is
                    # still here.  That is a node failure, not an answer:
                    # eject and fail the key over like any transport death.
                    self._mark_dead(node, "cancelled in-flight work (shutting down)")
                    self._routing["routes_failed_over"] += 1
                    attempts.append(f"{node}: cancelled in-flight work")
                    tried += 1
                    continue
                raise ProtocolError(
                    f"worker {node}: {err.get('message', 'unspecified error')}",
                    code=err.get("code", E_INTERNAL),
                )
            self._routing["routes_forwarded"] += 1
            return node, frame
        self._routing["routes_unavailable"] += 1
        detail = "; ".join(attempts) if attempts else "no workers configured"
        raise Unavailable(
            f"no live worker for key {key[:12]}… "
            f"({tried} transport failure(s); {detail}); retry later"
        )

    async def _forward_cell(
        self, cell: SimCell, config: PaperConfig, plan: CellPlan
    ) -> Settled:
        """The router's :attr:`CellScheduler.settle`: one ``cell`` request
        to the key's worker.

        Overrides go as absolute values of every whitelisted knob, so the
        request's config survives the wire; everything else (geometry,
        table fractions, ...) must match across the cluster's base configs,
        and the key cross-check turns any divergence into a loud error.
        The worker publishes the result, so the router stores nothing.
        """
        key = plan.keys[cell]
        payload = {
            "type": "cell",
            "kind": cell.kind,
            "workload": cell.workload,
            "label": cell.label,
            "config": {name: getattr(config, name) for name in CONFIG_OVERRIDES},
            "arrays": True,
        }
        node, frame = await self._forward_payload(key, payload)
        meta = frame.get("meta") or {}
        if meta.get("key") != key:
            # Serving a differently keyed answer would break bit-identity.
            raise ProtocolError(
                f"worker {node} keyed this cell {str(meta.get('key'))[:12]}… "
                f"but the router keyed it {key[:12]}…; node configs diverge",
                code=E_INTERNAL,
            )
        return Settled(
            result=protocol.result_from_wire(frame["result"]),
            cache_hit=bool(meta.get("cache_hit")),
            worker=node,
        )

    async def _handle_experiment(self, req: dict, send: Send) -> dict:
        """Forward the whole figure to one worker; relay its progress."""
        eid, _config = protocol.normalize_experiment_request(req, self.config)
        deadline = protocol.parse_deadline(req, self.default_deadline)
        payload = {k: v for k, v in req.items() if k != "id"}
        if deadline is not None:
            payload["deadline"] = deadline
        placement = hashlib.sha256(
            encode_frame({"experiment": eid, "config": req.get("config") or {}})
        ).hexdigest()
        rid = req.get("id")
        relays: list[asyncio.Task] = []

        def relay(event: dict[str, Any]) -> None:
            # Called synchronously by the link's reader, so each send is a
            # task; all are drained before the terminal frame goes out.
            relays.append(asyncio.ensure_future(send({**event, "id": rid})))

        try:
            node, frame = await self._forward_payload(
                placement, payload, on_event=relay
            )
        finally:
            await asyncio.gather(*relays, return_exceptions=True)
        return {
            "experiment": frame["experiment"],
            "meta": {**(frame.get("meta") or {}), "worker": node},
        }

    # -- observability ------------------------------------------------------------------

    async def _handle_health(self, req: dict, send: Send) -> dict:
        reply = await super()._handle_health(req, send)
        reply["health"].update(
            role="router",
            workers={
                node: {
                    "alive": self.alive.get(node, False),
                    "connected": self.links[node].connected,
                }
                for node in self.ring.nodes
            },
            workers_alive=len(self._alive_nodes()),
            ring={"nodes": len(self.ring.nodes), "vnodes": self.ring.vnodes},
        )
        return reply

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
        reply = await super()._handle_stats(req, send)
        reply["stats"].update(
            role="router",
            cluster={
                "alive": self._alive_nodes(),
                "routing": self.cluster_stats,
                "workers": per_worker,
                "worker_cell_totals": totals,
            },
        )
        return reply
