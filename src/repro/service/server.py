"""The asyncio JSON-lines-over-TCP simulation daemon.

One :class:`ReproServer` owns a :class:`~repro.service.scheduler.CellScheduler`
(persistent worker pool + single-flight + backpressure), a small thread
pool for blocking ``experiment`` runs, and a :class:`ServiceStats` surface.
Each accepted connection reads newline-delimited JSON requests; every
request is dispatched as its own task, so one connection can pipeline many
requests and slow work never blocks ``health`` probes.

Serving semantics (locked by ``tests/service/test_server.py``):

* responses/events for concurrent requests interleave, correlated by the
  request ``id``; a per-connection write lock keeps frames atomic;
* client disconnect cancels that connection's outstanding request tasks,
  which releases their scheduler waiters (and thereby any flight no other
  client is waiting on);
* ``experiment`` requests run the *unmodified* figure runners in a thread,
  with two engine context hooks: a progress hook streaming one event per
  settled cell, and the scheduler's persistent pool injected via
  :func:`~repro.experiments.engine.parallel.engine_pool_scope` so even
  whole-figure grids reuse the warm workers;
* every error is a structured frame (``overloaded`` / ``timeout`` /
  ``bad_request`` / ``internal``) — a request is never answered with a
  hang or a dropped connection.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Any, Awaitable, Callable

from .. import __version__
from ..experiments.config import PaperConfig
from ..experiments.engine.parallel import engine_pool_scope, progress_scope
from . import protocol
from .protocol import (
    E_BAD_REQUEST,
    E_CANCELLED,
    E_INTERNAL,
    E_OVERLOADED,
    E_TIMEOUT,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_frame,
)
from .scheduler import CellScheduler, DeadlineExceeded, Overloaded
from .stats import ServiceStats

__all__ = ["ReproServer"]

Send = Callable[[dict[str, Any]], Awaitable[None]]


class ReproServer:
    """Long-lived simulation job server (see module docstring)."""

    def __init__(
        self,
        config: PaperConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 1,
        max_pending: int = 64,
        use_processes: bool = True,
        default_deadline: float | None = None,
    ):
        self.config = config if config is not None else PaperConfig()
        if self.config.cell_timeout is None and default_deadline is not None:
            # The engine-side per-cell budget defaults to the request deadline
            # discipline, so a hung worker cannot outlive its request forever.
            self.config = replace(self.config, cell_timeout=default_deadline)
        self.host = host
        self.port = port
        self.default_deadline = default_deadline
        self.stats = ServiceStats()
        self.scheduler = CellScheduler(
            self.config,
            workers=workers,
            max_pending=max_pending,
            use_processes=use_processes,
            stats=self.stats,
        )
        #: Blocking ``run_experiment`` calls run here — never on the cell
        #: pool, so a figure waiting on its cells can't deadlock itself.
        self._experiment_pool = ThreadPoolExecutor(
            max_workers=max(2, workers), thread_name_prefix="repro-experiment"
        )
        self._server: asyncio.AbstractServer | None = None
        self._stopping: asyncio.Event | None = None
        self._connections: set[asyncio.Task] = set()

    # -- lifecycle ------------------------------------------------------------------

    async def start(self) -> None:
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`close`) arrives."""
        assert self._stopping is not None, "call start() first"
        await self._stopping.wait()
        await self.close()

    async def close(self) -> None:
        if self._stopping is not None:
            self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Tear down live connections: their readline loops would otherwise
        # linger as pending tasks past loop shutdown.
        for conn in list(self._connections):
            conn.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        await self.scheduler.close()
        self._experiment_pool.shutdown(wait=False, cancel_futures=True)

    # -- connection handling ----------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections_open += 1
        self.stats.connections_total += 1
        conn_task = asyncio.current_task()
        if conn_task is not None:
            self._connections.add(conn_task)
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()

        async def send(frame: dict[str, Any]) -> None:
            async with write_lock:
                writer.write(encode_frame(frame))
                await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if not line:
                    break  # EOF: client went away.
                if line.strip() == b"":
                    continue
                task = asyncio.create_task(self._serve_request(line, send))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except asyncio.CancelledError:
            # Server shutdown cancelled this handler.  Absorb it so the task
            # finishes cleanly: asyncio.streams' internal done-callback calls
            # task.exception(), which would otherwise spam the loop's
            # exception handler with the CancelledError.
            pass
        finally:
            # Disconnect: cancel this connection's outstanding work so the
            # scheduler can release flights nobody else is waiting on.
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            self.stats.connections_open -= 1
            if conn_task is not None:
                self._connections.discard(conn_task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_request(self, line: bytes, send: Send) -> None:
        t0 = time.perf_counter()
        rid: Any = None
        rtype = "invalid"
        try:
            req = decode_frame(line)
            rid = req.get("id")
            rtype = req.get("type")
            self.stats.count_request(str(rtype))
            if rtype not in protocol.REQUEST_TYPES:
                raise ProtocolError(
                    f"unknown request type {rtype!r}; known: "
                    f"{list(protocol.REQUEST_TYPES)}"
                )
            handler = getattr(self, f"_handle_{rtype}")
            payload = await handler(req, send)
            await send({"id": rid, "ok": True, "type": "result", **payload})
        except asyncio.CancelledError:
            # Connection teardown (or server shutdown): best-effort courtesy
            # frame; the transport may already be gone.
            self.stats.count_error(E_CANCELLED)
            with contextlib.suppress(Exception):
                await asyncio.wait_for(
                    send(error_frame(rid, E_CANCELLED, "request cancelled")), 0.2
                )
            raise
        except ProtocolError as exc:
            await self._send_error(send, rid, exc.code, str(exc))
        except Overloaded as exc:
            await self._send_error(send, rid, E_OVERLOADED, str(exc))
        except DeadlineExceeded as exc:
            await self._send_error(send, rid, E_TIMEOUT, str(exc))
        except Exception as exc:  # noqa: BLE001 — every failure must answer.
            await self._send_error(
                send, rid, E_INTERNAL, f"{type(exc).__name__}: {exc}"
            )
        finally:
            self.stats.observe_latency(str(rtype), time.perf_counter() - t0)

    async def _send_error(self, send: Send, rid: Any, code: str, message: str) -> None:
        self.stats.count_error(code)
        with contextlib.suppress(ConnectionError):
            await send(error_frame(rid, code, message))

    # -- request handlers --------------------------------------------------------------

    async def _handle_health(self, req: dict, send: Send) -> dict:
        return {
            "health": self.stats.health(
                __version__,
                extra={
                    "protocol": PROTOCOL_VERSION,
                    "queue_depth": self.scheduler.queue_depth,
                    "in_flight": self.scheduler.in_flight,
                    "max_pending": self.scheduler.max_pending,
                },
            )
        }

    async def _handle_stats(self, req: dict, send: Send) -> dict:
        return {
            "stats": self.stats.snapshot(
                queue_depth=self.scheduler.queue_depth,
                in_flight=self.scheduler.in_flight,
                extra={
                    "version": __version__,
                    "protocol": PROTOCOL_VERSION,
                    "max_pending": self.scheduler.max_pending,
                },
            )
        }

    async def _handle_shutdown(self, req: dict, send: Send) -> dict:
        assert self._stopping is not None
        # Ack first; serve_forever tears the server down right after.
        asyncio.get_running_loop().call_soon(self._stopping.set)
        return {"shutting_down": True}

    async def _handle_cell(self, req: dict, send: Send) -> dict:
        cell, config = protocol.normalize_cell_request(req, self.config)
        deadline = protocol.parse_deadline(req, self.default_deadline)
        plan = await self.scheduler.plan([cell], config)
        outcome = await self.scheduler.submit(cell, config, plan, deadline=deadline)
        return {
            "result": protocol.result_to_wire(
                outcome.result, include_arrays=bool(req.get("arrays"))
            ),
            "meta": {
                "cell": cell.name,
                "key": outcome.key,
                "cache_hit": outcome.cache_hit,
                "coalesced": outcome.coalesced,
                "seconds": round(outcome.seconds, 6),
                "worker": outcome.worker,
            },
        }

    async def _handle_sweep(self, req: dict, send: Send) -> dict:
        cells, config = protocol.normalize_sweep_request(req, self.config)
        deadline = protocol.parse_deadline(req, self.default_deadline)
        rid = req.get("id")
        include_arrays = bool(req.get("arrays"))
        plan = await self.scheduler.plan(cells, config)
        total = len(cells)
        settled = 0

        async def one(index: int, cell) -> dict[str, Any]:
            nonlocal settled
            try:
                outcome = await self.scheduler.submit(
                    cell, config, plan, deadline=deadline
                )
                row: dict[str, Any] = {
                    "ok": True,
                    "label": cell.label,
                    "cell": cell.name,
                    "result": protocol.result_to_wire(
                        outcome.result, include_arrays=include_arrays
                    ),
                    "cache_hit": outcome.cache_hit,
                    "coalesced": outcome.coalesced,
                }
            except asyncio.CancelledError:
                raise
            except ProtocolError as exc:
                self.stats.count_error(exc.code)
                row = self._sweep_error(cell, exc.code, exc)
            except Overloaded as exc:
                self.stats.count_error(E_OVERLOADED)
                row = self._sweep_error(cell, E_OVERLOADED, exc)
            except DeadlineExceeded as exc:
                self.stats.count_error(E_TIMEOUT)
                row = self._sweep_error(cell, E_TIMEOUT, exc)
            except Exception as exc:  # noqa: BLE001
                self.stats.count_error(E_INTERNAL)
                row = self._sweep_error(cell, E_INTERNAL, exc)
            settled += 1
            await send(
                {
                    "id": rid,
                    "type": "event",
                    "event": "cell",
                    "cell": cell.name,
                    "ok": row["ok"],
                    "done": settled,
                    "total": total,
                }
            )
            return row

        # Fail-soft per cell: one overloaded/failed label never voids the
        # rows that did complete.  gather preserves declaration order.
        rows = await asyncio.gather(*(one(i, c) for i, c in enumerate(cells)))
        return {"rows": list(rows), "meta": {"cells_total": total}}

    @staticmethod
    def _sweep_error(cell, code: str, exc: Exception) -> dict[str, Any]:
        return {
            "ok": False,
            "label": cell.label,
            "cell": cell.name,
            "error": {"code": code, "message": str(exc)},
        }

    async def _handle_experiment(self, req: dict, send: Send) -> dict:
        eid, config = protocol.normalize_experiment_request(req, self.config)
        deadline = protocol.parse_deadline(req, self.default_deadline)
        rid = req.get("id")
        loop = asyncio.get_running_loop()
        events: asyncio.Queue[dict[str, Any] | None] = asyncio.Queue()

        def hook(cell_name: str, done: int, total: int, cached: bool) -> None:
            # Called from the experiment thread (inside run_cells).
            loop.call_soon_threadsafe(
                events.put_nowait,
                {
                    "id": rid,
                    "type": "event",
                    "event": "cell",
                    "cell": cell_name,
                    "cached": cached,
                    "done": done,
                    "total": total,
                },
            )

        def run_blocking():
            from ..experiments import run_experiment

            # Stream cell completions and reuse the scheduler's warm pool
            # for the figure's own cell grid.
            with progress_scope(hook), engine_pool_scope(self.scheduler.executor):
                return run_experiment(eid, config)

        async def pump() -> None:
            while True:
                event = await events.get()
                if event is None:
                    return
                with contextlib.suppress(ConnectionError):
                    await send(event)

        pump_task = asyncio.create_task(pump())
        try:
            fut = loop.run_in_executor(self._experiment_pool, run_blocking)
            if deadline is not None:
                try:
                    result = await asyncio.wait_for(asyncio.shield(fut), deadline)
                except asyncio.TimeoutError:
                    self.stats.deadline_timeouts += 1
                    raise DeadlineExceeded(
                        f"deadline of {deadline:g}s elapsed running {eid}"
                    ) from None
            else:
                result = await fut
        except BaseException:
            pump_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await pump_task
            raise
        # Normal completion: every hook event was enqueued on the loop before
        # the executor future resolved (FIFO call_soon_threadsafe), so the
        # sentinel lands after them and the pump flushes everything before
        # the terminal result frame goes out.
        events.put_nowait(None)
        await pump_task
        engine_stats = getattr(result, "engine_stats", None) or {}
        # The figure's cells ran on this daemon's pool or hit its store.
        self.stats.cells_executed += int(engine_stats.get("cache_misses", 0))
        self.stats.cells_cache_hits += int(engine_stats.get("cache_hits", 0))
        self.stats.families_batched += int(engine_stats.get("families_batched", 0))
        self.stats.cells_batched += int(engine_stats.get("cells_batched", 0))
        return {
            "experiment": protocol.experiment_result_to_wire(result),
            "meta": {"experiment": eid},
        }
