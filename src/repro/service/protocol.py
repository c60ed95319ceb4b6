"""Wire protocol of the simulation job server: JSON lines over TCP.

Every frame is one JSON object terminated by ``\\n``.  Clients send
*request* frames carrying a client-chosen ``id``; the server answers each
request with zero or more *event* frames (streaming progress) followed by
exactly one terminal frame — a *result* (``ok: true``) or an *error*
(``ok: false`` with a structured code).  Frames for concurrent requests on
one connection may interleave; the ``id`` is the correlation key.

Request types
-------------
``cell``
    One engine cell: ``{"type": "cell", "kind": "indexing", "workload":
    "fft", "label": "XOR", "config": {...}, "deadline": 5.0, "arrays":
    true}``.  Normalized through the *engine's own*
    :func:`~repro.experiments.engine.cells.make_cell`, so the server
    accepts exactly the cells the in-process engine accepts and derives
    byte-identical result-cache keys (via
    :func:`~repro.experiments.engine.parallel.plan_cells`).
``sweep``
    Several cells of one workload in a single request: ``{"type":
    "sweep", "workload": "fft", "schemes": ["baseline", "XOR", "4way"]}``.
    Labels map onto ``baseline`` / ``indexing`` / ``setassoc`` cells.
``experiment``
    A full registered figure by id: ``{"type": "experiment",
    "experiment": "fig4", "config": {...}}``, streaming one event per
    settled cell.
``health`` / ``stats``
    Observability (uptime, version, queue depth, coalescing and cache
    counters, latency histograms).
``shutdown``
    Ask the daemon to stop accepting work and exit cleanly.

Error codes
-----------
``bad_request``  malformed frame or unknown workload/scheme/experiment;
``overloaded``   admission queue full — explicit backpressure, retriable;
``timeout``      the request's deadline elapsed before completion;
``cancelled``    the waiter went away (client disconnect);
``internal``     unexpected server-side failure (cell errors included);
``unavailable``  no worker can take the request right now (cluster router:
                 every preference-order node is down) — retriable.

``config`` overrides are whitelisted (see :data:`CONFIG_OVERRIDES`): a
request may change trace length, seed, scale, engine selection, the cell
timeout, the profile seed offset, the odd multiplier and the auxiliary
structure knobs, but never cache locations or worker counts — those
belong to the operator who started the daemon.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Any, Callable

import numpy as np

from ..core.result import ENGINES, SimulationResult
from ..experiments.config import PaperConfig
from ..experiments.engine.cells import CELL_KINDS, SimCell, make_cell
from ..experiments.report import ExperimentResult

__all__ = [
    "PROTOCOL_VERSION",
    "E_BAD_REQUEST",
    "E_OVERLOADED",
    "E_TIMEOUT",
    "E_CANCELLED",
    "E_INTERNAL",
    "E_UNAVAILABLE",
    "ERROR_CODES",
    "REQUEST_TYPES",
    "CONFIG_OVERRIDES",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "encode_frame",
    "decode_frame",
    "error_frame",
    "config_from_overrides",
    "normalize_cell_request",
    "normalize_sweep_request",
    "normalize_experiment_request",
    "parse_deadline",
    "sweep_cell",
    "result_to_wire",
    "result_from_wire",
    "experiment_result_to_wire",
]

PROTOCOL_VERSION = 1

#: Upper bound on one frame (defence against unbounded buffering by a
#: misbehaving peer; 8 MiB comfortably fits any per-set array payload).
MAX_FRAME_BYTES = 8 * 1024 * 1024

E_BAD_REQUEST = "bad_request"
E_OVERLOADED = "overloaded"
E_TIMEOUT = "timeout"
E_CANCELLED = "cancelled"
E_INTERNAL = "internal"
E_UNAVAILABLE = "unavailable"
ERROR_CODES = (
    E_BAD_REQUEST,
    E_OVERLOADED,
    E_TIMEOUT,
    E_CANCELLED,
    E_INTERNAL,
    E_UNAVAILABLE,
)

REQUEST_TYPES = ("cell", "sweep", "experiment", "health", "stats", "shutdown")

#: Request-overridable config knobs → coercion functions.  Everything else
#: (cache directories, jobs, result-cache toggles) is operator-owned.
CONFIG_OVERRIDES: dict[str, Callable[[Any], Any]] = {
    "ref_limit": int,
    "seed": int,
    "workload_scale": float,
    "engine": str,
    "cell_timeout": lambda v: None if v is None else float(v),
    "profile_seed_offset": int,
    "odd_multiplier": int,
    "victim_lines": int,
    "aux_streams": int,
    "aux_allocate": str,
}


class ProtocolError(ValueError):
    """A request that cannot be honoured; maps to a ``bad_request`` error."""

    def __init__(self, message: str, code: str = E_BAD_REQUEST):
        super().__init__(message)
        self.code = code


# -- framing -----------------------------------------------------------------------


def encode_frame(obj: dict[str, Any]) -> bytes:
    """One JSON object, compact separators, newline-terminated."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode() + b"\n"


def decode_frame(line: bytes | str) -> dict[str, Any]:
    """Parse one frame; raises :class:`ProtocolError` on malformed input."""
    if isinstance(line, bytes):
        if len(line) > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        raise ProtocolError("empty frame")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("frame must be a JSON object")
    return obj


def error_frame(request_id: Any, code: str, message: str) -> dict[str, Any]:
    assert code in ERROR_CODES, code
    return {
        "id": request_id,
        "ok": False,
        "type": "error",
        "error": {"code": code, "message": message},
    }


# -- request normalization ---------------------------------------------------------


def config_from_overrides(
    overrides: dict[str, Any] | None, base: PaperConfig
) -> PaperConfig:
    """Apply a request's whitelisted ``config`` overrides to the server's base."""
    if overrides is None:
        return base
    if not isinstance(overrides, dict):
        raise ProtocolError("'config' must be an object")
    updates: dict[str, Any] = {}
    for key, value in overrides.items():
        coerce = CONFIG_OVERRIDES.get(key)
        if coerce is None:
            raise ProtocolError(
                f"config override {key!r} is not allowed; allowed: "
                f"{sorted(CONFIG_OVERRIDES)}"
            )
        try:
            updates[key] = coerce(value)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"config override {key!r}: {exc}") from exc
    if "engine" in updates and updates["engine"] not in ENGINES:
        raise ProtocolError(f"config override 'engine' must be one of {ENGINES}")
    if "aux_allocate" in updates and updates["aux_allocate"] not in (
        "miss",
        "always",
    ):
        raise ProtocolError("config override 'aux_allocate' must be 'miss' or 'always'")
    return replace(base, **updates) if updates else base


def _require_str(req: dict[str, Any], field: str) -> str:
    value = req.get(field)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"request field {field!r} must be a non-empty string")
    return value


def _check_workload(name: str) -> str:
    from ..workloads import available_workloads

    known = available_workloads()
    if name not in known:
        raise ProtocolError(f"unknown workload {name!r}; known: {known}")
    return name


def normalize_cell_request(
    req: dict[str, Any], base: PaperConfig
) -> tuple[SimCell, PaperConfig]:
    """A ``cell`` request → the exact :class:`SimCell` the engine would build.

    Reuses :func:`make_cell` (never re-implements it), so every parameter
    the engine folds into result-cache keys is captured here too.
    """
    config = config_from_overrides(req.get("config"), base)
    kind = _require_str(req, "kind")
    workload = _check_workload(_require_str(req, "workload"))
    label = _require_str(req, "label")
    try:
        cell = make_cell(kind, workload, label, config)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc
    return cell, config


def sweep_cell(workload: str, label: str, config: PaperConfig) -> SimCell:
    """Map one sweep label onto an engine cell (shared with tests): the
    baseline, a set-associative point, or else an indexing scheme."""
    kind = next(
        (k for k in ("baseline", "setassoc") if CELL_KINDS[k].accepts(label, config)),
        "indexing",
    )
    return make_cell(kind, workload, label, config)


def normalize_sweep_request(
    req: dict[str, Any], base: PaperConfig
) -> tuple[list[SimCell], PaperConfig]:
    """A ``sweep`` request → one cell per requested scheme label."""
    config = config_from_overrides(req.get("config"), base)
    workload = _check_workload(_require_str(req, "workload"))
    schemes = req.get("schemes")
    if not isinstance(schemes, list) or not schemes or not all(
        isinstance(s, str) and s for s in schemes
    ):
        raise ProtocolError("'schemes' must be a non-empty list of labels")
    cells = []
    for label in schemes:
        try:
            cells.append(sweep_cell(workload, label, config))
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
    return cells, config


def normalize_experiment_request(
    req: dict[str, Any], base: PaperConfig
) -> tuple[str, PaperConfig]:
    from ..experiments import available_experiments

    config = config_from_overrides(req.get("config"), base)
    eid = _require_str(req, "experiment")
    if eid not in available_experiments():
        raise ProtocolError(
            f"unknown experiment {eid!r}; known: {available_experiments()}"
        )
    return eid, config


def parse_deadline(req: dict[str, Any], default: float | None) -> float | None:
    """Per-request deadline in seconds (``None``/absent → server default)."""
    value = req.get("deadline", default)
    if value is None:
        return None
    try:
        deadline = float(value)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"'deadline' must be a number: {value!r}") from exc
    if deadline <= 0:
        raise ProtocolError("'deadline' must be positive")
    return deadline


# -- result serialization ----------------------------------------------------------


def result_to_wire(
    result: SimulationResult, include_arrays: bool = False
) -> dict[str, Any]:
    """A :class:`SimulationResult` as a JSON-safe dict.

    Scalars always; the per-set arrays only on request (they dominate the
    payload).  Everything is plain ints, and ``extra`` is in key order (as
    the result store writes it), so two serializations of the same result
    are byte-identical whichever engine or store produced it — the
    bit-identity contract the service tests assert rides on this.
    """
    doc: dict[str, Any] = {
        "model": result.model,
        "trace_name": result.trace_name,
        "accesses": int(result.accesses),
        "hits": int(result.hits),
        "misses": int(result.misses),
        "miss_rate": result.miss_rate,
        "lookup_cycles": int(result.lookup_cycles),
        "extra": {k: int(v) for k, v in sorted(result.extra.items())},
    }
    if include_arrays:
        for name in ("slot_accesses", "slot_hits", "slot_misses"):
            doc[name] = np.asarray(getattr(result, name)).astype(int).tolist()
    return doc


def result_from_wire(doc: dict[str, Any]) -> SimulationResult:
    """Inverse of :func:`result_to_wire` (requires the per-set arrays).

    The cluster router rehydrates every forwarded ``cell`` reply through
    this to settle its own flight; round-tripping is lossless, so routed
    results stay bit-identical to locally executed ones.
    """
    missing = [
        name
        for name in ("slot_accesses", "slot_hits", "slot_misses")
        if name not in doc
    ]
    if missing:
        raise ProtocolError(
            f"result payload lacks per-set arrays {missing}; "
            "request the cell with arrays=true"
        )
    return SimulationResult(
        model=doc["model"],
        trace_name=doc["trace_name"],
        accesses=int(doc["accesses"]),
        hits=int(doc["hits"]),
        misses=int(doc["misses"]),
        lookup_cycles=int(doc["lookup_cycles"]),
        slot_accesses=np.asarray(doc["slot_accesses"], dtype=np.int64),
        slot_hits=np.asarray(doc["slot_hits"], dtype=np.int64),
        slot_misses=np.asarray(doc["slot_misses"], dtype=np.int64),
        extra={k: int(v) for k, v in (doc.get("extra") or {}).items()},
    )


def experiment_result_to_wire(result: ExperimentResult) -> dict[str, Any]:
    """An :class:`ExperimentResult` grid as a JSON-safe dict (no bulk arrays)."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "columns": list(result.columns),
        "rows": {label: dict(row) for label, row in result.rows.items()},
        "unit": result.unit,
        "notes": list(result.notes),
        "engine_stats": result.engine_stats,
    }
