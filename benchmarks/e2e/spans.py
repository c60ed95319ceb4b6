"""Merge the span files of a traced run and turn them into per-layer metrics.

A span's self time is its duration minus the part of its interval that its
child spans cover, wherever the children ran: a pool worker's spans name
their parent in the submitting process, and children that ran in parallel
are counted once (the union of their intervals).  Per-layer metrics are given
per operation of the workload (one replay, one grid, one request) so that
they compare between runs that complete different numbers of operations.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "LAYERS",
    "Span",
    "layer_metrics",
    "load_spans",
    "sequential_classes",
    "self_times",
    "union_length",
]

#: Layers reported with ``.calls`` and ``.self_s``.
LAYERS = (
    "workloads",
    "trace_io",
    "trace_arena",
    "engine_run",
    "engine_family",
    "engine_cell",
    "store_load",
    "store_save",
    "indexing",
    "fastsim",
    "fastpolicy",
    "fastassoc",
    "aux",
    "simulator",
    "uniformity",
    "sequential",
    "server",
)

#: Layers reported with ``.self_s`` only.
SELF_ONLY_LAYERS = ("warm", "engine_plan", "multithread", "three_c")

#: ``engine="auto"`` dispatchers that may drop to the per-access loop; a
#: ``simulate`` span under one of them is a fallback.
FAST_DISPATCHERS = frozenset(
    {
        "fastassoc:simulate_progassoc",
        "fastpolicy:simulate_policy",
        "fastpolicy:simulate_policy_set_associative",
        "aux:simulate_augmented",
        "aux:simulate_aux",
        "three_c:classify",
    }
)

#: A ``simulate`` span with no ancestor in these layers bypassed the engine.
ENGINE_LAYERS = frozenset({"engine_cell", "engine_family"})


@dataclass(frozen=True)
class Span:
    id: str
    parent: str | None
    pid: int
    name: str
    start: float
    end: float
    hit: bool | None = None

    @property
    def layer(self) -> str:
        return self.name.partition(":")[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def load_spans(trace_dir: str | Path) -> list[Span]:
    """Every span written under ``trace_dir`` (one file per pid)."""
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(Span(*json.loads(line)) for line in fh if line.strip())
    return spans


def union_length(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Total length covered by ``intervals`` after clipping them to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _children(spans: list[Span]) -> dict[str, list[Span]]:
    children: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return children


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span id → duration minus the time its children cover."""
    children = _children(spans)
    return {
        s.id: s.duration
        - union_length(((c.start, c.end) for c in children.get(s.id, ())), s.start, s.end)
        for s in spans
    }


def sequential_classes(spans: list[Span]) -> tuple[list[Span], list[Span]]:
    """``(fallbacks, bypasses)`` among the ``sequential`` (``simulate``) spans.

    A fallback runs under a fast-path dispatcher; a bypass has no engine cell
    or family above it.
    """
    by_id = {s.id: s for s in spans}
    fallbacks, bypasses = [], []
    for span in spans:
        if span.layer != "sequential":
            continue
        ancestors = []
        parent = by_id.get(span.parent)
        while parent is not None:
            ancestors.append(parent)
            parent = by_id.get(parent.parent)
        if any(a.name in FAST_DISPATCHERS for a in ancestors):
            fallbacks.append(span)
        if not any(a.layer in ENGINE_LAYERS for a in ancestors):
            bypasses.append(span)
    return fallbacks, bypasses


def layer_metrics(
    spans: list[Span], window: tuple[float, float], ops: int, experiments=(), untraced=None
) -> dict[str, float]:
    """Per-operation layer metrics over the spans that start inside ``window``.

    ``calls`` counts the spans a layer was entered with from another layer;
    ``self_s`` sums the self time of all its spans.  ``untraced`` maps a
    metric name to seconds inside the window that the benchmark timed itself
    and no span can cover (probing the host, starting a replay process); each
    is reported per operation.  ``unattributed_s`` is the rest of the window
    that no top-level span covers.
    """
    lo, hi = window
    spans = [s for s in spans if lo <= s.start <= hi]
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    loads = hits = 0
    for span in spans:
        parent = by_id.get(span.parent)
        entered = parent is None or parent.layer != span.layer
        calls[span.layer] += entered
        self_s[span.layer] += selfs[span.id]
        if span.layer == "store_load" and entered:
            loads += 1
            hits += bool(span.hit)
    per_op = 1.0 / max(ops, 1)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer] * per_op
        out[f"{layer}.self_s"] = self_s[layer] * per_op
    for layer in SELF_ONLY_LAYERS:
        out[f"{layer}.self_s"] = self_s[layer] * per_op
    out["store_load.hit_ratio"] = hits / loads if loads else 0.0
    fallbacks, bypasses = sequential_classes(spans)
    out["sequential.fallback_calls"] = len(fallbacks) * per_op
    out["sequential.bypass_calls"] = len(bypasses) * per_op
    out["sequential.bypass_s"] = sum(s.duration for s in bypasses) * per_op
    for eid in experiments:
        out[f"experiment.{eid}_s"] = (
            sum(s.duration for s in spans if s.name == f"experiment:{eid}") * per_op
        )
    untraced = untraced or {}
    for name, seconds in untraced.items():
        out[name] = seconds * per_op
    roots = [(s.start, s.end) for s in spans if s.parent not in by_id]
    covered = union_length(roots, lo, hi) + sum(untraced.values())
    out["unattributed_s"] = ((hi - lo) - covered) * per_op
    return out
