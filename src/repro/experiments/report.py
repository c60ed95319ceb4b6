"""Experiment results and rendering.

An :class:`ExperimentResult` is a labelled grid — rows are benchmarks (or
thread mixes), columns are techniques — matching the bar groups of the
paper's figures, plus free-form notes and raw arrays.  Rendering produces
the monospace tables written to EXPERIMENTS.md and printed by the CLI,
including a unicode bar strip so the "shape" of each figure is visible in
text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "ExperimentResult",
    "render_table",
    "render_bars",
    "sparkline",
    "save_result",
    "load_result",
]


@dataclass
class ExperimentResult:
    """A reproduced figure: row × column grid of values."""

    experiment_id: str
    title: str
    columns: list[str]
    rows: dict[str, dict[str, float]] = field(default_factory=dict)
    unit: str = "%"
    notes: list[str] = field(default_factory=list)
    #: Raw per-set arrays or other bulk data keyed by name.
    arrays: dict[str, Any] = field(default_factory=dict)
    #: Execution counters from the parallel engine (cache hits/misses,
    #: per-cell wall times, jobs).  Empty for figures not yet on the engine.
    engine_stats: dict[str, Any] = field(default_factory=dict)

    def add_row(self, label: str, values: dict[str, float]) -> None:
        unknown = set(values) - set(self.columns)
        if unknown:
            raise KeyError(f"values for undeclared columns: {sorted(unknown)}")
        self.rows[label] = dict(values)

    def add_average_row(self, label: str = "Average") -> None:
        """Column-wise mean over the existing rows (the paper's last group)."""
        if not self.rows:
            raise ValueError("no rows to average")
        avg = {}
        for col in self.columns:
            vals = [r[col] for r in self.rows.values() if col in r]
            if vals:
                avg[col] = float(np.mean(vals))
        self.rows[label] = avg

    def column(self, name: str, include_average: bool = False) -> dict[str, float]:
        return {
            label: row[name]
            for label, row in self.rows.items()
            if name in row and (include_average or label != "Average")
        }

    def value(self, row: str, col: str) -> float:
        return self.rows[row][col]

    def note(self, text: str) -> None:
        self.notes.append(text)

    def to_markdown(self) -> str:
        head = f"### {self.experiment_id}: {self.title}\n\n"
        return head + render_table(self, markdown=True) + (
            "\n" + "\n".join(f"- {n}" for n in self.notes) + "\n" if self.notes else ""
        )

    def engine_summary(self) -> str:
        """One-line execution summary (empty string when no engine stats)."""
        s = self.engine_stats
        if not s:
            return ""
        batched = (
            f", {s.get('cells_batched', 0)} batched into "
            f"{s.get('families_batched', 0)} families"
            if s.get("families_batched")
            else ""
        )
        paths = ", ".join(f"{p}={n}" for p, n in s.get("paths", {}).items())
        return (
            f"engine: {s.get('cells_total', 0)} cells, "
            f"{s.get('cache_hits', 0)} cached, "
            f"{s.get('cache_misses', 0)} simulated{batched}, "
            f"jobs={s.get('jobs', 1)}, {s.get('wall_seconds', 0.0):.2f}s"
            + (f"; paths: {paths}" if paths else "")
        )

    def __str__(self) -> str:
        lines = [f"== {self.experiment_id}: {self.title} ==", render_table(self)]
        lines.extend(f"  note: {n}" for n in self.notes)
        if self.engine_stats:
            lines.append(f"  {self.engine_summary()}")
        return "\n".join(lines)


def save_result(result: ExperimentResult, path: str | Path) -> Path:
    """Persist a result as JSON (+ a sibling ``.npz`` for array payloads).

    Scalars in ``arrays`` ride along in the JSON; NumPy arrays go to the
    ``.npz``.  Non-serialisable payloads (e.g. dataclasses) are dropped with
    their keys recorded under ``"skipped_arrays"``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    scalars: dict[str, Any] = {}
    arrays: dict[str, np.ndarray] = {}
    skipped: list[str] = []
    for key, value in result.arrays.items():
        if isinstance(value, np.ndarray):
            arrays[key] = value
        elif isinstance(value, (int, float, str, bool)):
            scalars[key] = value
        else:
            skipped.append(key)
    doc = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "columns": result.columns,
        "rows": result.rows,
        "unit": result.unit,
        "notes": result.notes,
        "scalar_arrays": scalars,
        "skipped_arrays": skipped,
        "has_npz": bool(arrays),
        "engine_stats": result.engine_stats,
    }
    path.write_text(json.dumps(doc, indent=2))
    if arrays:
        np.savez_compressed(path.with_suffix(".npz"), **arrays)
    return path


def load_result(path: str | Path) -> ExperimentResult:
    """Inverse of :func:`save_result`."""
    path = Path(path)
    doc = json.loads(path.read_text())
    result = ExperimentResult(
        experiment_id=doc["experiment_id"],
        title=doc["title"],
        columns=list(doc["columns"]),
        unit=doc.get("unit", "%"),
        notes=list(doc.get("notes", [])),
        engine_stats=dict(doc.get("engine_stats", {})),
    )
    result.rows = {label: dict(row) for label, row in doc["rows"].items()}
    result.arrays.update(doc.get("scalar_arrays", {}))
    npz_path = path.with_suffix(".npz")
    if doc.get("has_npz") and npz_path.exists():
        with np.load(npz_path) as data:
            for key in data.files:
                result.arrays[key] = data[key]
    return result


def _fmt(v: float) -> str:
    if v != v:  # NaN
        return "-"
    if abs(v) >= 1e6:
        return f"{v:.2e}"
    if abs(v) >= 100:
        return f"{v:.0f}"
    return f"{v:.2f}"


def render_table(result: ExperimentResult, markdown: bool = False) -> str:
    cols = result.columns
    label_w = max([len(r) for r in result.rows] + [9])
    col_w = {c: max(len(c), 10) for c in cols}
    if markdown:
        header = "| " + "benchmark".ljust(label_w) + " | " + " | ".join(
            c.ljust(col_w[c]) for c in cols
        ) + " |"
        sep = "|" + "-" * (label_w + 2) + "|" + "|".join("-" * (col_w[c] + 2) for c in cols) + "|"
        lines = [header, sep]
        for label, row in result.rows.items():
            cells = [(_fmt(row[c]) if c in row else "-").ljust(col_w[c]) for c in cols]
            lines.append("| " + label.ljust(label_w) + " | " + " | ".join(cells) + " |")
        return "\n".join(lines)
    header = "benchmark".ljust(label_w) + "  " + "  ".join(c.rjust(col_w[c]) for c in cols)
    lines = [header, "-" * len(header)]
    for label, row in result.rows.items():
        cells = [(_fmt(row[c]) if c in row else "-").rjust(col_w[c]) for c in cols]
        lines.append(label.ljust(label_w) + "  " + "  ".join(cells))
    return "\n".join(lines)


_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: np.ndarray, width: int = 64) -> str:
    """Downsample a long array to a unicode mini-histogram (Figure 1)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return ""
    if values.size > width:
        # Max-pool so hot sets stay visible after downsampling.
        pad = (-values.size) % width
        padded = np.pad(values, (0, pad), constant_values=0)
        values = padded.reshape(width, -1).max(axis=1)
    top = values.max()
    if top <= 0:
        return _BLOCKS[0] * values.size
    idx = np.minimum((values / top * (len(_BLOCKS) - 1)).astype(int), len(_BLOCKS) - 1)
    return "".join(_BLOCKS[i] for i in idx)


def render_bars(result: ExperimentResult, column: str, width: int = 40) -> str:
    """Horizontal signed bar chart of one column (one paper bar group)."""
    rows = result.column(column, include_average=True)
    if not rows:
        return "(no data)"
    label_w = max(len(r) for r in rows)
    peak = max(abs(v) for v in rows.values()) or 1.0
    lines = [f"[{result.experiment_id}] {column} ({result.unit})"]
    for label, v in rows.items():
        n = int(round(abs(v) / peak * width))
        bar = ("-" if v < 0 else "+") * n
        lines.append(f"{label.ljust(label_w)} {_fmt(v):>10} {bar}")
    return "\n".join(lines)
