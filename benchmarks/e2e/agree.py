"""Do two sets of benchmark runs agree within the benchmark's own bounds?

    python benchmarks/e2e/agree.py A.jsonl B.jsonl

Each file holds the ``--out`` lines of untraced ``run.py`` invocations: one
set of runs, typically one line per seed.  For every workload × end-to-end
metric of ``BENCHMARK.json`` it prints both medians, the change from A to B,
each set's spread (distance between the quartiles as a share of the median)
and a verdict:

``agree``       the medians differ by no more than the metric's bound;
``disagree``    they differ by more, and both spreads are within the bound;
``unresolved``  a set has fewer than two runs, or a spread exceeds the bound.

Exits 1 when any row disagrees.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(path: str | Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) → the value of every untraced run in ``path``."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        if run.get("trace"):
            continue
        for workload, report in run["workloads"].items():
            for metric, value in report["metrics"].items():
                values[(workload, metric)].append(value)
    return values


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list[float], b: list[float], bound: float) -> tuple[str, float | None]:
    """The verdict for one row and the relative change of the medians."""
    if len(a) < 2 or len(b) < 2:
        return "unresolved", None
    change = statistics.median(b) / statistics.median(a) - 1.0
    if max(spread(a), spread(b)) > bound:
        return "unresolved", change
    return ("agree" if abs(change) <= bound else "disagree"), change


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bounds = {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    a, b = load_runs(argv[0]), load_runs(argv[1])
    rows = sorted({key for key in a.keys() & b.keys() if key[1] in bounds})
    print(f"{'workload':<13}{'metric':<13}{'median A':>12}{'median B':>12}"
          f"{'change':>9}{'spread A':>10}{'spread B':>10}{'bound':>7}  verdict")
    disagree = 0
    for workload, metric in rows:
        va, vb = a[(workload, metric)], b[(workload, metric)]
        bound = bounds[metric]
        word, change = verdict(va, vb, bound)
        disagree += word == "disagree"
        spreads = [f"{spread(v):>10.3f}" if len(v) >= 2 else f"{'-':>10}" for v in (va, vb)]
        print(f"{workload:<13}{metric:<13}{statistics.median(va):>12.4g}"
              f"{statistics.median(vb):>12.4g}"
              f"{'' if change is None else f'{change:+.3f}':>9}{spreads[0]}{spreads[1]}"
              f"{bound:>7.2f}  {word}")
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
