"""End-to-end benchmark of the reproduction: five workloads, one command.

    python benchmarks/e2e/run.py [--workload NAME]... [--seed N] [--seconds S]
                                 [--trace [0|1]] [--out FILE]

Every run of a workload happens in fresh subprocesses (``loadgen.py``) with
their own temporary directory under ``.e2e_work/``: one per set-up, the last
of which goes on to the timed phase.  The command prints every metric as
``workload metric value unit``, compares output digests with the ones pinned
in ``digests.json`` and across workloads, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  It exits non-zero when an
operation failed or a digest did not match; a workload whose run processes
crashed or overran their budget counts as one failed operation, and the
other workloads still run and report.

``--trace 1`` runs each workload twice, untraced and traced, and reports the
per-layer metrics of ``BENCHMARK.json`` instead of the end-to-end ones.
``--out FILE`` appends the full report of the invocation as one JSON line;
``agree.py`` compares two such files.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"
WORK_ROOT = ROOT / ".e2e_work" / f"run-{os.getpid()}"

#: Wall-clock budget of one workload in one invocation, all processes included.
WORKLOAD_BUDGET_S = 170.0

#: Workload pairs whose digests must agree for the same seed.
SAME_OUTPUT = (("replay-cold", "replay-warm"), ("serve-mixed", "route-mixed"))


class RunFailed(RuntimeError):
    """A run subprocess crashed or overran its budget."""


# -- statistics ---------------------------------------------------------------------


def tail_percentile(samples, q: float = 0.99, beyond: int = 10) -> float | None:
    """The nearest-rank ``q`` percentile, or ``None`` unless at least
    ``beyond`` samples lie above it."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if len(ordered) - rank < beyond:
        return None
    return ordered[rank - 1]


def layer_unit(name: str) -> str:
    if name.endswith(("_ratio", "_balance")) or name == "trace_overhead":
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s/op"
    return "1/op"


def op_seconds(report: dict) -> float:
    """The median scaled time of one operation.

    A replay's median is taken per experiment, and for the rest of the
    replay, over the run's replays and then summed: a slow spell of the host
    that covers part of one replay then moves only the parts it covered.
    """
    parts = report.get("parts")
    if not parts:
        return statistics.median(report["scaled"])
    names = dict.fromkeys(name for part in parts for name in part)
    return sum(statistics.median(p[n] for p in parts if n in p) for n in names)


def end_to_end(report: dict, setups: list[tuple[float, float]]) -> dict[str, tuple[float, str]]:
    """The gated metrics of one run; ``setups`` holds ``(seconds, host factor)``
    of each set-up.  Every time is scaled by the host factor probed next to it."""
    return {
        "setup_s": (statistics.median(s / f for s, f in setups), "s"),
        "p50_ms": (1000.0 * op_seconds(report), "ms"),
        "ops_per_s": (len(report["ops"]) / report["work_s"], "1/s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }


def extras(report: dict) -> dict[str, tuple[float, str]]:
    """Numbers printed beside the end-to-end metrics but not gated."""
    ops = report["ops"]
    lo, hi = report["window"]
    out = {
        "samples": (len(ops), "count"),
        "wall_s": (hi - lo, "s"),
        "failed_frac": (report["failed"] / max(report["attempted"], 1), "ratio"),
        "host_factor": (statistics.median(o / s for o, s in zip(ops, report["scaled"])), "ratio"),
        "wall_p50_ms": (1000.0 * statistics.median(ops), "ms"),
        "wall_ops_per_s": (len(ops) / (hi - lo), "1/s"),
    }
    p99 = tail_percentile(report["scaled"])
    if p99 is not None:
        out["p99_ms"] = (1000.0 * p99, "ms")
    if report.get("accesses"):
        out["sim_maccess_per_s"] = (report["accesses"] / op_seconds(report) / 1e6, "M/s")
    return out


def per_layer(traced: dict, plain: dict, trace_dir: Path) -> dict[str, tuple[float, str]]:
    from loadgen import SERVICE_LAYERS
    from spans import layer_metrics, load_spans

    ops = len(traced["ops"])
    untraced = {"probe_s": traced["probe_s"], "startup_s": traced.get("startup_s", 0.0)}
    values = layer_metrics(
        load_spans(trace_dir), tuple(traced["window"]), ops, traced.get("experiments", ()),
        untraced,
    )
    engine = traced.get("engine") or {}
    values["engine.hit_ratio"] = (
        engine["cache_hits"] / engine["cells_total"] if engine.get("cells_total") else 0.0
    )
    values["engine.batched_ratio"] = (
        engine["cells_batched"] / engine["cache_misses"] if engine.get("cache_misses") else 0.0
    )
    values.update(dict.fromkeys(SERVICE_LAYERS, 0.0), **traced.get("layers", {}))
    values["trace_overhead"] = op_seconds(traced) / op_seconds(plain) - 1.0
    return {name: (value, layer_unit(name)) for name, value in values.items()}


# -- subprocesses -------------------------------------------------------------------


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a run's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn(role: str, workload: str, args, deadline: float, trace_dir: Path | None = None) -> dict:
    """Run ``loadgen.py`` once in a fresh directory; its JSON report.

    The report's ``setup_factor`` becomes the mean of the host factors probed
    just before the process starts and just after its set-up.
    """
    from loadgen import host_factor

    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    cmd = [sys.executable, str(HERE / "loadgen.py"), role, workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--work", str(work)]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    before = host_factor()
    cmd += ["--t0", repr(time.perf_counter())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"{workload}: {role} overran the {WORKLOAD_BUDGET_S:g}s budget")
    finally:
        _stop_group(proc.pid)
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RunFailed(f"{workload}: {role} exited {proc.returncode}\n{err[-4000:]}")
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_factor"] = (before + report["setup_factor"]) / 2
    return report


def run_workload(workload: str, args) -> dict:
    """All processes of one workload; the report with its computed metrics."""
    from loadgen import WORKLOADS

    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    if not args.trace:
        reports = [spawn("setup", workload, args, deadline)
                   for _ in range(WORKLOADS[workload].setups - 1)]
        report = spawn("run", workload, args, deadline)
        setups = [(r["setup_s"], r["setup_factor"]) for r in [*reports, report]]
        # A run in which every request failed has nothing to time.
        report["metrics"] = end_to_end(report, setups) if report["ops"] else {}
        report["extras"] = extras(report) if report["ops"] else {}
        return report
    plain = spawn("run", workload, args, deadline)
    trace_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-spans-", dir=WORK_ROOT))
    try:
        report = spawn("run", workload, args, deadline, trace_dir)
        timed = report["ops"] and plain["ops"]
        report["metrics"] = per_layer(report, plain, trace_dir) if timed else {}
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    report["extras"] = {}
    for key in ("attempted", "failed", "errors"):
        report[key] += plain[key]
    if report["digest"] != plain["digest"]:
        report["failed"] += 1
        report["errors"].append("the traced run's digest differs from the untraced run's")
    return report


def crashed(error: str) -> dict:
    """The report of a workload whose run processes did not report."""
    return {"attempted": 1, "failed": 1, "errors": [error], "digest": None,
            "metrics": {}, "extras": {}}


def check_digests(reports: dict, seed: int) -> None:
    """Count a digest that misses its pin or its partner as a failure.

    A workload without a digest has already failed and is not counted again.
    """
    pins = json.loads(DIGESTS.read_text()).get(str(seed), {})
    digests = {name: r["digest"] for name, r in reports.items() if r["digest"] is not None}
    for name, digest in digests.items():
        pin = pins.get(name)
        if pin is not None and digest != pin:
            reports[name]["failed"] += 1
            reports[name]["errors"].append(f"digest {digest} differs from the pin {pin}")
    for a, b in SAME_OUTPUT:
        if a in digests and b in digests and digests[a] != digests[b]:
            for name in (a, b):
                reports[name]["failed"] += 1
                reports[name]["errors"].append(f"{a} and {b} digests differ")


# -- entry point --------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(BENCHMARK.read_text()) if BENCHMARK.exists() else {}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--seconds", type=float, default=spec.get("run_seconds", 10),
                        help="length of the timed phase (default: run_seconds of "
                             "BENCHMARK.json, which a harness passes here)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="bare or 1: report the per-layer metrics; 0: the end-to-end ones")
    parser.add_argument("--out", type=Path, help="append the full report as one JSON line")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from loadgen import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {list(WORKLOADS)}")
    gated = [m["name"] for m in spec.get("per_layer" if args.trace else "end_to_end", [])]

    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    reports = {}
    try:
        for name in names:
            try:
                reports[name] = run_workload(name, args)
            except RunFailed as exc:
                reports[name] = crashed(str(exc))
    finally:
        shutil.rmtree(WORK_ROOT, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.parent.rmdir()
    check_digests(reports, args.seed)

    metrics, runs = {}, {}
    for name, report in reports.items():
        missing = sorted(set(gated) - set(report["metrics"]))
        if missing and not report["failed"]:
            report["failed"] += 1
            report["errors"].append(f"did not produce {missing}")
        for err in report["errors"]:
            print(f"{name} error: {err}", file=sys.stderr)
        shown = {**report["metrics"], **report["extras"]}
        for metric, (value, unit) in shown.items():
            print(f"{name} {metric} {value!r} {unit}")
        prefix = "" if len(reports) == 1 else f"{name}/"
        for m in gated:
            if m in report["metrics"]:
                value, unit = report["metrics"][m]
                metrics[prefix + m] = {"value": value, "unit": unit}
        runs[name] = {k: report[k] for k in ("attempted", "failed", "digest", "errors")}
        runs[name]["metrics"] = {m: value for m, (value, _unit) in shown.items()}
    if args.out is not None:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"seed": args.seed, "trace": args.trace, "workloads": runs}) + "\n")
    failed = sum(r["failed"] for r in reports.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
