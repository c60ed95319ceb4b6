"""The benchmark's five workloads, as run inside one run subprocess.

``run.py`` starts this file once per set-up and once per measured run::

    python benchmarks/e2e/loadgen.py run WORKLOAD --seed N --seconds S --work DIR
    python benchmarks/e2e/loadgen.py setup WORKLOAD ...   # set up, tear down, exit
    python benchmarks/e2e/loadgen.py replay-pass --cache DIR --seed N

and reads one JSON report from the last line of its standard output.  Each
workload is a stream of timed operations: a whole replay of every registered
experiment (run as its own process, as ``make replay`` is), one ``run_cells``
call over a fixed cell grid, or one request to a daemon.  The load comes from
this one process with at most two threads, connections or pool workers.
Every timing is reported both as measured and scaled by the host's speed
probed next to it (:func:`host_factor`).  Every output is hashed (SHA-256)
so that ``run.py`` can compare it with the pinned digests and across
workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

_STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

#: Trace length of the replay workloads (references per workload trace).  Small
#: enough that a run repeats the replay three to seven times, so that each
#: experiment's median time is taken over three or more samples.
REPLAY_REFS = 2_000
#: Worker processes of the replays and of the trace generation in set-up.
JOBS = 2

#: The kernel grid: long traces × one label of every fast-path cell kind.  One
#: grid takes about 1.5 s, so a run times it about ten times.
GRID_REFS = 250_000
GRID_WORKLOADS = ("hmmer", "calculix", "patricia", "susan")
GRID_LABELS = (
    [("baseline", "baseline")]
    + [("indexing", s) for s in ("XOR", "Odd_Multiplier", "Prime_Modulo", "Givargis")]
    + [("progassoc", "B_Cache"), ("progassoc", "Column_associative")]
    + [("colassoc", "ColAssoc_XOR"), ("colassoc", "ColAssoc_Prime_Modulo")]
    + [("assocsweep", f"{k}way") for k in (1, 2, 4, 8, 16)]
    + [("policysweep", f"xor:{p}") for p in ("lru", "fifo", "plru", "mru", "lfu", "random")]
    + [("auxsweep", f"modulo:{c}4") for c in ("vc", "mc", "sb", "vc+sb")]
)

#: Trace length the daemons serve (``serve --refs``).
SERVE_REFS = 120_000
#: The hot set: 4 workloads × 8 cells, warmed in set-up.
HOT_WORKLOADS = ("crc", "fft", "qsort", "susan")
HOT_LABELS = (
    ("baseline", "baseline"),
    ("indexing", "XOR"),
    ("indexing", "Odd_Multiplier"),
    ("indexing", "Prime_Modulo"),
    ("setassoc", "2way"),
    ("setassoc", "4way"),
    ("colassoc", "ColAssoc_XOR"),
    ("progassoc", "B_Cache"),
)
#: Share of requests that draw a fresh ``odd_multiplier`` (a new key on a
#: warm trace); the rest draw from the hot set.
MISS_SHARE = 0.10
#: The service digest covers the results of the first this many requests; a
#: run sends at least this many.
DIGEST_REQUESTS = 1000
CLIENTS = 2
#: Seconds between two probes of the host in a service run.
SLICE_S = 0.5
#: Per-layer metrics read from the daemons' ``stats`` verb (zero elsewhere).
SERVICE_LAYERS = (
    "service.cells_executed",
    "service.coalesced",
    "service.rejected",
    "service.cache_hit_ratio",
    "service.cell_mean_ms",
    "cluster.routes_forwarded",
    "cluster.router_cache_hits",
    "cluster.routes_failed_over",
    "cluster.worker_balance",
)


# -- digests ------------------------------------------------------------------------


def _plain(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot hash {type(value).__name__}")


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_plain).encode()


def experiment_digest(results) -> str:
    """Hash id, columns, rows, notes and ndarray/scalar arrays of each result."""
    h = hashlib.sha256()
    for r in results:
        h.update(_canonical([r.experiment_id, r.columns, r.rows, r.notes]))
        for key in sorted(r.arrays):
            value = r.arrays[key]
            if isinstance(value, np.ndarray):
                h.update(_canonical([key, value.dtype.str, value.shape]))
                h.update(np.ascontiguousarray(value).tobytes())
            elif isinstance(value, (int, float, str, bool, np.generic)):
                h.update(_canonical([key, value]))
    return h.hexdigest()


def grid_digest(cells, results) -> str:
    """Hash counts and per-set arrays of every cell, in declared order."""
    h = hashlib.sha256()
    for cell in cells:
        r = results[(cell.workload, cell.label)]
        h.update(
            _canonical(
                [cell.workload, cell.label, r.accesses, r.hits, r.misses,
                 r.lookup_cycles, sorted(r.extra.items())]
            )
        )
        for arr in (r.slot_accesses, r.slot_hits, r.slot_misses):
            h.update(np.asarray(arr, dtype=np.int64).tobytes())
    return h.hexdigest()


def service_digest(results) -> str:
    """Hash the ``result`` payloads of the first requests, by request index."""
    h = hashlib.sha256()
    for i, result in enumerate(results[:DIGEST_REQUESTS]):
        h.update(_canonical([i, result]))
    return h.hexdigest()


# -- helpers ------------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set of this process and every child it has reaped."""
    return (
        max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        / 1024.0
    )


#: Seconds the probe takes on the reference host (the two-vCPU VM of
#: README.md at its usual speed).
PROBE_REF_S = 0.009


def _probe() -> float:
    """Seconds a fixed mix of interpreter and NumPy work takes."""
    t0 = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i & 7
    np.unique(np.random.default_rng(0).integers(0, 1 << 30, 50_000))
    return time.perf_counter() - t0


def host_factor(samples: int = 3) -> float:
    """How slow the host is right now: the probe's time divided by its time
    on the reference host.

    The VM this benchmark was built on runs the same code up to a third slower
    for minutes at a time, and up to twice as slow for seconds, when its
    neighbours are busy.  Every timing is divided by the factor probed next to
    it, so that runs made at different times compare.  The first probe only
    refills the caches that the work before it evicted; the median of the
    next ``samples`` is used.
    """
    _probe()
    return statistics.median(_probe() for _ in range(samples)) / PROBE_REF_S


def _last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


class Workload:
    """One workload: ``setup``, then ``measure`` for a number of seconds."""

    #: Set-ups per measured run (``setup_s`` is their median).
    setups = 3

    def __init__(self, seed: int, work: Path, trace_dir: Path | None):
        self.seed = seed
        self.work = work
        self.trace_dir = trace_dir

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def verify(self, report: dict) -> None:
        """Further output checks, made after the run's memory is read."""


def _report(ops, scaled, work_s, window, attempted, failed, errors, digest, **extra) -> dict:
    """A run's report: each operation's wall-clock and scaled (divided by the
    host factor) duration, the scaled length of the timed work, the window."""
    return {
        "ops": ops,
        "scaled": scaled,
        "work_s": work_s,
        "window": list(window),
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "digest": digest,
        **extra,
    }


# -- replay-cold / replay-warm ------------------------------------------------------


#: ``EngineStats`` counters summed over a workload's results.
ENGINE_KEYS = ("cells_total", "cache_hits", "cache_misses", "cells_batched")


#: Fewest operations a serial run times, so that a median has three samples
#: even while the host is slow.
MIN_OPS = 3


def _repeat(seconds: float, once) -> tuple[list[float], list[float], tuple[float, float]]:
    """Call ``once()`` ``MIN_OPS`` times, and again while half a call still
    fits into ``seconds``, so that the number of calls does not flip between
    runs whose calls take about ``seconds``.  The host is probed before the
    first call and after each.

    Returns the duration of each call, the host factor around it (the mean
    of the probes before and after it) and the measured window.
    """
    ops, probes = [], [host_factor()]
    start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start + ops[-1] / 2 < seconds:
        t0 = time.perf_counter()
        once()
        ops.append(time.perf_counter() - t0)
        probes.append(host_factor())
    factors = [(a + b) / 2 for a, b in zip(probes, probes[1:])]
    return ops, factors, (start, time.perf_counter())


def replay_pass(cache: Path, seed: int, started: float) -> dict:
    """Run every registered experiment once; the body of one replay process.

    The host is probed between experiments (the host's speed changes faster
    than a replay runs): ``scaled`` maps each experiment id to its time
    divided by the mean factor of the probes before and after it, and
    ``inner_s`` is the wall-clock time of the experiments and probes.
    ``startup_s`` is the time from ``started`` (``perf_counter()`` when the
    process was started) to the first experiment, ``probe_s`` the time spent
    probing.
    """
    from repro.experiments import PaperConfig, available_experiments, run_experiment

    config = replace(
        PaperConfig(), ref_limit=REPLAY_REFS, seed=seed, jobs=JOBS, trace_cache_dir=cache
    )
    results, errors, scaled = [], [], {}
    engine = dict.fromkeys(ENGINE_KEYS, 0)
    start = time.perf_counter()
    probe_s = 0.0

    def probe() -> float:
        nonlocal probe_s
        t0 = time.perf_counter()
        factor = host_factor(samples=1)
        probe_s += time.perf_counter() - t0
        return factor

    before = probe()
    for eid in available_experiments():
        t0 = time.perf_counter()
        try:
            result = run_experiment(eid, config)
        except Exception as exc:  # noqa: BLE001 — a failed experiment is reported
            errors.append(f"{eid}: {type(exc).__name__}: {exc}")
            result = None
        seconds = time.perf_counter() - t0
        after = probe()
        if result is not None:
            scaled[eid] = seconds / ((before + after) / 2)
            results.append(result)
            for key in engine:
                engine[key] += int(result.engine_stats.get(key, 0))
        before = after
    return {"digest": experiment_digest(results), "errors": errors, "engine": engine,
            "scaled": scaled, "inner_s": time.perf_counter() - start,
            "startup_s": start - started, "probe_s": probe_s}


class _Replay(Workload):
    def setup(self) -> None:
        # Each replay runs in a fresh process; set-up only loads the registry.
        import repro.experiments  # noqa: F401

    def _pass(self, cache: Path, traced: bool) -> dict:
        cmd = [sys.executable, str(Path(__file__)), "replay-pass", "--cache", str(cache),
               "--seed", str(self.seed)]
        if traced and self.trace_dir is not None:
            cmd += ["--trace-dir", str(self.trace_dir)]
        cmd += ["--t0", repr(time.perf_counter())]
        proc = subprocess.run(cmd, cwd=self.work, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"replay pass failed:\n{proc.stderr[-4000:]}")
        return _last_json_line(proc.stdout)

    def _measure(self, seconds: float, cold: bool, expected: str | None) -> dict:
        digests, errors, passes = [], [], []
        engine = dict.fromkeys(ENGINE_KEYS, 0)
        failed = 0

        def once() -> None:
            nonlocal failed
            cache = self.work / f"cold-{len(digests)}" if cold else self.cache
            out = self._pass(cache, traced=True)
            if cold:
                shutil.rmtree(cache)
            digests.append(out["digest"])
            passes.append(out)
            errors.extend(out["errors"])
            failed += bool(out["errors"]) or out["digest"] != (expected or digests[0])
            for key in engine:
                engine[key] += out["engine"][key]

        ops, factors, window = _repeat(seconds, once)
        # Each replay split into its scaled experiments and the rest (process
        # start, imports, digest, cache removal), scaled by the probes around
        # the replay, for per-part medians in ``run.py``.
        parts = [
            {**out["scaled"], "rest": (op - out["inner_s"]) / factor}
            for op, factor, out in zip(ops, factors, passes)
        ]
        scaled = [sum(part.values()) for part in parts]
        return _report(
            ops, scaled, sum(scaled), window, len(ops), failed, errors, digests[0],
            engine=engine, parts=parts,
            probe_s=window[1] - window[0] - sum(ops) + sum(out["probe_s"] for out in passes),
            startup_s=sum(out["startup_s"] for out in passes),
        )


class ReplayCold(_Replay):
    """Every registered experiment, each pass on empty trace and result caches."""

    #: Each set-up only starts a process and imports, so a run affords more.
    setups = 5

    def measure(self, seconds: float) -> dict:
        return self._measure(seconds, cold=True, expected=None)


class ReplayWarm(_Replay):
    """The same replay after an untimed cold pass in set-up."""

    #: Each set-up is a whole cold replay.
    setups = 2

    def setup(self) -> None:
        super().setup()
        self.cache = self.work / "cache"
        out = self._pass(self.cache, traced=False)
        if out["errors"]:
            raise RuntimeError(f"set-up replay failed: {out['errors']}")
        self.cold_digest = out["digest"]

    def measure(self, seconds: float) -> dict:
        return self._measure(seconds, cold=False, expected=self.cold_digest)


# -- kernel-grid --------------------------------------------------------------------


class KernelGrid(Workload):
    """One ``run_cells`` call over every fast-path cell kind on long traces."""

    def setup(self) -> None:
        from repro.experiments import PaperConfig
        from repro.experiments.engine import make_cell
        from repro.experiments.warm import profile_spec, warm_traces, workload_spec

        self.config = replace(
            PaperConfig(), ref_limit=GRID_REFS, seed=self.seed, jobs=1,
            use_result_cache=False, trace_cache_dir=self.work / "traces",
        )
        self.cells = [
            make_cell(kind, w, label, self.config)
            for w in GRID_WORKLOADS
            for kind, label in GRID_LABELS
        ]
        specs = [workload_spec(w, self.config) for w in GRID_WORKLOADS]
        specs += [profile_spec(w, self.config) for w in GRID_WORKLOADS]
        warm_traces(specs, self.config, jobs=JOBS)
        if self.trace_dir is not None:
            import tracer

            tracer.install(self.trace_dir)

    def measure(self, seconds: float) -> dict:
        from repro.experiments.engine import run_cells

        digests, errors = [], []
        engine = dict.fromkeys(ENGINE_KEYS, 0)
        accesses = 0

        def once() -> None:
            nonlocal accesses
            try:
                results, stats = run_cells(self.cells, self.config, jobs=1)
            except Exception as exc:  # noqa: BLE001 — a failed grid is reported
                errors.append(f"{type(exc).__name__}: {exc}")
                return
            digests.append(grid_digest(self.cells, results))
            accesses = sum(r.accesses for r in results.values())
            for key in engine:
                engine[key] += getattr(stats, key)

        ops, factors, window = _repeat(seconds, once)
        scaled = [op / factor for op, factor in zip(ops, factors)]
        failed = len(errors) + sum(d != digests[0] for d in digests)
        return _report(ops, scaled, sum(scaled), window, len(ops), failed, errors,
                       digests[0] if digests else None, engine=engine, accesses=accesses,
                       probe_s=window[1] - window[0] - sum(ops))


# -- serve-mixed / route-mixed ------------------------------------------------------


_LISTENING = re.compile(r"listening on ([\w.]+):(\d+)")


class _Daemon:
    """One ``repro-cache`` daemon started through ``launch.py``."""

    def __init__(self, argv: list[str], cwd: Path, trace_dir: Path | None):
        cwd.mkdir(parents=True, exist_ok=True)
        self.log = cwd / "daemon.log"
        cmd = [sys.executable, str(HERE / "launch.py")]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                cmd + argv, cwd=cwd, stdout=log, stderr=subprocess.STDOUT
            )
        self.host = self.port = None

    def wait_listening(self, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log.read_text())
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return f"{self.host}:{self.port}"
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError(f"daemon did not start:\n{self.log.read_text()[-4000:]}")

    def stop(self) -> None:
        from repro.service.client import ServiceClient, ServiceError

        if self.port is not None and self.proc.poll() is None:
            try:
                with ServiceClient(self.host, self.port, timeout=10) as client:
                    client.shutdown()
            except (OSError, ServiceError):
                pass  # killed below if it does not exit
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def request_stream(seed: int):
    """The seeded request stream: ``(kind, workload, label, config or None)``.

    90% are draws from the hot set; 10% are ``Odd_Multiplier`` cells with a
    fresh odd multiplier, a new result key on a warm trace.
    """
    rng = random.Random(seed)
    seen = {9}  # the configured multiplier is a hot key
    while True:
        if rng.random() < MISS_SHARE:
            multiplier = 9
            while multiplier in seen:
                multiplier = 2 * rng.randrange(1, 1 << 20) + 1
            seen.add(multiplier)
            yield ("indexing", rng.choice(HOT_WORKLOADS), "Odd_Multiplier",
                   {"odd_multiplier": multiplier})
        else:
            kind, label = rng.choice(HOT_LABELS)
            yield (kind, rng.choice(HOT_WORKLOADS), label, None)


_CELL_COUNTERS = ("executed", "coalesced", "rejected", "cache_hits")


def _delta(after: dict, before: dict, *path) -> float:
    """``after[path] - before[path]`` for two ``stats`` snapshots."""
    for key in path:
        after, before = after.get(key) or {}, before.get(key) or {}
    return float(after or 0) - float(before or 0)


def _hist_seconds(snapshot: dict) -> float:
    """Total seconds in the ``cell`` latency histogram of a snapshot."""
    hist = (snapshot.get("latency") or {}).get("cell") or {}
    return hist.get("mean_seconds", 0.0) * hist.get("count", 0)


class _Service(Workload):
    setups = 2

    def setup(self) -> None:
        from repro.service.client import ServiceClient

        self.daemons: list[_Daemon] = []
        host, port = self.start().rsplit(":", 1)
        self.address = (host, int(port))
        self.hot = {}
        with ServiceClient(*self.address) as client:
            # Twice: the second round must hit, and fills read-through tiers.
            for _round in range(2):
                for workload in HOT_WORKLOADS:
                    for kind, label in HOT_LABELS:
                        result = client.submit_cell(kind, workload, label)["result"]
                        if self.hot.setdefault((kind, workload, label), result) != result:
                            raise RuntimeError(f"hot cell {workload}/{label} changed")

    def daemon(self, name: str, argv: list[str]) -> _Daemon:
        d = _Daemon(argv, self.work / name, self.trace_dir)
        self.daemons.append(d)
        return d

    def serve_argv(self, *extra: str) -> list[str]:
        return ["serve", "--port", "0", "--jobs", "1", "--refs", str(SERVE_REFS),
                "--seed", str(self.seed), *extra]

    def close(self) -> None:
        for d in reversed(getattr(self, "daemons", [])):
            d.stop()

    def measure(self, seconds: float) -> dict:
        from repro.service.client import ServiceClient, ServiceError

        stream = request_stream(self.seed)
        lock = threading.Lock()
        # (slice, latency) of each answered request.
        samples: list[tuple[int, float]] = []
        results, requests, errors = [], [], []
        self.requests, self.results = requests, results
        # The timed phase is cut into slices.  The clients and this thread
        # meet at the barrier at both ends of each slice; between slices the
        # clients wait while this thread probes the host.
        slices = max(1, round(seconds / SLICE_S))
        barrier = threading.Barrier(CLIENTS + 1, timeout=60)
        starts: list[float] = []

        def client_loop() -> None:
            with ServiceClient(*self.address) as client:
                for k in range(slices):
                    barrier.wait()
                    deadline = starts[k] + SLICE_S
                    while True:
                        with lock:
                            # The digest covers a fixed prefix of the stream,
                            # so a short run goes on until it has been sent.
                            if time.perf_counter() >= deadline and (
                                k < slices - 1 or len(requests) >= DIGEST_REQUESTS
                            ):
                                break
                            i = len(requests)
                            requests.append(next(stream))
                            results.append(None)
                        kind, workload, label, config = requests[i]
                        t0 = time.perf_counter()
                        try:
                            reply = client.submit_cell(kind, workload, label, config=config)
                        except ServiceError as exc:
                            errors.append(f"request {i}: {exc}")
                            continue
                        samples.append((k, time.perf_counter() - t0))
                        results[i] = reply["result"]
                        if config is None and results[i] != self.hot[(kind, workload, label)]:
                            errors.append(f"request {i}: hot cell {workload}/{label} changed")
                    barrier.wait()

        def guarded() -> None:
            try:
                client_loop()
            except threading.BrokenBarrierError:
                pass  # another thread failed and reported why
            except Exception as exc:  # noqa: BLE001 — a dead client is a failure
                errors.append(f"client: {type(exc).__name__}: {exc}")
                barrier.abort()

        with ServiceClient(*self.address) as client:
            before = client.stats()
            threads = [threading.Thread(target=guarded) for _ in range(CLIENTS)]
            for t in threads:
                t.start()
            probes, lengths = [host_factor(samples=1)], []
            with contextlib.suppress(threading.BrokenBarrierError):
                for _k in range(slices):
                    starts.append(time.perf_counter())
                    try:
                        barrier.wait()
                        barrier.wait()
                    finally:
                        lengths.append(time.perf_counter() - starts[-1])
                        probes.append(host_factor(samples=1))
            for t in threads:
                t.join()
            window = (starts[0], time.perf_counter())
            after = client.stats()
        factors = [(a + b) / 2 for a, b in zip(probes, probes[1:])]
        return _report(
            [latency for _k, latency in samples],
            [latency / factors[k] for k, latency in samples],
            sum(length / f for length, f in zip(lengths, factors)),
            window, len(requests), len(errors), errors, service_digest(results),
            layers=self.layer_stats(before, after, len(requests)),
            probe_s=window[1] - window[0] - sum(lengths),
        )

    def verify(self, report: dict) -> None:
        """Recompute one hot and one fresh request in-process and compare."""
        from repro.experiments import PaperConfig
        from repro.experiments.engine import execute_cell, make_cell
        from repro.service.protocol import result_to_wire

        base = replace(PaperConfig(), ref_limit=SERVE_REFS, seed=self.seed,
                       trace_cache_dir=self.work / "check")
        picks: dict[bool, int] = {}
        for i, req in enumerate(self.requests[:DIGEST_REQUESTS]):
            picks.setdefault(req[3] is None, i)
        for i in picks.values():
            kind, workload, label, config = self.requests[i]
            cfg = replace(base, **(config or {}))
            expected = result_to_wire(execute_cell(make_cell(kind, workload, label, cfg), cfg))
            if self.results[i] != expected:
                report["failed"] += 1
                report["errors"].append(f"request {i}: served result differs from an in-process run")

    def layer_stats(self, before: dict, after: dict, n: int) -> dict:
        per = 1.0 / max(n, 1)
        count = _delta(after, before, "latency", "cell", "count")
        seconds = _hist_seconds(after) - _hist_seconds(before)
        cells = self.cell_deltas(before, after)
        settled = cells["cache_hits"] + cells["executed"]
        return {
            "service.cells_executed": cells["executed"] * per,
            "service.coalesced": cells["coalesced"] * per,
            "service.rejected": cells["rejected"] * per,
            "service.cache_hit_ratio": cells["cache_hits"] / settled if settled else 0.0,
            "service.cell_mean_ms": 1000.0 * seconds / count if count else 0.0,
            **self.cluster_stats(before, after, per),
        }

    def cell_deltas(self, before: dict, after: dict) -> dict:
        return {k: _delta(after, before, "cells", k) for k in _CELL_COUNTERS}

    def cluster_stats(self, before: dict, after: dict, per: float) -> dict:
        return {name: 0.0 for name in SERVICE_LAYERS if name.startswith("cluster.")}


class ServeMixed(_Service):
    """A ``serve --jobs 1`` daemon under a closed loop of two clients."""

    def start(self) -> str:
        d = self.daemon("serve", self.serve_argv())
        return d.wait_listening()


class RouteMixed(_Service):
    """The same requests through a router to two workers sharing one store."""

    def start(self) -> str:
        shared = self.work / "shared"
        shared.mkdir(parents=True, exist_ok=True)
        store = ["--store", "shared", "--shared-dir", str(shared)]
        workers = [self.daemon(f"worker{i}", self.serve_argv(*store)) for i in range(2)]
        addresses = ",".join(w.wait_listening() for w in workers)
        router = self.daemon(
            "router",
            ["route", "--port", "0", "--workers", addresses, "--refs", str(SERVE_REFS),
             "--seed", str(self.seed), *store],
        )
        return router.wait_listening()

    def cell_deltas(self, before: dict, after: dict) -> dict:
        """Router counters (its own store hits, coalescing) plus the workers'."""
        router = super().cell_deltas(before, after)
        return {
            k: router[k] + _delta(after, before, "cluster", "worker_cell_totals", k)
            for k in _CELL_COUNTERS
        }

    def cluster_stats(self, before: dict, after: dict, per: float) -> dict:
        routing = ("cluster", "routing")
        forwarded = [
            _delta(after["cluster"]["workers"].get(node) or {},
                   before["cluster"]["workers"].get(node) or {}, "requests", "cell")
            for node in after["cluster"]["workers"]
        ]
        mean = sum(forwarded) / len(forwarded) if forwarded else 0.0
        return {
            "cluster.routes_forwarded": _delta(after, before, *routing, "routes_forwarded") * per,
            "cluster.router_cache_hits": _delta(after, before, *routing, "router_cache_hits") * per,
            "cluster.routes_failed_over": _delta(after, before, *routing, "routes_failed_over") * per,
            "cluster.worker_balance": max(forwarded) / mean if mean else 0.0,
        }


WORKLOADS: dict[str, type[Workload]] = {
    "replay-cold": ReplayCold,
    "replay-warm": ReplayWarm,
    "kernel-grid": KernelGrid,
    "serve-mixed": ServeMixed,
    "route-mixed": RouteMixed,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "run", "replay-pass"))
    parser.add_argument("workload", nargs="?", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--cache", type=Path)
    parser.add_argument("--trace-dir", type=Path)
    parser.add_argument("--t0", type=float, default=_STARTED,
                        help="perf_counter() when the run was started")
    args = parser.parse_args(argv)

    if args.role == "replay-pass":
        if args.trace_dir is not None:
            import tracer

            tracer.install(args.trace_dir)
        print(json.dumps(replay_pass(args.cache, args.seed, args.t0)))
        return 0

    workload = WORKLOADS[args.workload](args.seed, args.work, args.trace_dir)
    report: dict = {}
    try:
        workload.setup()
        report["setup_s"] = time.perf_counter() - args.t0
        report["setup_factor"] = host_factor()
        if args.role == "run":
            report.update(workload.measure(args.seconds))
            from repro.experiments import available_experiments

            report["experiments"] = available_experiments()
    finally:
        workload.close()
    report["peak_rss_mb"] = peak_rss_mb()
    if args.role == "run":
        workload.verify(report)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
