"""Command-line interface.

::

    repro-cache list                      # workloads, schemes, experiments
    repro-cache run fig4 [--refs N] [--seed S] [--scale X] [--bars COL]
                         [--jobs J] [--no-result-cache]
    repro-cache run all --out EXPERIMENTS.md --jobs 0   # 0 = all cores
    repro-cache trace fft --refs 100000 --out fft.npz [--format din]
    repro-cache trace warm --jobs 0 [--experiments fig4,fig13]   # prefetch cache
    repro-cache trace stats                # per-format trace-cache inventory
    repro-cache trace gc                   # evict npz entries migrated to raw
    repro-cache sweep --workload fft --schemes modulo,xor,prime_modulo
    repro-cache sweep --workload fft --ways 4        # k-way LRU fast path
    repro-cache sweep --workload fft --aux vc,mc,sb --aux-lines 2,4,8
    repro-cache cache [--clear] [--clear-traces]   # inspect/clear on-disk caches
    repro-cache serve --port 7411 --jobs 4         # simulation job server
    repro-cache route --workers 127.0.0.1:7501,127.0.0.1:7502   # cluster router
    repro-cache submit fig4 --refs 8000            # submit to a running server
    repro-cache stats | health                     # observability snapshots
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .core.address import PAPER_L1_GEOMETRY
from .core.result import ENGINES
from .experiments import (
    PaperConfig,
    available_experiments,
    render_bars,
    run_experiment,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cache",
        description="Reproduction of 'Evaluation of Techniques to Improve Cache "
        "Access Uniformities' (ICPP 2011)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, indexing schemes and experiments")

    run = sub.add_parser("run", help="run one experiment (fig1..fig14) or 'all'")
    run.add_argument("experiment", help="experiment id, e.g. fig4, or 'all'")
    run.add_argument("--refs", type=int, default=None, help="trace length per workload")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--scale", type=float, default=None, help="workload problem-size scale")
    run.add_argument("--bars", default=None, help="also render this column as a bar chart")
    run.add_argument("--out", type=Path, default=None, help="append markdown to this file")
    run.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for experiment grids (1 = sequential, 0 = all "
        "cores; results are bit-identical either way)",
    )
    run.add_argument(
        "--no-result-cache",
        action="store_true",
        help="disable the on-disk per-cell result cache for this run",
    )
    run.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="auto = exact fast kernels where they apply; sequential = the "
        "per-access reference loop for progassoc, colassoc, policysweep, "
        "auxsweep, smt, partitioned and threec cells and the stateful bounds "
        "columns (LRU cells stay vectorised); results are bit-identical "
        "either way",
    )
    run.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        help="per-cell wall-clock budget in seconds: a hung cell fails the "
        "run with attribution instead of blocking forever (default: "
        "unlimited)",
    )

    trace = sub.add_parser(
        "trace",
        help="generate and save a workload trace; 'trace warm' prefetches "
        "the experiment trace cache in parallel; 'trace stats' prints "
        "per-format cache byte counts; 'trace gc' evicts npz entries "
        "already migrated to the raw mmap format",
    )
    trace.add_argument(
        "workload",
        help="workload name, or one of the literals: 'warm' (prefetch every "
        "trace the selected experiments will need), 'stats' (per-format "
        "trace-cache inventory), 'gc' (delete npz entries that have been "
        "migrated to the raw mmap format)",
    )
    trace.add_argument(
        "--refs", type=int, default=None, help="trace length (warm: config ref limit)"
    )
    trace.add_argument("--seed", type=int, default=None)
    trace.add_argument("--scale", type=float, default=None)
    trace.add_argument(
        "--out", type=Path, default=None, help="output path (required unless warming)"
    )
    trace.add_argument("--format", choices=("npz", "din"), default="npz")
    trace.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="warm: worker processes (1 = sequential, 0/default = all cores)",
    )
    trace.add_argument(
        "--experiments",
        default="all",
        help="warm: comma-separated experiment ids to prefetch for (default all)",
    )
    trace.add_argument(
        "--trace-dir",
        type=Path,
        default=None,
        help="stats/gc: trace-cache root (default .trace_cache)",
    )

    sweep = sub.add_parser("sweep", help="miss rates of schemes over one workload")
    sweep.add_argument("--workload", required=True)
    sweep.add_argument("--schemes", default="modulo,xor,odd_multiplier,prime_modulo")
    sweep.add_argument("--refs", type=int, default=100_000)
    sweep.add_argument("--seed", type=int, default=2011)
    sweep.add_argument(
        "--ways",
        default="1",
        help="associativity of the swept cache (1 = the paper's direct-mapped "
        "L1; >1 routes through the k-way LRU stack-distance kernel; a "
        "comma list like 1,2,4,8 sweeps every associativity over fixed "
        "sets from ONE stack-distance pass per scheme)",
    )
    sweep.add_argument(
        "--policy",
        default="lru",
        help="replacement policy (lru, fifo, plru, mru, lfu, random); a "
        "comma list like lru,fifo,plru sweeps every policy over the same "
        "sets from ONE set-decomposition pass per scheme (needs a single "
        "--ways value; the multi-ways Mattson sweep stays LRU-only)",
    )
    sweep.add_argument(
        "--policy-seed",
        type=int,
        default=0,
        help="seed of the 'random' policy's generator (default 0)",
    )
    sweep.add_argument(
        "--aux",
        default="",
        help="auxiliary-structure sweep: comma list of combos (vc, mc, sb, "
        "vc+sb, mc+sb) composed onto the direct-mapped cache; every "
        "(combo, depth) point of one scheme shares ONE vectorised "
        "main-array pass (needs --ways 1 and --policy lru)",
    )
    sweep.add_argument(
        "--aux-lines",
        default="4",
        help="comma list of aux buffer depths to sweep (lines for vc/mc, "
        "prefetch depth for sb; default 4)",
    )

    cache = sub.add_parser("cache", help="inspect or clear the on-disk result/trace caches")
    cache.add_argument(
        "--trace-dir", type=Path, default=None, help="trace-cache root (default .trace_cache)"
    )
    cache.add_argument("--clear", action="store_true", help="delete all cached cell results")
    cache.add_argument(
        "--clear-traces", action="store_true", help="also delete all cached traces"
    )

    uni = sub.add_parser(
        "uniformity", help="per-set access/miss profile of a workload under a scheme"
    )
    uni.add_argument("--workload", required=True)
    uni.add_argument("--scheme", default="modulo")
    uni.add_argument("--refs", type=int, default=100_000)
    uni.add_argument("--seed", type=int, default=2011)

    from .service.cli import add_service_commands

    add_service_commands(sub)
    return parser


def _config_from(args) -> PaperConfig:
    cfg = PaperConfig()
    updates = {}
    if args.refs is not None:
        updates["ref_limit"] = args.refs
    if args.seed is not None:
        updates["seed"] = args.seed
    if getattr(args, "scale", None) is not None:
        updates["workload_scale"] = args.scale
    if getattr(args, "jobs", None) is not None:
        updates["jobs"] = args.jobs
    if getattr(args, "no_result_cache", False):
        updates["use_result_cache"] = False
    if getattr(args, "engine", None) is not None:
        updates["engine"] = args.engine
    if getattr(args, "cell_timeout", None) is not None:
        updates["cell_timeout"] = args.cell_timeout
    return replace(cfg, **updates) if updates else cfg


def _cmd_list() -> int:
    from .core.indexing import available_schemes
    from .workloads import available_workloads

    print("Workloads (mibench):", ", ".join(available_workloads("mibench")))
    print("Workloads (spec):   ", ", ".join(available_workloads("spec")))
    print("Indexing schemes:   ", ", ".join(available_schemes()))
    print("Experiments:        ", ", ".join(available_experiments()))
    return 0


def _cmd_run(args) -> int:
    cfg = _config_from(args)
    ids = available_experiments() if args.experiment == "all" else [args.experiment]
    for eid in ids:
        result = run_experiment(eid, cfg)
        print(result)
        print()
        if args.bars and args.bars in result.columns:
            print(render_bars(result, args.bars))
            print()
        if args.out:
            with args.out.open("a") as fh:
                fh.write(result.to_markdown() + "\n")
    return 0


def _cmd_trace(args) -> int:
    if args.workload == "warm":
        return _cmd_trace_warm(args)
    if args.workload == "stats":
        return _cmd_trace_stats(args)
    if args.workload == "gc":
        return _cmd_trace_gc(args)
    if args.out is None:
        print("error: --out is required when generating a trace", file=sys.stderr)
        return 2
    from .trace.io import save_din, save_npz
    from .workloads import get_workload

    trace = get_workload(args.workload).generate(
        seed=2011 if args.seed is None else args.seed,
        ref_limit=100_000 if args.refs is None else args.refs,
        scale=1.0 if args.scale is None else args.scale,
    )
    if args.format == "npz":
        path = save_npz(trace, args.out)
    else:
        path = save_din(trace, args.out)
    print(f"wrote {len(trace)} references to {path}")
    return 0


def _cmd_trace_warm(args) -> int:
    """Prefetch the trace cache for a set of experiments, in parallel."""
    import time

    from .experiments.warm import specs_for, warm_traces

    cfg = _config_from(args)
    if args.experiments.strip() in ("", "all"):
        ids = available_experiments()
    else:
        ids = [eid.strip() for eid in args.experiments.split(",") if eid.strip()]
        unknown = sorted(set(ids) - set(available_experiments()))
        if unknown:
            print(f"error: unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
    specs = specs_for(ids, cfg)
    if not specs:
        print("nothing to warm: no selected experiment declares trace needs")
        return 0
    t0 = time.perf_counter()
    entries = warm_traces(specs, cfg, jobs=args.jobs)
    wall = time.perf_counter() - t0
    generated = sum(1 for e in entries.values() if e.generated)
    gen_seconds = sum(e.seconds for e in entries.values() if e.generated)
    print(
        f"warmed {len(entries)} trace(s) for {len(ids)} experiment(s) in {wall:.1f}s "
        f"({generated} generated [{gen_seconds:.1f}s worker-time], "
        f"{len(entries) - generated} already cached) -> {cfg.trace_cache_dir}"
    )
    return 0


def _trace_cache_from(args):
    from .trace.io import TraceCache

    cfg = PaperConfig()
    trace_dir = getattr(args, "trace_dir", None)
    return TraceCache(trace_dir if trace_dir is not None else cfg.trace_cache_dir)


def _cmd_trace_stats(args) -> int:
    """Per-format trace-cache inventory (raw vs legacy npz, migration state)."""
    cache = _trace_cache_from(args)
    st = cache.stats()
    print(f"trace cache {st['root']}")
    print(
        f"  raw (mmap)  {st['raw_entries']:>5} entr{'y' if st['raw_entries'] == 1 else 'ies'}, "
        f"{st['raw_bytes'] / (1 << 20):8.1f} MiB"
    )
    print(
        f"  npz legacy  {st['npz_entries']:>5} entr{'y' if st['npz_entries'] == 1 else 'ies'}, "
        f"{st['npz_bytes'] / (1 << 20):8.1f} MiB "
        f"({st['npz_migrated']} migrated, reclaimable via 'trace gc')"
    )
    return 0


def _cmd_trace_gc(args) -> int:
    """Evict npz entries that already have a raw (mmap-format) sibling."""
    cache = _trace_cache_from(args)
    removed, reclaimed = cache.gc()
    print(
        f"trace gc: removed {removed} migrated npz entr"
        f"{'y' if removed == 1 else 'ies'}, reclaimed {reclaimed / (1 << 20):.1f} MiB"
    )
    return 0


def _cmd_sweep(args) -> int:
    from .core.indexing import TrainableIndexingScheme, make_scheme
    from .core.simulator import simulate_set_associative
    from .workloads import get_workload

    try:
        ways_list = [int(w) for w in str(args.ways).split(",") if w.strip()]
    except ValueError:
        print(f"error: invalid --ways value {args.ways!r}", file=sys.stderr)
        return 2
    if not ways_list:
        ways_list = [1]
    # Validate every requested policy against the registry *before* any
    # trace generation or simulation work starts.
    policy_list = [p.strip() for p in str(args.policy).split(",") if p.strip()]
    if not policy_list:
        policy_list = ["lru"]
    from .core.replacement import make_policy

    for policy in policy_list:
        try:
            make_policy(policy, 1, 1)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    aux_list = [a.strip() for a in str(args.aux).split(",") if a.strip()]
    if aux_list:
        from .core.aux import AUX_COMBOS

        for combo in aux_list:
            if combo not in AUX_COMBOS:
                print(
                    f"error: unknown aux combo {combo!r}; known: "
                    f"{', '.join(AUX_COMBOS)}",
                    file=sys.stderr,
                )
                return 2
        try:
            lines_list = [
                int(d) for d in str(args.aux_lines).split(",") if d.strip()
            ]
        except ValueError:
            print(f"error: invalid --aux-lines value {args.aux_lines!r}", file=sys.stderr)
            return 2
        if not lines_list or any(d < 1 for d in lines_list):
            print("error: --aux-lines values must be positive", file=sys.stderr)
            return 2
        if ways_list != [1] or policy_list != ["lru"]:
            print(
                "error: --aux composes onto the direct-mapped cache "
                "(needs --ways 1 and --policy lru)",
                file=sys.stderr,
            )
            return 2
    if len(policy_list) > 1 and len(ways_list) > 1:
        print(
            "error: sweep one axis at a time — a comma list for --ways "
            "(LRU Mattson sweep) or for --policy (set-decomposition sweep), "
            "not both",
            file=sys.stderr,
        )
        return 2
    trace = get_workload(args.workload).generate(seed=args.seed, ref_limit=args.refs)
    if aux_list:
        return _cmd_sweep_aux(args, trace, aux_list, lines_list)
    if len(policy_list) > 1:
        return _cmd_sweep_policies(args, trace, ways_list[0], policy_list)
    if len(ways_list) > 1:
        return _cmd_sweep_ways(args, trace, ways_list)
    ways = ways_list[0]
    geometry = PAPER_L1_GEOMETRY
    if ways != 1:
        try:
            geometry = geometry.with_ways(ways)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(f"{args.workload}: {len(trace)} refs, geometry {geometry.describe()}")
    for name in args.schemes.split(","):
        scheme = make_scheme(name.strip(), geometry)
        if isinstance(scheme, TrainableIndexingScheme):
            scheme.fit(trace.addresses)
        try:
            res = simulate_set_associative(
                scheme, trace, geometry, policy=args.policy, policy_seed=args.policy_seed
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"  {scheme.name:16s} miss_rate={res.miss_rate:.4f} misses={res.misses}")
    return 0


def _cmd_sweep_aux(args, trace, aux_list: list[str], lines_list: list[int]) -> int:
    """Aux sweep: every (combo, depth) point over one vectorised main pass."""
    from .core.aux import simulate_aux_sweep
    from .core.indexing import TrainableIndexingScheme, make_scheme

    geometry = PAPER_L1_GEOMETRY
    specs = [(combo, depth) for combo in aux_list for depth in lines_list]
    print(
        f"{args.workload}: {len(trace)} refs, geometry {geometry.describe()}, "
        f"aux {','.join(aux_list)} × lines {','.join(map(str, lines_list))} "
        "from one main-array pass per scheme"
    )
    for name in args.schemes.split(","):
        scheme = make_scheme(name.strip(), geometry)
        if isinstance(scheme, TrainableIndexingScheme):
            scheme.fit(trace.addresses)
        try:
            results = simulate_aux_sweep(scheme, trace, geometry, specs)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for (combo, depth), res in zip(specs, results):
            absorbed = sum(
                res.extra.get(k, 0)
                for k in ("victim_hits", "miss_cache_hits", "stream_hits")
            )
            print(
                f"  {scheme.name:16s} {combo + str(depth):>8} "
                f"miss_rate={res.miss_rate:.4f} misses={res.misses} "
                f"absorbed={absorbed}"
            )
    return 0


def _cmd_sweep_policies(args, trace, ways: int, policy_list: list[str]) -> int:
    """Policy sweep: every policy over the same sets from one pass."""
    from .core.fastpolicy import simulate_policy_sweep
    from .core.indexing import TrainableIndexingScheme, make_scheme

    geometry = PAPER_L1_GEOMETRY
    if ways != 1:
        try:
            geometry = geometry.with_ways(ways)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(
        f"{args.workload}: {len(trace)} refs, geometry {geometry.describe()}, "
        f"policies {','.join(policy_list)} from one set-decomposition pass per scheme"
    )
    for name in args.schemes.split(","):
        scheme = make_scheme(name.strip(), geometry)
        if isinstance(scheme, TrainableIndexingScheme):
            scheme.fit(trace.addresses)
        try:
            results = simulate_policy_sweep(
                scheme, trace, geometry, policy_list, seed=args.policy_seed
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for policy, res in zip(policy_list, results):
            print(
                f"  {scheme.name:16s} {policy:>6} "
                f"miss_rate={res.miss_rate:.4f} misses={res.misses}"
            )
    return 0


def _cmd_sweep_ways(args, trace, ways_list: list[int]) -> int:
    """Mattson sweep: every associativity over fixed sets from one pass."""
    from .core.indexing import TrainableIndexingScheme, make_scheme
    from .core.simulator import simulate_lru_sweep

    if args.policy != "lru":
        print(
            "error: the single-pass associativity sweep is exact only for LRU "
            f"(the Mattson inclusion property); got policy {args.policy!r}",
            file=sys.stderr,
        )
        return 2
    geometry = PAPER_L1_GEOMETRY
    print(
        f"{args.workload}: {len(trace)} refs, {geometry.num_sets} sets fixed, "
        f"ways {','.join(map(str, ways_list))} from one stack-distance pass per scheme"
    )
    for name in args.schemes.split(","):
        scheme = make_scheme(name.strip(), geometry)
        if isinstance(scheme, TrainableIndexingScheme):
            scheme.fit(trace.addresses)
        try:
            results = simulate_lru_sweep(
                scheme, trace, geometry, [(w, "setassoc") for w in ways_list]
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for ways, res in zip(ways_list, results):
            print(
                f"  {scheme.name:16s} {ways:>3}-way "
                f"miss_rate={res.miss_rate:.4f} misses={res.misses}"
            )
    return 0


def _cmd_cache(args) -> int:
    from .experiments.engine import ResultCache

    cfg = PaperConfig()
    trace_dir = args.trace_dir if args.trace_dir is not None else cfg.trace_cache_dir
    trace_dir = Path(trace_dir)
    result_dir = trace_dir / "results"
    results = ResultCache(result_dir)
    from .trace.io import RAW_SUFFIX

    n_raw = sum(1 for _ in trace_dir.glob(f"*{RAW_SUFFIX}"))
    n_npz = sum(1 for _ in trace_dir.glob("*.npz"))
    n_traces = n_raw + n_npz
    print(
        f"trace cache   {trace_dir}: {n_traces} trace file(s) "
        f"({n_raw} raw, {n_npz} npz)"
    )
    st = results.stats()
    print(
        f"result cache  {result_dir}: {len(results)} cell result(s) "
        f"({st['raw_entries']} raw, {st['npz_entries']} npz), "
        f"{results.size_bytes() / 1024:.1f} KiB"
    )
    if args.clear or args.clear_traces:
        removed = results.clear()
        print(f"cleared {removed} cell result(s)")
    if args.clear_traces:
        from .trace.io import TraceCache

        TraceCache(trace_dir).clear()
        print(f"cleared {n_traces} trace(s)")
    return 0


def _cmd_uniformity(args) -> int:
    from .core.indexing import TrainableIndexingScheme, make_scheme
    from .core.simulator import simulate_indexing
    from .core.uniformity import uniformity_report, zhang_classification
    from .experiments.report import sparkline
    from .workloads import get_workload

    trace = get_workload(args.workload).generate(seed=args.seed, ref_limit=args.refs)
    geometry = PAPER_L1_GEOMETRY
    scheme = make_scheme(args.scheme, geometry)
    if isinstance(scheme, TrainableIndexingScheme):
        scheme.fit(trace.addresses)
    res = simulate_indexing(scheme, trace, geometry)
    print(f"{args.workload} under {scheme.name}: miss rate {res.miss_rate:.4f}")
    print(f"accesses/set  {sparkline(res.slot_accesses)}")
    print(f"misses/set    {sparkline(res.slot_misses)}")
    rep = uniformity_report(res.slot_accesses)
    zh = zhang_classification(res.slot_accesses, res.slot_hits, res.slot_misses)
    print(
        f"accesses: {rep.below_half_pct:.1f}% of sets < half avg, "
        f"{rep.above_double_pct:.1f}% > 2x avg, skew {rep.skewness:.2f}, "
        f"kurtosis {rep.kurtosis:.2f}, gini {rep.gini:.2f}"
    )
    print(f"Zhang classes: FHS {zh['FHS%']:.1f}%  FMS {zh['FMS%']:.1f}%  LAS {zh['LAS%']:.1f}%")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "uniformity":
        return _cmd_uniformity(args)
    if args.command == "serve":
        from .service.cli import cmd_serve

        return cmd_serve(args)
    if args.command == "submit":
        from .service.cli import cmd_submit

        return cmd_submit(args)
    if args.command == "route":
        from .service.cli import cmd_route

        return cmd_route(args)
    if args.command == "stats":
        from .service.cli import cmd_stats

        return cmd_stats(args)
    if args.command == "health":
        from .service.cli import cmd_health

        return cmd_health(args)
    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
