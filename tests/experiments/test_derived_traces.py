"""Derived traces and the cell kinds that run on them.

Three contracts:

1. **Resolution** — :func:`~repro.experiments.warm.trace_spec` maps every
   engine workload name to one spec: a registered workload's own trace, or
   a derived one (``phase:`` concatenation, ``smt:`` round-robin mix,
   ``itrace:`` synthetic I-fetch trace) whose key moves with its sources.
2. **Materialisation** — warming a derived spec caches its sources first and
   stores exactly the trace the old in-memory construction built; the
   placed I-trace carries its placement costs in its entry's header.
3. **Equivalence** — the ``smt`` / ``partitioned`` / ``threec`` /
   ``dynamic`` cells return what the simulators return when called
   directly, under either engine, and the job server still refuses
   derived names as unknown workloads.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.caches import DirectMappedCache
from repro.core.dynamic import DynamicIndexCache
from repro.core.indexing import (
    ModuloIndexing,
    OddMultiplierIndexing,
    PrimeModuloIndexing,
    XorIndexing,
)
from repro.core.selector import ThreadSchemeTable
from repro.core.simulator import simulate
from repro.core.three_c import classify
from repro.experiments import PaperConfig
from repro.experiments.engine import make_cell, plan_cells, run_cells
from repro.experiments.engine.cache import trace_fingerprint
from repro.experiments.ext_icache import build_program
from repro.experiments.runner import workload_trace
from repro.experiments.warm import (
    itrace_name,
    load_spec,
    mix_name,
    mix_specs,
    phase_name,
    trace_spec,
    warm_traces,
    workload_spec,
)
from repro.icache import generate_itrace, optimize_placement
from repro.multithread import (
    PartitionedAdaptiveCache,
    SMTSharedCache,
    StaticPartitionedCache,
    simulate_partitioned,
    simulate_smt,
)
from repro.service.protocol import ProtocolError, normalize_cell_request
from repro.trace.interleave import round_robin
from repro.trace.io import TraceCache, read_raw_header


@pytest.fixture
def config(tmp_path) -> PaperConfig:
    return replace(PaperConfig(), ref_limit=3000, trace_cache_dir=tmp_path / "traces")


# -- resolution --------------------------------------------------------------------------


def test_workload_names_resolve_to_workload_specs(config):
    assert trace_spec("fft", config) == workload_spec("fft", config)


def test_derived_names_resolve_to_derived_specs(config):
    phase = trace_spec(phase_name(("crc", "fft")), config)
    assert phase.derive == "concat"
    assert phase.sources == (workload_spec("crc", config), workload_spec("fft", config))
    mix = trace_spec(mix_name(("fft", "susan")), config)
    assert mix.derive == "round_robin"
    assert list(mix.sources) == mix_specs(("fft", "susan"), config)
    natural = trace_spec(itrace_name(2), config)
    placed = trace_spec(itrace_name(2, placed=True), config)
    assert natural.derive == placed.derive == "itrace"
    assert natural.seed == config.seed + 2
    assert natural.cache_key() != placed.cache_key()


@pytest.mark.parametrize("name", ["itrace:x", "itrace:1:other", "itrace:"])
def test_malformed_itrace_names_are_rejected(name, config):
    with pytest.raises(ValueError):
        trace_spec(name, config)


def test_derived_keys_follow_their_sources(config):
    name = phase_name(("crc", "fft"))
    key = trace_spec(name, config).cache_key()
    assert key == trace_spec(name, config).cache_key()
    assert key != trace_spec(name, replace(config, seed=7)).cache_key()
    assert key != trace_spec(name, replace(config, ref_limit=2000)).cache_key()
    assert key != trace_spec(mix_name(("crc", "fft")), config).cache_key()
    # The I-fetch trace depends on the program alone, not on the workload knobs.
    natural = itrace_name(1)
    assert (
        trace_spec(natural, config).cache_key()
        == trace_spec(natural, replace(config, ref_limit=2000)).cache_key()
    )


# -- materialisation ---------------------------------------------------------------------


def _same_content(a, b) -> None:
    np.testing.assert_array_equal(a.addresses, b.addresses)
    np.testing.assert_array_equal(a.is_write, b.is_write)
    np.testing.assert_array_equal(a.thread, b.thread)


def test_phase_trace_is_the_concatenation(config):
    spec = trace_spec(phase_name(("crc", "fft")), config)
    entries = warm_traces([spec], config, jobs=1, fingerprints=True)
    cache = TraceCache(config.trace_cache_dir)
    for source in spec.sources:  # the sources were cached on the way
        assert cache.path_for(source.cache_key()).exists()
    expected = workload_trace("crc", config).concat(workload_trace("fft", config))
    _same_content(load_spec(spec, config), expected)
    assert entries[spec].fingerprint == trace_fingerprint(expected)


def test_mix_trace_is_the_round_robin(config):
    mix = ("fft", "basicmath", "patricia", "susan")
    spec = trace_spec(mix_name(mix), config)
    expected = round_robin([s.generate() for s in mix_specs(mix, config)])
    _same_content(load_spec(spec, config), expected)


def test_placed_itrace_records_its_placement_costs(config):
    g = config.geometry
    spec = trace_spec(itrace_name(3, placed=True), config)
    path = warm_traces([spec], config, jobs=1)[spec].path
    layout, calls, profile = build_program(config.seed + 3)
    optimised, before, after = optimize_placement(layout, profile, g)
    meta = read_raw_header(path)["meta"]
    assert (meta["overlap_before"], meta["overlap_after"]) == (before, after)
    expected = generate_itrace(optimised, calls, line_bytes=g.line_bytes, loop_iterations=2)
    _same_content(load_spec(spec, config), expected)


def test_parallel_warm_of_derived_specs_matches_sequential(tmp_path, config):
    names = [phase_name(("crc", "fft")), mix_name(("fft", "susan")), itrace_name(1)]
    seq_cfg = replace(config, trace_cache_dir=tmp_path / "seq")
    par_cfg = replace(config, trace_cache_dir=tmp_path / "par")
    seq = warm_traces([trace_spec(n, seq_cfg) for n in names], seq_cfg, jobs=1, fingerprints=True)
    par = warm_traces([trace_spec(n, par_cfg) for n in names], par_cfg, jobs=2, fingerprints=True)
    assert [e.fingerprint for e in seq.values()] == [e.fingerprint for e in par.values()]


# -- equivalence -------------------------------------------------------------------------


def _direct(kind: str, label: str, trace, config: PaperConfig):
    """What the experiments computed before they became engine cells."""
    g = config.geometry
    n = int(trace.thread.max()) + 1
    if kind == "smt":
        if label == "modulo":
            schemes = [ModuloIndexing(g)] * n
        else:
            m = config.smt_multipliers
            schemes = [OddMultiplierIndexing(g, m[i % len(m)]) for i in range(n)]
        r = simulate_smt(SMTSharedCache(g, ThreadSchemeTable(schemes)), trace)
        return r.misses, {"cross_evictions": r.cross_evictions}
    if kind == "partitioned":
        if label == "static":
            cache = StaticPartitionedCache(g, n)
        else:
            cache = PartitionedAdaptiveCache(
                g, n, sht_fraction=config.sht_fraction, out_fraction=config.out_fraction
            )
        r = simulate_partitioned(cache, trace)
        return r.misses, {"direct_hits": r.direct_hits}
    if kind == "threec":
        b = classify(DirectMappedCache(g), trace, g)
        return b.total, {"cold": b.cold, "capacity": b.capacity, "conflict": b.conflict}
    cache = DynamicIndexCache(
        g, [XorIndexing(g), OddMultiplierIndexing(g, config.odd_multiplier), PrimeModuloIndexing(g)]
    )
    return simulate(cache, trace).misses, {"switches": cache.switches}


CASES = [
    ("smt", "modulo", mix_name(("fft", "susan"))),
    ("smt", "odd_multiplier", mix_name(("fft", "basicmath", "patricia", "susan"))),
    ("partitioned", "static", mix_name(("qsort", "fft"))),
    ("partitioned", "adaptive", mix_name(("qsort", "fft"))),
    ("threec", "direct_mapped", "fft"),
    ("threec", "direct_mapped", phase_name(("crc", "fft"))),
    ("dynamic", "xor+odd_multiplier+prime_modulo", phase_name(("crc", "fft"))),
]


@pytest.mark.parametrize("engine", ["auto", "sequential"])
@pytest.mark.parametrize("kind,label,workload", CASES)
def test_cells_match_direct_simulation(kind, label, workload, engine, config):
    config = replace(config, engine=engine, use_result_cache=False)
    cell = make_cell(kind, workload, label, config)
    sims, _ = run_cells([cell], config, jobs=1)
    sim = sims[(workload, label)]
    misses, extra = _direct(kind, label, load_spec(trace_spec(workload, config), config), config)
    assert sim.misses == misses
    assert {k: sim.extra[k] for k in extra} == extra
    assert sim.hits + sim.misses == sim.accesses


def test_derived_cells_plan_like_workload_cells(config):
    cells = [make_cell(kind, workload, label, config) for kind, label, workload in CASES]
    plan = plan_cells(cells, config, jobs=1)
    for workload in {c.workload for c in cells}:
        path = plan.trace_paths[workload]
        assert plan.trace_fingerprints[workload] == read_raw_header(path)["digest"]


@pytest.mark.parametrize(
    "workload", [phase_name(("crc", "fft")), mix_name(("fft", "susan")), itrace_name(1)]
)
def test_service_rejects_derived_trace_names(workload):
    req = {"type": "cell", "kind": "baseline", "workload": workload, "label": "baseline"}
    with pytest.raises(ProtocolError, match="unknown workload"):
        normalize_cell_request(req, PaperConfig())
