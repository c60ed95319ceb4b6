"""Locks the parallel trace prefetch (:mod:`repro.experiments.warm`).

Four contracts matter:

1. **Key parity** — a :class:`TraceSpec`'s cache key must be exactly the key
   the runners build (``workload_trace``/``profile_trace`` for single-thread
   traces, fig13's per-thread keys for SMT mixes).  Drift here would make the
   prefetch warm the *wrong* entries and the runners regenerate everything.
2. **Warming is observationally invisible** — a warmed cache must yield
   traces bit-identical to cold generation, whether warmed with ``jobs=1``
   or concurrently, and concurrent warmers racing on the *same* cache must
   leave content-identical entries (content, not raw bytes: npz zip members
   embed timestamps).
3. **Failure is attributed** — a failing generator surfaces as
   :class:`TraceWarmError` naming the failing spec, and the cache gains no
   entry for it.
4. **Coverage** — an experiment's prefetch plan, derived from its
   registered cell declaration, is exactly the set of traces a cold run of
   it leaves in the cache: the profile traces the trainable schemes fit
   on and the sources of derived traces included.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest

from repro.experiments import available_experiments, run_experiment, warm
from repro.experiments import fig04_indexing_missrate as fig04
from repro.experiments import fig06_progassoc_missrate as fig06
from repro.experiments.config import (
    MULTITHREAD_MIXES_FIG13,
    PaperConfig,
)
from repro.experiments.engine import engine_pool_scope
from repro.experiments.engine.cache import trace_fingerprint
from repro.experiments.runner import profile_trace_path, workload_trace_path
from repro.experiments.warm import (
    TraceSpec,
    TraceWarmError,
    mix_specs,
    profile_spec,
    specs_for,
    warm_traces,
    workload_spec,
)
from repro.trace.io import TraceCache


def _cfg(tmp_path, **kw) -> PaperConfig:
    base = dict(ref_limit=1500, workload_scale=0.05, trace_cache_dir=tmp_path / "tc")
    base.update(kw)
    return PaperConfig(**base)


# -- key parity ------------------------------------------------------------------------


def test_workload_spec_key_matches_runner(tmp_path):
    cfg = _cfg(tmp_path)
    spec = workload_spec("fft", cfg)
    path = TraceCache(cfg.trace_cache_dir).path_for(spec.cache_key())
    assert path == workload_trace_path("fft", cfg)


def test_profile_spec_key_matches_runner(tmp_path):
    cfg = _cfg(tmp_path, profile_seed_offset=77)
    spec = profile_spec("fft", cfg)
    assert spec.seed == cfg.seed + 77
    path = TraceCache(cfg.trace_cache_dir).path_for(spec.cache_key())
    assert path == profile_trace_path("fft", cfg)


def test_profile_spec_collapses_to_workload_at_zero_offset(tmp_path):
    cfg = _cfg(tmp_path, profile_seed_offset=0)
    assert profile_spec("fft", cfg) == workload_spec("fft", cfg)


def test_mix_specs_match_fig13_key_discipline(tmp_path):
    # fig13's SMT mix traces are built from mix_specs directly, so equality
    # of the constructed fields *is* the key contract: per-thread ref
    # budget, seed offset by thread index, thread tag present.
    cfg = _cfg(tmp_path)
    mix = MULTITHREAD_MIXES_FIG13[0]
    specs = mix_specs(mix, cfg)
    assert [s.name for s in specs] == list(mix)
    for i, s in enumerate(specs):
        assert s.thread == i
        assert s.seed == cfg.seed + i
        assert s.ref_limit == max(1, cfg.ref_limit // len(mix))
        assert f"thread={i}" in s.cache_key()


def test_single_thread_key_has_no_thread_component(tmp_path):
    assert "thread" not in workload_spec("fft", _cfg(tmp_path)).cache_key()


# -- warming ---------------------------------------------------------------------------


def _some_specs(cfg: PaperConfig) -> list[TraceSpec]:
    return [
        workload_spec("fft", cfg),
        workload_spec("crc", cfg),
        profile_spec("fft", cfg),
        mix_specs(("fft", "crc"), cfg)[1],
    ]


def test_warm_then_load_is_bit_identical_to_cold(tmp_path):
    cfg = _cfg(tmp_path)
    specs = _some_specs(cfg)
    entries = warm_traces(specs, cfg, jobs=1, fingerprints=True)
    assert all(e.generated for e in entries.values())
    cache = TraceCache(cfg.trace_cache_dir)
    for spec, entry in entries.items():
        assert entry.path.exists()
        cached = cache.get_or_create(spec.cache_key(), lambda: 1 / 0)  # must hit
        cold = spec.generate()
        np.testing.assert_array_equal(cached.addresses, cold.addresses)
        np.testing.assert_array_equal(cached.is_write, cold.is_write)
        assert entry.fingerprint == trace_fingerprint(cold)


def test_second_warm_is_all_cache_hits(tmp_path):
    cfg = _cfg(tmp_path)
    specs = _some_specs(cfg)
    warm_traces(specs, cfg, jobs=1)
    again = warm_traces(specs, cfg, jobs=1)
    assert not any(e.generated for e in again.values())


def test_parallel_equals_sequential(tmp_path):
    cfg_a = _cfg(tmp_path, trace_cache_dir=tmp_path / "a")
    cfg_b = _cfg(tmp_path, trace_cache_dir=tmp_path / "b")
    specs = _some_specs(cfg_a)
    seq = warm_traces(specs, cfg_a, jobs=1, fingerprints=True)
    par = warm_traces(specs, cfg_b, jobs=2, fingerprints=True)
    assert {s: e.fingerprint for s, e in seq.items()} == {
        s: e.fingerprint for s, e in par.items()
    }


def test_input_order_and_dedup(tmp_path):
    cfg = _cfg(tmp_path)
    spec = workload_spec("fft", cfg)
    entries = warm_traces([spec, spec, workload_spec("crc", cfg), spec], cfg, jobs=1)
    assert list(entries) == [spec, workload_spec("crc", cfg)]


def _warm_in_subprocess(cache_dir):
    cfg = PaperConfig(ref_limit=1500, workload_scale=0.05, trace_cache_dir=cache_dir)
    specs = [workload_spec("fft", cfg), workload_spec("crc", cfg)]
    out = warm_traces(specs, cfg, jobs=1, fingerprints=True)
    return [(s.name, e.fingerprint) for s, e in out.items()]


def test_concurrent_warmers_leave_identical_content(tmp_path):
    # Two whole warmers racing on one cache directory: atomic npz writes
    # (tmp + os.replace) mean both observe/produce the same content.  Raw
    # bytes may differ (zip timestamps), so the assertion is on content.
    cache_dir = str(tmp_path / "shared")
    with ProcessPoolExecutor(max_workers=2) as pool:
        a, b = pool.map(_warm_in_subprocess, [cache_dir, cache_dir])
    assert a == b
    cfg = PaperConfig(ref_limit=1500, workload_scale=0.05, trace_cache_dir=cache_dir)
    cache = TraceCache(cfg.trace_cache_dir)
    for name, fp in a:
        spec = workload_spec(name, cfg)
        trace = cache.get_or_create(spec.cache_key(), lambda: 1 / 0)
        assert trace_fingerprint(trace) == fp


def _no_pool(width):
    raise AssertionError("a warm call asked for a process pool")


def test_fully_warm_call_starts_no_pool(tmp_path, monkeypatch):
    cfg = _cfg(tmp_path)
    specs = _some_specs(cfg)
    cold = warm_traces(specs, cfg, jobs=2, fingerprints=True)
    monkeypatch.setattr(warm, "engine_pool", _no_pool)
    again = warm_traces(specs, cfg, jobs=2, fingerprints=True)
    assert list(again) == list(cold)
    assert not any(e.generated for e in again.values())
    assert {s: (e.path, e.fingerprint) for s, e in again.items()} == {
        s: (e.path, e.fingerprint) for s, e in cold.items()
    }


def test_corrupt_entry_is_regenerated_on_a_warm_call(tmp_path, monkeypatch):
    cfg = _cfg(tmp_path)
    specs = _some_specs(cfg)
    cold = warm_traces(specs, cfg, jobs=2, fingerprints=True)
    victim = specs[1]
    cold[victim].path.write_bytes(b"RTRACE1\ntruncated")
    monkeypatch.setattr(warm, "engine_pool", _no_pool)
    again = warm_traces(specs, cfg, jobs=2, fingerprints=True)
    assert again[victim].fingerprint == cold[victim].fingerprint
    healed = TraceCache(cfg.trace_cache_dir).get_or_create(victim.cache_key(), lambda: 1 / 0)
    assert trace_fingerprint(healed) == cold[victim].fingerprint


def test_only_missing_specs_go_to_the_pool(tmp_path, monkeypatch):
    cfg = _cfg(tmp_path)
    specs = _some_specs(cfg)
    warm_traces(specs[:2], cfg, jobs=1)
    submitted = []
    shared = warm.engine_pool

    class _RecordingPool:
        def __init__(self, width):
            self.pool = shared(width)

        def submit(self, fn, /, *args):
            submitted.append(args[0])
            return self.pool.submit(fn, *args)

    monkeypatch.setattr(warm, "engine_pool", _RecordingPool)
    entries = warm_traces(specs, cfg, jobs=2)
    assert submitted == specs[2:]
    assert [s for s, e in entries.items() if e.generated] == specs[2:]


def test_injected_executor_takes_every_warm_task(tmp_path, monkeypatch):
    # A host that injects its own pool (the job server) must not see a
    # trace warm-up build a second, process-wide one.
    cfg = _cfg(tmp_path)
    specs = _some_specs(cfg)
    submitted = []

    class _RecordingExecutor(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(args[0])
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(warm, "engine_pool", _no_pool)
    with _RecordingExecutor(max_workers=2) as executor, engine_pool_scope(executor):
        entries = warm_traces(specs, cfg, jobs=2)
    assert submitted == specs
    assert all(e.generated for e in entries.values())


@pytest.mark.parametrize("warm_first", [False, True], ids=["cold", "warm"])
def test_single_cell_plan_reads_one_trace_header(tmp_path, monkeypatch, warm_first):
    import repro.trace.io as trace_io
    from repro.experiments.engine import make_cell, plan_cells

    cfg = _cfg(tmp_path)
    cell = make_cell("indexing", "fft", "XOR", cfg)
    if warm_first:
        plan_cells([cell], cfg, jobs=1)
    reads = []
    real = trace_io.read_raw_header

    def counting(path):
        reads.append(path)
        return real(path)

    monkeypatch.setattr(trace_io, "read_raw_header", counting)
    plan = plan_cells([cell], cfg, jobs=1)
    assert len(reads) == 1
    trace = TraceCache(cfg.trace_cache_dir).get_or_create(
        workload_spec("fft", cfg).cache_key(), lambda: 1 / 0
    )
    assert plan.trace_fingerprints["fft"] == trace_fingerprint(trace)


def test_warm_error_names_spec_and_leaves_no_entry(tmp_path):
    cfg = _cfg(tmp_path)
    bad = TraceSpec(name="no-such-workload", seed=1, ref_limit=10, scale=1.0)
    with pytest.raises(TraceWarmError) as err:
        warm_traces([bad], cfg, jobs=1)
    assert err.value.spec == bad
    assert not TraceCache(cfg.trace_cache_dir).path_for(bad.cache_key()).exists()


def test_warm_requires_config_or_cache_dir():
    with pytest.raises(ValueError):
        warm_traces([])


# -- plan coverage ---------------------------------------------------------------------


@pytest.mark.parametrize("eid", available_experiments())
def test_plan_is_what_a_cold_run_warms(eid, tmp_path):
    # Every entry a cold run leaves in the trace cache is planned, and
    # every planned entry is one the run reads.  The figure memos are
    # cleared so that fig7 and fig9-fig12 run their source grid.
    cfg = _cfg(tmp_path, use_result_cache=False)
    fig04._CACHE.clear()
    fig06._CACHE.clear()
    try:
        run_experiment(eid, cfg)
    finally:
        fig04._CACHE.clear()
        fig06._CACHE.clear()
    cache = TraceCache(cfg.trace_cache_dir)
    planned = {cache.path_for(s.cache_key()) for s in specs_for([eid], cfg)}
    assert set(cache.root.iterdir()) == planned


def test_specs_for_covers_profile_traces(tmp_path):
    # fig4 has trainable (Givargis) columns: the plan must include the
    # profiling-run seeds, not just the evaluation traces.
    cfg = _cfg(tmp_path, profile_seed_offset=77)
    specs = specs_for(["fig4"], cfg)
    seeds = {s.seed for s in specs}
    assert cfg.seed in seeds and cfg.seed + 77 in seeds


def test_specs_for_is_deduplicated_and_sorted(tmp_path):
    cfg = _cfg(tmp_path)
    specs = specs_for(available_experiments(), cfg)
    assert len(specs) == len(set(specs))
    assert specs == sorted(specs, key=TraceSpec.sort_key)
    # SMT mixes contribute per-thread variants.
    assert any(s.thread is not None for s in specs)


def test_specs_for_skips_unknown_ids(tmp_path):
    assert specs_for(["no-such-experiment"], _cfg(tmp_path)) == []
