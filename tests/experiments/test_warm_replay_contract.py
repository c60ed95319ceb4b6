"""A warm replay simulates nothing.

Every registered experiment runs through the cell engine, so once an
experiment has run, a rerun on the same trace and result caches is answered
from the result store: its ``engine_stats`` report zero cache misses, and no
simulator is entered at all — not the sequential loop (``simulate``), not
the multithreaded models, not the 3C classifier.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import replace

import pytest

from repro.core import simulator, three_c
from repro.experiments import PaperConfig, available_experiments, run_experiment
from repro.experiments import fig04_indexing_missrate as fig04
from repro.experiments import fig06_progassoc_missrate as fig06
from repro.multithread import partitioned, smt

#: The simulators a warm replay must never enter.
SIMULATORS = (
    simulator.simulate,
    smt.simulate_smt,
    partitioned.simulate_partitioned,
    three_c.classify,
)


def _count_simulator_calls(monkeypatch) -> Counter:
    """Wrap every binding of :data:`SIMULATORS` in a loaded ``repro``
    module with a counter (modules import them by name)."""
    calls: Counter = Counter()

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {id(fn): counting(fn) for fn in SIMULATORS}
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                monkeypatch.setattr(module, attr, wrappers[id(value)])
    return calls


def _fresh_process_state() -> None:
    """Drop the figure modules' in-process memos, as a new replay process has none."""
    fig04._CACHE.clear()
    fig06._CACHE.clear()


@pytest.mark.parametrize("eid", available_experiments())
def test_warm_rerun_is_all_store_hits(eid, tmp_path, monkeypatch):
    config = replace(PaperConfig(), ref_limit=2000, trace_cache_dir=tmp_path / "traces")
    _fresh_process_state()
    run_experiment(eid, config)
    _fresh_process_state()
    calls = _count_simulator_calls(monkeypatch)
    warm = run_experiment(eid, config)
    _fresh_process_state()
    stats = warm.engine_stats
    assert stats, f"{eid} reports no engine stats"
    assert stats["cells_total"] > 0
    assert stats["cache_misses"] == 0
    assert stats["cache_hits"] == stats["cells_total"]
    assert not calls, f"{eid} entered simulators on a warm run: {dict(calls)}"
