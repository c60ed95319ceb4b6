"""Import layers: a warm replay loads the planning layer only.

The planning layer (config, registry, experiments, trace specs and headers,
cell keys, result store, report) is what a replay needs when every cell is
a result-store hit.  The compute layer (kernels, cache models, indexing
schemes, workload generators, the I-cache and SMT models, the trace
recorder) is imported by the code that computes, and by each process pool
before it forks, so that its workers inherit it.  Each check runs in a
fresh interpreter: this test process has long since imported everything.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules a warm replay must not import.
COMPUTE_MODULES = tuple(
    f"repro.core.{name}"
    for name in ("fastsim", "fastpolicy", "fastassoc", "fastext", "decompose", "dispatch")
) + ("repro.trace.recorder",)
#: Packages none of whose submodules a warm replay may import.
COMPUTE_PREFIXES = (
    "repro.core.aux.",
    "repro.core.caches.",
    "repro.workloads.mibench.",
    "repro.workloads.spec.",
    "repro.workloads.hpc.",
    "repro.icache",
    "repro.multithread",
)

#: The packages whose exports resolve on first access.
LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.core.aux",
    "repro.core.caches",
    "repro.core.indexing",
    "repro.icache",
    "repro.multithread",
    "repro.trace",
    "repro.workloads",
    "repro.workloads.hpc",
    "repro.workloads.mibench",
    "repro.workloads.spec",
)

_PRELUDE = f"""
import json, sys
sys.path.insert(0, {str(SRC)!r})
COMPUTE_MODULES = {COMPUTE_MODULES!r}
COMPUTE_PREFIXES = {COMPUTE_PREFIXES!r}

def compute_loaded():
    return sorted(
        m for m in sys.modules
        if m in COMPUTE_MODULES or m.startswith(COMPUTE_PREFIXES)
    )
"""


def _run(body: str, cwd: Path) -> dict:
    """Run ``body`` in a fresh interpreter; the JSON it prints last."""
    proc = subprocess.run(
        [sys.executable, "-c", _PRELUDE + textwrap.dedent(body)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


_REPLAY = """
from dataclasses import replace
from repro.experiments import PaperConfig, available_experiments, run_experiment

config = replace(PaperConfig(), ref_limit=2000, jobs=2, trace_cache_dir="cache")
misses = 0
for eid in available_experiments():
    misses += run_experiment(eid, config).engine_stats["cache_misses"]
print(json.dumps({"misses": misses, "compute": compute_loaded(),
                  "repro": sum(m.split(".")[0] == "repro" for m in sys.modules)}))
"""


def test_warm_replay_imports_no_compute_module(tmp_path):
    cold = _run(_REPLAY, tmp_path)
    assert cold["misses"] > 0
    warm = _run(_REPLAY, tmp_path)
    assert warm["misses"] == 0
    assert warm["compute"] == []
    # Of the whole package, the planning layer only (cold: every module).
    assert warm["repro"] < cold["repro"] / 2


#: How each process pool of the package is built: the engine's and the job
#: server's.
POOLS = {
    "engine": "from repro.experiments.engine.pool import engine_pool\npool = engine_pool(2)",
    "service": (
        "from repro.experiments import PaperConfig\n"
        "from repro.service.scheduler import CellScheduler\n"
        "pool = CellScheduler(PaperConfig(), workers=1).executor"
    ),
}


@pytest.mark.parametrize("pool", sorted(POOLS))
def test_a_pool_imports_the_compute_layer_before_forking(pool, tmp_path):
    out = _run(
        """
        before = compute_loaded()
        exec(BUILD)
        # The workers fork on the first submission; whatever they find
        # loaded, the parent imported before.
        in_worker = pool.submit(compute_loaded).result()
        print(json.dumps({"before": before, "parent": compute_loaded(),
                          "worker": in_worker}))
        """.replace("BUILD", repr(POOLS[pool])),
        tmp_path,
    )
    assert out["before"] == []
    assert "repro.core.dispatch" in out["parent"]
    assert any(m.startswith("repro.workloads.mibench.") for m in out["parent"])
    assert out["worker"] == out["parent"]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_resolves(package, tmp_path):
    out = _run(
        f"""
        import importlib, types

        pkg = importlib.import_module({package!r})
        values = {{name: getattr(pkg, name) for name in pkg.__all__}}
        namespace = {{}}
        exec("from {package} import *", namespace)
        print(json.dumps({{
            "missing": sorted(set(pkg.__all__) - set(namespace)),
            "not_in_dir": sorted(set(pkg.__all__) - set(dir(pkg))),
            "modules": sorted(n for n, v in values.items()
                              if isinstance(v, types.ModuleType)),
        }}))
        """,
        tmp_path,
    )
    assert out["missing"] == []
    assert out["not_in_dir"] == []
    # Only the exported subpackages are modules.
    expected = {
        "repro.core": ["caches", "indexing"],
        "repro.workloads": ["hpc", "mibench", "spec"],
    }
    assert out["modules"] == expected.get(package, [])


def test_an_export_named_like_its_module_stays_the_export(tmp_path):
    """``repro.core.dispatch`` is the function, even once its module loaded."""
    out = _run(
        """
        import repro.core.dispatch
        from repro.core import dispatch
        import repro.core

        print(json.dumps([callable(dispatch), type(repro.core.dispatch).__name__]))
        """,
        tmp_path,
    )
    assert out == [True, "function"]


def test_registries_are_complete_on_first_lookup(tmp_path):
    out = _run(
        """
        from repro.workloads import WORKLOAD_REGISTRY, available_workloads
        from repro.core.indexing import available_schemes

        print(json.dumps([len(WORKLOAD_REGISTRY), len(available_workloads()),
                          available_schemes()]))
        """,
        tmp_path,
    )
    assert out[0] == out[1] == 26
    assert {"modulo", "xor", "odd_multiplier", "prime_modulo", "givargis"} <= set(out[2])
