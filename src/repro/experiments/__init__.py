"""Experiments: one registered runner per paper figure.

Importing this package registers fig1 and fig4-fig14 (figs 2/3/5 are
schematics with nothing to measure)::

    from repro.experiments import run_experiment, PaperConfig
    print(run_experiment("fig4", PaperConfig()))
"""

from . import (  # noqa: F401  (imported for registration side effects)
    ext_assoc,
    ext_aux,
    ext_bounds,
    ext_dynamic,
    ext_hpc,
    ext_hybrid,
    ext_icache,
    ext_patel,
    ext_policy,
    ext_three_c,
    fig01_nonuniformity,
    fig04_indexing_missrate,
    fig06_progassoc_missrate,
    fig08_colassoc_indexing,
    fig09_uniformity_moments,
    fig13_smt_indexing,
    fig14_partitioned_amat,
)
from .config import MULTITHREAD_MIXES_FIG13, MULTITHREAD_MIXES_FIG14, PaperConfig
from .engine import (
    CellExecutionError,
    EngineStats,
    ResultCache,
    ResultStore,
    SharedDirStore,
    effective_jobs,
    make_store,
)
from .report import ExperimentResult, render_bars, render_table, sparkline
from .runner import (
    EXPERIMENT_REGISTRY,
    available_experiments,
    register_experiment,
    run_experiment,
    workload_trace,
)

__all__ = [
    "PaperConfig",
    "MULTITHREAD_MIXES_FIG13",
    "MULTITHREAD_MIXES_FIG14",
    "ExperimentResult",
    "render_table",
    "render_bars",
    "sparkline",
    "run_experiment",
    "register_experiment",
    "available_experiments",
    "EXPERIMENT_REGISTRY",
    "workload_trace",
    "EngineStats",
    "ResultCache",
    "ResultStore",
    "SharedDirStore",
    "make_store",
    "CellExecutionError",
    "effective_jobs",
]
