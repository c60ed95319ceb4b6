"""repro — reproduction of *Evaluation of Techniques to Improve Cache Access
Uniformities* (Nwachukwu, Kavi, Fawibe & Yan, ICPP 2011).

Public API tour
---------------

Geometry & simulation::

    from repro import CacheGeometry, simulate, simulate_indexing
    from repro.core.caches import DirectMappedCache, ColumnAssociativeCache

Indexing schemes (paper Section II)::

    from repro.core.indexing import (
        ModuloIndexing, XorIndexing, OddMultiplierIndexing,
        PrimeModuloIndexing, GivargisIndexing, GivargisXorIndexing,
    )

Workloads (MiBench / SPEC-like trace generators)::

    from repro.workloads import get_workload
    trace = get_workload("fft").generate(seed=1, ref_limit=200_000)

Experiments (one per paper figure)::

    from repro.experiments import run_experiment
    result = run_experiment("fig4")
"""

from ._lazy import attach

__version__ = "1.0.0"

__all__ = [
    "CacheGeometry",
    "PAPER_L1_GEOMETRY",
    "PAPER_L2_GEOMETRY",
    "TimingModel",
    "CacheHierarchy",
    "SimulationResult",
    "simulate",
    "simulate_indexing",
    "profile_schemes",
    "uniformity_report",
    "Trace",
    "record",
    "__version__",
]

__getattr__, __dir__ = attach(
    __name__,
    {
        "core": (
            "PAPER_L1_GEOMETRY",
            "PAPER_L2_GEOMETRY",
            "CacheGeometry",
            "CacheHierarchy",
            "SimulationResult",
            "TimingModel",
            "profile_schemes",
            "simulate",
            "simulate_indexing",
            "uniformity_report",
        ),
        "trace": ("Trace", "record"),
    },
)
