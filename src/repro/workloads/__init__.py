"""Workloads: executable kernels that emit the memory traces the paper's
benchmarks produced under SimpleScalar.

Look workloads up with :func:`get_workload`; the first lookup imports and
registers every MiBench, SPEC-like and HPC workload.  The suites' benchmark
orders (``MIBENCH_ORDER`` ...) import without them.
"""

from .._lazy import attach
from .hpc import HPC_ORDER
from .mibench import MIBENCH_ORDER
from .spec import SPEC_ORDER

__all__ = [
    "Workload",
    "register_workload",
    "get_workload",
    "available_workloads",
    "WORKLOAD_REGISTRY",
    "DEFAULT_REF_LIMIT",
    "MIBENCH_ORDER",
    "SPEC_ORDER",
    "HPC_ORDER",
    "mibench",
    "spec",
    "hpc",
]

__getattr__, __dir__ = attach(
    __name__,
    {
        "base": (
            "DEFAULT_REF_LIMIT",
            "WORKLOAD_REGISTRY",
            "Workload",
            "available_workloads",
            "get_workload",
            "register_workload",
        ),
    },
    subpackages=("hpc", "mibench", "spec"),
    complete=("WORKLOAD_REGISTRY",),
)
