"""HPC workload kernels — the suite the paper says it was extending to
("we are currently repeating our experiments with SPEC as well as HPC
applications").  Each registers on the first lookup in the workload
registry (:func:`repro.workloads.get_workload`)."""

from ..._lazy import attach

HPC_ORDER = ["histogram", "jacobi", "spmv", "stream", "transpose"]

__all__ = [
    "HistogramWorkload",
    "JacobiWorkload",
    "SpmvWorkload",
    "StreamWorkload",
    "TransposeWorkload",
    "HPC_ORDER",
]

__getattr__, __dir__ = attach(
    __name__,
    {
        "histogram": ("HistogramWorkload",),
        "jacobi": ("JacobiWorkload",),
        "spmv": ("SpmvWorkload",),
        "stream": ("StreamWorkload",),
        "transpose": ("TransposeWorkload",),
    },
)
