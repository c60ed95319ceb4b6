"""SPEC-CPU2006-like workload kernels (the 10 benchmarks of the paper's
Figure 8).  Each registers on the first lookup in the workload registry
(:func:`repro.workloads.get_workload`)."""

from ..._lazy import attach

#: The paper's Figure 8 benchmark order.
SPEC_ORDER = [
    "astar",
    "bzip2",
    "calculix",
    "gromacs",
    "hmmer",
    "libquantum",
    "mcf",
    "milc",
    "namd",
    "sjeng",
]

__all__ = [
    "AstarWorkload",
    "Bzip2Workload",
    "CalculixWorkload",
    "GromacsWorkload",
    "HmmerWorkload",
    "LibquantumWorkload",
    "McfWorkload",
    "MilcWorkload",
    "NamdWorkload",
    "SjengWorkload",
    "SPEC_ORDER",
]

__getattr__, __dir__ = attach(
    __name__,
    {
        "astar": ("AstarWorkload",),
        "bzip2": ("Bzip2Workload",),
        "calculix": ("CalculixWorkload",),
        "gromacs": ("GromacsWorkload",),
        "hmmer": ("HmmerWorkload",),
        "libquantum": ("LibquantumWorkload",),
        "mcf": ("McfWorkload",),
        "milc": ("MilcWorkload",),
        "namd": ("NamdWorkload",),
        "sjeng": ("SjengWorkload",),
    },
)
