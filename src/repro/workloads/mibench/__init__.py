"""MiBench workload kernels (the 11 benchmarks of the paper's Figures 1,
4, 6, 7, 9-12).  Each registers on the first lookup in the workload
registry (:func:`repro.workloads.get_workload`)."""

from ..._lazy import attach

#: The paper's Figure 4/6 benchmark order.
MIBENCH_ORDER = [
    "adpcm",
    "basicmath",
    "bitcount",
    "crc",
    "dijkstra",
    "fft",
    "patricia",
    "qsort",
    "rijndael",
    "sha",
    "susan",
]

__all__ = [
    "AdpcmWorkload",
    "BasicmathWorkload",
    "BitcountWorkload",
    "CRCWorkload",
    "DijkstraWorkload",
    "FFTWorkload",
    "PatriciaWorkload",
    "QsortWorkload",
    "RijndaelWorkload",
    "ShaWorkload",
    "SusanWorkload",
    "MIBENCH_ORDER",
]

__getattr__, __dir__ = attach(
    __name__,
    {
        "adpcm": ("AdpcmWorkload",),
        "basicmath": ("BasicmathWorkload",),
        "bitcount": ("BitcountWorkload",),
        "crc": ("CRCWorkload",),
        "dijkstra": ("DijkstraWorkload",),
        "fft": ("FFTWorkload",),
        "patricia": ("PatriciaWorkload",),
        "qsort": ("QsortWorkload",),
        "rijndael": ("RijndaelWorkload",),
        "sha": ("ShaWorkload",),
        "susan": ("SusanWorkload",),
    },
)
