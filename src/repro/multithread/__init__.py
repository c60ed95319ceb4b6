"""Multithreaded (SMT) cache models for the paper's Section IV.E."""

from .._lazy import attach

__all__ = [
    "SMTSharedCache",
    "SMTResult",
    "simulate_smt",
    "StaticPartitionedCache",
    "PartitionedAdaptiveCache",
    "PartitionedResult",
    "simulate_partitioned",
]

__getattr__, __dir__ = attach(
    __name__,
    {
        "partitioned": (
            "PartitionedAdaptiveCache",
            "PartitionedResult",
            "StaticPartitionedCache",
            "simulate_partitioned",
        ),
        "smt": ("SMTResult", "SMTSharedCache", "simulate_smt"),
    },
)
