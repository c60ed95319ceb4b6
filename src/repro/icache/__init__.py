"""Instruction-cache side: code layout, I-fetch trace generation, and the
procedure-placement optimisation the paper discusses (its reference [16])."""

from .._lazy import attach

__all__ = [
    "Procedure",
    "CodeLayout",
    "CallProfile",
    "generate_itrace",
    "synthetic_call_sequence",
    "optimize_placement",
    "weighted_overlap_cost",
]

__getattr__, __dir__ = attach(
    __name__,
    {
        "code": ("CallProfile", "CodeLayout", "Procedure"),
        "generator": ("generate_itrace", "synthetic_call_sequence"),
        "placement": ("optimize_placement", "weighted_overlap_cost"),
    },
)
