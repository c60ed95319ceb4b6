"""Cache models: baselines plus the paper's programmable-associativity
architectures (Section III)."""

from ..._lazy import attach

__all__ = [
    "AccessResult",
    "CacheModel",
    "CacheStats",
    "EMPTY",
    "DirectMappedCache",
    "SetAssociativeCache",
    "FullyAssociativeCache",
    "BeladyCache",
    "ColumnAssociativeCache",
    "AdaptiveGroupAssociativeCache",
    "BalancedCache",
    "VictimCache",
    "PartnerIndexCache",
    "SkewedAssociativeCache",
]

__getattr__, __dir__ = attach(
    __name__,
    {
        "adaptive": ("AdaptiveGroupAssociativeCache",),
        "base": ("EMPTY", "AccessResult", "CacheModel", "CacheStats"),
        "bcache": ("BalancedCache",),
        "column_associative": ("ColumnAssociativeCache",),
        "direct_mapped": ("DirectMappedCache",),
        "fully_associative": ("BeladyCache", "FullyAssociativeCache"),
        "partner": ("PartnerIndexCache",),
        "set_associative": ("SetAssociativeCache",),
        "skewed": ("SkewedAssociativeCache",),
        "victim": ("VictimCache",),
    },
)
