"""Core library: geometry, indexing schemes, cache models, simulation
engines, AMAT and uniformity metrics."""

from . import caches, indexing
from .address import PAPER_L1_GEOMETRY, PAPER_L2_GEOMETRY, CacheGeometry
from .dispatch import ENGINES, dispatch
from .dynamic import DynamicIndexCache
from .fastassoc import (
    simulate_adaptive,
    simulate_bcache,
    simulate_column_associative,
    simulate_partner,
)
from .three_c import MissBreakdown, classify, cold_miss_count
from .amat import (
    TimingModel,
    amat_adaptive,
    amat_column_associative,
    amat_direct_mapped,
    amat_from_cycles,
)
from .hierarchy import CacheHierarchy, HierarchyResult
from .replacement import POLICIES, make_policy
from .selector import SchemeScore, SchemeSelector, ThreadSchemeTable, profile_schemes
from .simulator import (
    SimulationResult,
    simulate,
    simulate_fully_associative,
    simulate_indexing,
    simulate_set_associative,
    warmup_split,
)
from .uniformity import (
    UniformityReport,
    distribution_moments,
    gini_coefficient,
    half_double_buckets,
    kurtosis,
    normalized_entropy,
    percent_increase,
    percent_reduction,
    skewness,
    uniformity_report,
    zhang_classification,
)

__all__ = [
    "CacheGeometry",
    "PAPER_L1_GEOMETRY",
    "PAPER_L2_GEOMETRY",
    "TimingModel",
    "amat_direct_mapped",
    "amat_adaptive",
    "amat_column_associative",
    "amat_from_cycles",
    "CacheHierarchy",
    "HierarchyResult",
    "POLICIES",
    "make_policy",
    "SimulationResult",
    "simulate",
    "simulate_indexing",
    "simulate_set_associative",
    "simulate_fully_associative",
    "ENGINES",
    "dispatch",
    "simulate_column_associative",
    "simulate_bcache",
    "simulate_partner",
    "simulate_adaptive",
    "warmup_split",
    "SchemeScore",
    "SchemeSelector",
    "ThreadSchemeTable",
    "profile_schemes",
    "UniformityReport",
    "uniformity_report",
    "distribution_moments",
    "skewness",
    "kurtosis",
    "percent_increase",
    "percent_reduction",
    "zhang_classification",
    "half_double_buckets",
    "gini_coefficient",
    "normalized_entropy",
    "indexing",
    "caches",
    "DynamicIndexCache",
    "MissBreakdown",
    "classify",
    "cold_miss_count",
]
