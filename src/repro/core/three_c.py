"""3C miss classification (Hill's cold / capacity / conflict taxonomy).

The paper's whole premise is that *conflict* misses — the component caused
by the index function mapping live blocks onto each other — are large for
direct-mapped caches and can be recovered by better indexing or selective
associativity.  This module measures that premise directly:

* **cold** (compulsory): first reference to a block; no organisation of any
  size avoids it;
* **capacity**: misses a fully-associative LRU cache of equal capacity also
  suffers (beyond cold);
* **conflict**: the remainder — misses the direct-mapped (or otherwise
  restricted) placement causes on top of full associativity.

``classify`` runs the standard construction: the target organisation and a
same-capacity fully-associative LRU cache over the same trace.  The conflict
count can be *negative* in principle (LRU is not optimal; a direct-mapped
cache can beat it on cyclic patterns) — the classic caveat, preserved rather
than clamped, and reported so the tables are honest.

The per-benchmark 3C breakdown is exposed as experiment ``ext-3c``: the
benchmarks with high conflict share are exactly the ones that respond to the
paper's techniques.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..trace.event import Trace
from .address import CacheGeometry

if TYPE_CHECKING:
    from .caches.base import CacheModel

__all__ = ["MissBreakdown", "cold_miss_count", "classify"]


@dataclass(frozen=True)
class MissBreakdown:
    """Misses of one (cache, trace) pair split into the 3C classes."""

    total: int
    cold: int
    capacity: int
    conflict: int
    accesses: int

    @property
    def miss_rate(self) -> float:
        return self.total / self.accesses if self.accesses else 0.0

    def share(self, component: str) -> float:
        """Fraction of all misses in `component` ('cold'/'capacity'/'conflict')."""
        value = getattr(self, component)
        return value / self.total if self.total else 0.0

    def as_dict(self) -> dict[str, int | float]:
        return {
            "total": self.total,
            "cold": self.cold,
            "capacity": self.capacity,
            "conflict": self.conflict,
            "miss_rate": self.miss_rate,
        }


def cold_miss_count(trace: Trace, geometry: CacheGeometry) -> int:
    """Compulsory misses: the number of distinct blocks touched."""
    return int(trace.unique_blocks(geometry.offset_bits).size)


def classify(
    cache: CacheModel,
    trace: Trace,
    geometry: CacheGeometry | None = None,
    engine: str = "auto",
) -> MissBreakdown:
    """3C breakdown of ``cache``'s misses on ``trace``.

    ``geometry`` defaults to the cache's own geometry and determines the
    capacity of the fully-associative reference.  The target runs through
    :func:`~repro.core.dispatch.dispatch` and the fully-associative
    reference through the stack-distance kernel; ``engine="sequential"``
    forces the reference loop for both (used by the differential tests).
    """
    from .dispatch import dispatch

    target = dispatch(cache, trace, engine=engine)
    return split_misses(target.misses, trace, geometry or cache.geometry, engine)


def split_misses(
    total: int, trace: Trace, geometry: CacheGeometry, engine: str = "auto"
) -> MissBreakdown:
    """3C breakdown of ``total`` misses that a cache of ``geometry`` took on
    ``trace`` (the second half of :func:`classify`, for a caller that ran
    the target itself)."""
    from .caches.fully_associative import FullyAssociativeCache
    from .simulator import simulate, simulate_fully_associative

    cold = cold_miss_count(trace, geometry)
    fa_geometry = CacheGeometry(
        geometry.capacity_bytes, geometry.line_bytes, 1, geometry.address_bits
    )
    if engine == "sequential":
        fa = simulate(FullyAssociativeCache(fa_geometry), trace).misses
    else:
        fa = simulate_fully_associative(trace, fa_geometry).misses
    capacity = fa - cold
    conflict = total - fa
    return MissBreakdown(
        total=total,
        cold=cold,
        capacity=capacity,
        conflict=conflict,
        accesses=len(trace),
    )
