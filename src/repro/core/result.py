"""The result of one simulated cell, apart from the engines that make it.

:class:`SimulationResult` is what every engine returns and what the
experiment engine stores, loads and aggregates.  It lives here rather than
in :mod:`repro.core.simulator` so that reading a stored result (a warm
replay) imports no kernel; the simulator re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .amat import TimingModel, amat_from_cycles

__all__ = ["ENGINES", "SimulationResult", "check_engine"]

#: Engine choices: ``"auto"`` takes an exact fast path where one applies,
#: ``"sequential"`` forces the per-access reference loop.
ENGINES = ("auto", "sequential")


def check_engine(engine: str) -> None:
    """Reject an engine name outside :data:`ENGINES`."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")


@dataclass
class SimulationResult:
    """Outcome of one (cache, trace) simulation."""

    model: str
    trace_name: str
    accesses: int
    hits: int
    misses: int
    lookup_cycles: int
    slot_accesses: np.ndarray
    slot_hits: np.ndarray
    slot_misses: np.ndarray
    extra: dict[str, int] = field(default_factory=dict)
    #: How :func:`~repro.core.dispatch.dispatch` produced the result
    #: (``fast:<kernel>`` or ``sequential:<reason>``; empty when it did not).
    #: Metadata only: never stored, sent or keyed.
    path: str = field(default="", compare=False)

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.miss_rate if self.accesses else 0.0

    def amat(self, timing: TimingModel | None = None) -> float:
        """Exact AMAT from accumulated lookup cycles."""
        return amat_from_cycles(self.lookup_cycles, self.misses, self.accesses, timing)

    def fraction(self, key: str, denominator: str) -> float:
        base: float
        if denominator in ("accesses", "hits", "misses"):
            base = getattr(self, denominator)
        else:
            base = self.extra.get(denominator, 0)
        return self.extra.get(key, 0) / base if base else 0.0

    def summary(self) -> dict[str, float | int | str]:
        return {
            "model": self.model,
            "trace": self.trace_name,
            "accesses": self.accesses,
            "misses": self.misses,
            "miss_rate": self.miss_rate,
            "lookup_cycles": self.lookup_cycles,
            **self.extra,
        }
