"""Workload framework.

A :class:`Workload` wraps a *kernel* — a function that executes a real
algorithm against the modelled address space, emitting every data reference
through a :class:`~repro.trace.recorder.Recorder`.  Workloads are registered
by name so experiments refer to them exactly as the paper's figures do
("fft", "qsort", "mcf", ...).

``generate(seed, ref_limit, scale)`` is the single entry point: it runs the
kernel (bounded by the reference limit), names and annotates the trace.  The
``scale`` knob multiplies the kernel's problem sizes so tests can run tiny
instances and benches full ones.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .._lazy import load_all
from ..trace.event import Trace

if TYPE_CHECKING:
    from ..trace.recorder import Recorder

__all__ = [
    "Workload",
    "register_workload",
    "get_workload",
    "available_workloads",
    "WORKLOAD_REGISTRY",
    "DEFAULT_REF_LIMIT",
]

#: Default trace length: long enough for 1024 sets to develop their access
#: profile (≈200 references per set on average), short enough for the full
#: figure sweeps to run in minutes on a laptop.
DEFAULT_REF_LIMIT = 200_000

WORKLOAD_REGISTRY: dict[str, "Workload"] = {}


def register_workload(cls: type["Workload"]) -> type["Workload"]:
    """Class decorator: instantiate and register under ``cls.name``."""
    instance = cls()
    if instance.name in WORKLOAD_REGISTRY:
        raise ValueError(f"duplicate workload name {instance.name!r}")
    WORKLOAD_REGISTRY[instance.name] = instance
    return cls


def get_workload(name: str) -> "Workload":
    load_all(__package__)  # registers every in-tree workload
    try:
        return WORKLOAD_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(WORKLOAD_REGISTRY)}"
        ) from None


def available_workloads(suite: str | None = None) -> list[str]:
    load_all(__package__)  # registers every in-tree workload
    names = [
        n for n, w in WORKLOAD_REGISTRY.items() if suite is None or w.suite == suite
    ]
    return sorted(names)


@dataclass(frozen=True)
class WorkloadInfo:
    name: str
    suite: str
    description: str
    access_pattern: str


class Workload(ABC):
    """A named trace generator backed by a real algorithm."""

    #: Registry key (matches the paper's benchmark names).
    name: str = "abstract"
    #: "mibench" or "spec" (or "synthetic").
    suite: str = ""
    #: One-line description of what the real benchmark does.
    description: str = ""
    #: The dominant memory behaviour this kernel reproduces.
    access_pattern: str = ""

    @abstractmethod
    def kernel(self, m: Recorder, scale: float) -> None:
        """Run the algorithm, emitting references through ``m``."""

    def generate(
        self,
        seed: int = 0,
        ref_limit: int | None = DEFAULT_REF_LIMIT,
        scale: float = 1.0,
        thread: int = 0,
        emission: str = "bulk",
    ) -> Trace:
        """Generate the workload's trace.

        ``emission`` selects the kernel's emission path: ``"bulk"`` (the
        default) lets kernels use the vectorised emitters, ``"scalar"``
        forces one-reference-per-call emission.  Both produce bit-identical
        traces — the contract locked by ``tests/trace/test_golden_hashes.py``
        — so the knob is deliberately *not* part of any trace-cache key; it
        exists for differential tests and benchmark denominators.
        """
        from ..trace.recorder import record

        if emission not in ("bulk", "scalar"):
            raise ValueError(f"unknown emission mode {emission!r}")
        trace = record(
            lambda m: self.kernel(m, scale),
            name=self.name,
            seed=seed,
            ref_limit=ref_limit,
            thread=thread,
            meta={"suite": self.suite, "scale": scale},
            bulk=emission == "bulk",
        )
        return trace

    def info(self) -> WorkloadInfo:
        return WorkloadInfo(self.name, self.suite, self.description, self.access_pattern)

    @staticmethod
    def scaled(base: int, scale: float, minimum: int = 1) -> int:
        """Problem-size helper: ``max(minimum, round(base * scale))``."""
        return max(minimum, int(round(base * scale)))
