"""Best-of-N wall-clock timing for the in-run speedup floors.

Every test in this directory times both sides of the ratio it asserts in
the same process, so the floor holds on any host: a silently disabled fast
path (~1x) fails it, while host speed cancels out.  Absolute times are the
end-to-end benchmark's business (``benchmarks/e2e/``).
"""

from __future__ import annotations

import time
from typing import Any, Callable, TypeVar

T = TypeVar("T")


def best_of(fn: Callable[[], T], rounds: int = 3, warmup: int = 1) -> tuple[float, T]:
    """``(seconds, result)``: the fastest of ``rounds`` timed calls of ``fn``
    after ``warmup`` untimed ones, and the last call's result."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def best_of_alternating(
    fns: list[Callable[[], Any]], rounds: int = 3, warmup: int = 1
) -> list[tuple[float, Any]]:
    """:func:`best_of` for several callables at once, their timed calls
    alternating round by round, so a slow spell of a shared host hits
    every side of a ratio alike.  One ``(seconds, result)`` per callable."""
    for fn in fns:
        for _ in range(warmup):
            fn()
    best = [float("inf")] * len(fns)
    results: list[Any] = [None] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            results[i] = fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return list(zip(best, results))
