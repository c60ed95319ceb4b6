"""Instruction-fetch trace generation from a call sequence.

Given a :class:`~repro.icache.code.CodeLayout` and a dynamic call sequence,
produce the L1I reference stream: each invocation fetches its procedure's
body sequentially (one reference per instruction-cache line), covering
``body_coverage`` of the body, optionally repeating the covered prefix
``loop_iterations`` times (hot inner loops re-fetch the same lines — which
is precisely why resident hot procedures matter).

The result is an ordinary :class:`~repro.trace.event.Trace`, so the entire
data-side machinery (indexing schemes, cache models, uniformity metrics)
applies to instruction caches unchanged.
"""

from __future__ import annotations

import numpy as np

from ..trace.event import Trace
from .code import CodeLayout

__all__ = ["generate_itrace", "synthetic_call_sequence"]


def generate_itrace(
    layout: CodeLayout,
    call_sequence: list[str],
    line_bytes: int = 32,
    loop_iterations: int = 1,
    name: str = "itrace",
) -> Trace:
    """I-fetch trace for ``call_sequence`` under ``layout``.

    Every invocation of a procedure fetches the same block, so each distinct
    procedure's block is built once and the trace is one concatenation over
    the call sequence.
    """
    if loop_iterations < 1:
        raise ValueError("loop_iterations must be >= 1")
    blocks: dict[str, np.ndarray] = {}
    for proc_name in dict.fromkeys(call_sequence):
        proc = layout.procedures[proc_name]
        start = layout.start_of(proc_name)
        covered = max(1, int(proc.size_bytes * proc.body_coverage))
        lines = np.arange(start, start + covered, line_bytes, dtype=np.uint64)
        if loop_iterations > 1:
            lines = np.tile(lines, loop_iterations)
        blocks[proc_name] = lines
    addresses = (
        np.concatenate([blocks[p] for p in call_sequence])
        if call_sequence
        else np.empty(0, dtype=np.uint64)
    )
    return Trace(addresses, name=name, meta={"calls": len(call_sequence)})


def synthetic_call_sequence(
    procedures: list[str],
    length: int,
    seed: int = 0,
    zipf_exponent: float = 1.3,
    phase_length: int = 64,
) -> list[str]:
    """A realistic call sequence: Zipf-popular procedures with phase locality.

    Within a phase only a random subset of procedures is active (programs
    alternate between clusters of routines); popularity across phases is
    Zipf — a few hot procedures dominate, as every profile-driven paper
    assumes.
    """
    rng = np.random.default_rng(seed)
    n = len(procedures)
    ranks = np.arange(1, n + 1, dtype=np.float64) ** -zipf_exponent
    popularity = ranks / ranks.sum()
    order = rng.permutation(n)
    sequence: list[str] = []
    while len(sequence) < length:
        active = rng.choice(n, size=max(2, n // 3), replace=False, p=popularity)
        weights = popularity[active] / popularity[active].sum()
        # One draw per phase: ``choice`` with ``p`` takes its m uniforms
        # through one ``random(m)``, which consumes the bit generator as m
        # scalar ``choice`` calls do and maps each uniform through the
        # same normalised cdf, so the sequence is the per-call one.
        m = min(phase_length, length - len(sequence))
        picks = rng.choice(active, size=m, p=weights)
        sequence.extend(procedures[i % n] for i in order[picks])
    return sequence
