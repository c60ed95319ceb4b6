"""The bit-identical trace contract.

``golden_trace_hashes.json`` holds a SHA-256 content hash (addresses,
is_write, thread) for **every** registered workload at three reference
limits (the end-to-end replay size, a round figure and an awkward odd cut),
plus thread-variant samples — all generated by the *scalar* emission path
before any bulk-emission kernel rewrite landed (the 2000-reference entries
were added later, from the unchanged scalar path, before the recorder began
cutting its pending buffer at the room left before the limit).

The contract: any trace-generation optimisation (vector emitters, kernel
rewrites, parallel prefetch) must reproduce these hashes bit for bit.  A
kernel whose fast path cannot stay bit-identical must keep its scalar path.
The hashes are regenerated ONLY when a workload's modelled behaviour is
deliberately changed — never to accommodate an optimisation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.workloads import WORKLOAD_REGISTRY, get_workload

GOLDEN_PATH = Path(__file__).parent / "golden_trace_hashes.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: The contract ref-limits: the end-to-end replay size (``--refs 2000``), a
#: round figure cut and an awkward odd cut (exercises mid-pattern truncation
#: inside bulk emitters).
LIMITS = (2000, 4000, 4097)


def trace_hash(trace) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(trace.addresses).tobytes())
    h.update(np.ascontiguousarray(trace.is_write).tobytes())
    h.update(np.ascontiguousarray(trace.thread).tobytes())
    return h.hexdigest()


def test_every_registered_workload_is_covered():
    """A newly added in-tree workload must gain golden hashes in the same PR.

    Only workloads shipped under ``repro.workloads`` are held to the
    contract: example scripts (run in-process by other tests) register
    ad-hoc workloads into the global registry, and those are out of scope.
    """
    for name, cls in WORKLOAD_REGISTRY.items():
        if not cls.__module__.startswith("repro.workloads"):
            continue
        for limit in LIMITS:
            assert f"{name}@{limit}" in GOLDEN, (
                f"workload {name!r} has no golden trace hash at ref_limit={limit}; "
                f"add it to {GOLDEN_PATH.name}"
            )


@pytest.mark.parametrize("limit", LIMITS)
@pytest.mark.parametrize("name", sorted(WORKLOAD_REGISTRY))
def test_golden_trace_hash(name: str, limit: int):
    trace = get_workload(name).generate(seed=2011, ref_limit=limit, scale=1.0)
    assert len(trace) <= limit
    assert trace_hash(trace) == GOLDEN[f"{name}@{limit}"], (
        f"{name} trace at ref_limit={limit} diverged from the scalar-emission "
        f"golden hash — the bit-identical trace contract is broken"
    )


@pytest.mark.parametrize("name", ["qsort", "fft"])
def test_golden_thread_variant_hash(name: str):
    """SMT-style regeneration (seed offset + thread tag) is under contract too."""
    trace = get_workload(name).generate(seed=2012, ref_limit=3000, scale=1.0, thread=1)
    assert trace_hash(trace) == GOLDEN[f"{name}@3000/t1"]
    assert trace.thread.min() == trace.thread.max() == 1
