"""Trace-generation speedup floors: each bulk-emission kernel against its
own scalar emission path.

Each rewritten kernel is timed against its scalar path in the same process
and must clear its floor, so a silently disabled fast path fails the suite
on any host.  The scalar/bulk pairs double as differential fixtures: both
paths must also agree bit-for-bit (the golden-hash contract), so the floor
run re-verifies the contract it is timing.
"""

from __future__ import annotations

import numpy as np
import pytest
from bench_timing import best_of

from repro.workloads import get_workload

#: The kernels rewritten onto the bulk emitters (the trace-generation
#: hot list), with the speedup floor each must clear vs its scalar path.
#: Floors are set well below the observed speedups (5.7x-40x at full
#: length) so scheduler noise cannot flake the gate, while a disabled or
#: broken fast path (~1x) still fails loudly.
REWRITTEN = {
    "qsort": 3.0,
    "basicmath": 3.0,
    "crc": 3.0,
    "sha": 3.0,
    "mcf": 3.0,
    "stream": 5.0,
    "jacobi": 5.0,
    "transpose": 5.0,
}

FLOOR_REFS = 60_000


@pytest.mark.parametrize("name", sorted(REWRITTEN))
def test_bulk_speedup_floor(name):
    """Bulk emission must stay >= its floor vs scalar, and bit-identical."""
    wl = get_workload(name)
    floor = REWRITTEN[name]
    # Warmup (imports, allocator, rng replay caches), then best of 2 scalar.
    wl.generate(seed=2011, ref_limit=2000)
    scalar_s, scalar_trace = best_of(
        lambda: wl.generate(seed=2011, ref_limit=FLOOR_REFS, emission="scalar"),
        rounds=2,
        warmup=0,
    )
    bulk_s, bulk_trace = best_of(lambda: wl.generate(seed=2011, ref_limit=FLOOR_REFS))
    np.testing.assert_array_equal(bulk_trace.addresses, scalar_trace.addresses)
    np.testing.assert_array_equal(bulk_trace.is_write, scalar_trace.is_write)
    speedup = scalar_s / bulk_s
    assert speedup >= floor, (
        f"{name}: bulk path only {speedup:.1f}x over scalar "
        f"(floor {floor}x; scalar {scalar_s:.3f}s, bulk {bulk_s:.3f}s)"
    )
