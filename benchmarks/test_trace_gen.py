"""Trace-generation floors, each a ratio timed within one run.

* **Bulk vs scalar:** each bulk-emission kernel is timed against its own
  scalar emission path and must clear its floor, so a silently disabled
  fast path fails the suite on any host.  The scalar/bulk pairs double as
  differential fixtures: both paths must also agree bit-for-bit (the
  golden-hash contract), so the floor run re-verifies the contract it is
  timing.
* **Cost follows the cut:** a scalar-heavy kernel must take clearly longer
  to generate 32,768 references than 2,000, so a recorder that runs
  kernels past ``ref_limit`` (and throws the overshoot away) fails.
"""

from __future__ import annotations

import numpy as np
import pytest
from bench_timing import best_of, best_of_alternating

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


#: Kernels that emit mostly through the pending buffer (scalar verbs), and
#: the two cuts timed against each other.  Generation past the cut at the
#: small size would read ~1x; a recorder that stops at the cut read
#: 9-39x on these three (best of 5 on a 2-vCPU VM).
CUT_KERNELS = ("namd", "patricia", "susan")
CUT_SMALL, CUT_LARGE = 2_000, 32_768
CUT_FLOOR = 3.0


@pytest.mark.parametrize("name", CUT_KERNELS)
def test_generation_cost_follows_the_cut(name):
    """Generating 32,768 references must cost >= 3x generating 2,000."""
    wl = get_workload(name)
    (small_s, small), (large_s, large) = best_of_alternating(
        [
            lambda: wl.generate(seed=2011, ref_limit=CUT_SMALL),
            lambda: wl.generate(seed=2011, ref_limit=CUT_LARGE),
        ],
        rounds=5,
    )
    assert (len(small), len(large)) == (CUT_SMALL, CUT_LARGE)
    ratio = large_s / small_s
    assert ratio >= CUT_FLOOR, (
        f"{name}: {CUT_LARGE} refs took only {ratio:.1f}x as long as {CUT_SMALL} "
        f"(floor {CUT_FLOOR}x; {large_s * 1e3:.1f} ms vs {small_s * 1e3:.1f} ms) "
        f"— the kernel runs past ref_limit"
    )
