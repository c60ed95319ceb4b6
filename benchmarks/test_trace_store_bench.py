"""Trace-store speedup floor: warm load of the raw mmap format against an
npz decode of the same trace.

Both paths load the same 1M-reference trace with the file warm in the OS
page cache (the steady state of every figure replay, ``repro serve``
worker and cluster node):

* the zero-copy ``load_raw`` must clear 5x over ``load_npz`` of the
  identical trace, timed in the same process, so a silently disabled mmap
  path (e.g. an accidental copy-mode default) fails on any host;
* the mapped and decoded traces are re-checked **bit-identical**, field
  for field: the timed artefact is the verified artefact.
"""

from __future__ import annotations

import numpy as np
from bench_timing import best_of

from repro.trace import zipf_trace
from repro.trace.io import RAW_SUFFIX, load_npz, load_raw, save_npz, save_raw

#: Paper-scale trace length for the load-latency numbers.
REFS = 1_000_000
#: Floor for mmap vs npz decode at REFS.  Observed ~100-1000x warm (the
#: map is O(header) while the decode is O(bytes)); 5x leaves huge margin
#: so scheduler noise cannot flake the gate while a broken zero-copy path
#: (~1x) still fails loudly.
SPEEDUP_FLOOR = 5.0


def test_warm_raw_load_speedup_floor(tmp_path):
    """Zero-copy map must beat npz decode >= 5x at 1M refs, bit-identically."""
    trace = zipf_trace(REFS, seed=2011)
    raw = save_raw(trace, tmp_path / f"t{RAW_SUFFIX}")
    npz = save_npz(trace, tmp_path / "t.npz")
    raw.read_bytes()  # fault both files into the page cache so the
    npz.read_bytes()  # measured quantity is load latency, not disk I/O

    npz_s, npz_trace = best_of(lambda: load_npz(npz))
    raw_s, mapped = best_of(lambda: load_raw(raw), rounds=5)

    for field in ("addresses", "is_write", "thread"):
        a, b = getattr(mapped, field), getattr(npz_trace, field)
        np.testing.assert_array_equal(a, b)
        assert a.dtype == b.dtype

    speedup = npz_s / raw_s
    assert speedup >= SPEEDUP_FLOOR, (
        f"raw map only {speedup:.1f}x over npz decode "
        f"(floor {SPEEDUP_FLOOR}x; npz {npz_s * 1e3:.2f}ms, raw {raw_s * 1e3:.2f}ms)"
    )
