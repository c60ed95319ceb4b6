"""Oracles for the aux layer that share no code with either engine.

``tests/core/test_aux_differential.py`` holds the fused replay of
:mod:`repro.core.aux.fast` equal to the sequential
:class:`~repro.core.aux.AugmentedCache`.  Both are written in this repo, so
a misreading of Jouppi's structures that they share would pass it.  The
checks here derive what the structures must do from first principles, on a
main-miss stream computed by a plain dict loop (the last block of each
set) rather than by :mod:`repro.core.decompose`, and hold ``simulate_aux``
to them on both engines:

* a miss cache alone is LRU over the main-miss block stream, so its hits
  at depth L are the events whose LRU stack distance in that stream is
  below L;
* a victim buffer's per-set hits never decrease with its depth (the proof
  is in :func:`test_victim_hits_never_fall_with_depth`).
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.address import CacheGeometry
from repro.core.aux import simulate_aux
from repro.core.indexing import ModuloIndexing
from repro.trace import Trace, zipf_trace
from repro.workloads import get_workload

#: 64 sets: small enough that 12k references conflict often.
G = CacheGeometry(capacity_bytes=1024, line_bytes=16, ways=1)
SCHEME = ModuloIndexing(G)
DEPTHS = range(1, 17)
ENGINES = ("auto", "sequential")
REFS = 12_000


#: Four kernel-grid workloads and Zipf streams over 4096 and 512 blocks.
TRACE_NAMES = ("hmmer", "calculix", "patricia", "susan", "zipf4096", "zipf512")


@functools.cache
def _trace(name: str) -> Trace:
    if name.startswith("zipf"):
        return zipf_trace(REFS, num_blocks=int(name[4:]), seed=23)
    return get_workload(name).generate(seed=2011, ref_limit=REFS)


def miss_stream(trace: Trace) -> list[int]:
    """Blocks of the main-array misses in program order.

    A direct-mapped main array holds the block of each set's last access,
    whatever sits beside it, so an access misses exactly when its block
    differs from that one.
    """
    shift, mask = G.offset_bits, G.num_sets - 1
    last: dict[int, int] = {}
    out = []
    for addr in trace.addresses.tolist():
        block = addr >> shift
        index = block & mask  # modulo indexing
        if last.get(index) != block:
            out.append(block)
            last[index] = block
    return out


def stack_distances(stream: list[int], limit: int) -> list[int]:
    """LRU stack distance of each reference (``limit`` when it is at least
    ``limit`` or the block is new): the number of distinct blocks touched
    since the block's previous reference."""
    stack: list[int] = []  # most recent first, at most ``limit`` long
    out = []
    for block in stream:
        if block in stack:
            distance = stack.index(block)
            del stack[distance]
        else:
            distance = limit
            if len(stack) == limit:
                stack.pop()
        stack.insert(0, block)
        out.append(distance)
    return out


@pytest.mark.parametrize("name", TRACE_NAMES)
def test_miss_cache_is_lru_over_the_miss_stream(name):
    """A miss cache fills with every full miss and refreshes on a hit, and
    it sees every main-array miss: LRU of depth L over the miss stream,
    whose hits are the references at stack distance below L."""
    trace = _trace(name)
    distances = np.array(stack_distances(miss_stream(trace), max(DEPTHS)))
    assert (distances < max(DEPTHS)).any(), "the stream must reuse blocks"
    for depth in DEPTHS:
        expected = int((distances < depth).sum())
        for engine in ENGINES:
            res = simulate_aux(SCHEME, trace, G, combo="mc", depth=depth, engine=engine)
            assert res.extra.get("miss_cache_hits", 0) == expected, (depth, engine)
            assert res.misses == len(distances) - expected, (depth, engine)


@pytest.mark.parametrize("name", TRACE_NAMES)
def test_victim_hits_never_fall_with_depth(name):
    """Per-set hits of a victim buffer never decrease from depth L to L+1.

    The main array, and so the stream of (missed block, displaced block)
    events, does not depend on the buffer.  Write VC(L) for the buffer's
    entries oldest first.  Claim: VC(L) is always a suffix of VC(L+1).
    It holds when both are empty, and each event keeps it:

    * a probe for ``b``: if ``b`` is in VC(L) it is in the suffix, so both
      remove it and the rest of VC(L) is still the tail of VC(L+1); if it
      is only in VC(L+1), it leaves the part before the suffix;
    * the displaced block is appended to both, which keeps a suffix a
      suffix;
    * the overflow: if VC(L+1) drops its oldest entry and VC(L) does not,
      VC(L) was shorter (equal buffers overflow together, because L < L+1),
      so the dropped entry lay before the suffix; if only VC(L) drops its
      oldest, a suffix of a suffix remains.

    So a probe that hits VC(L) hits VC(L+1) too, every event lands in the
    same set at both depths, and direct hits are the same: ``slot_hits``
    is monotone in L, set by set.
    """
    trace = _trace(name)
    for engine in ENGINES:
        hits = [
            simulate_aux(SCHEME, trace, G, combo="vc", depth=depth, engine=engine).slot_hits
            for depth in DEPTHS
        ]
        for depth, (shallow, deep) in zip(DEPTHS, zip(hits, hits[1:])):
            assert np.all(deep >= shallow), (depth, engine)
        assert hits[-1].sum() > hits[0].sum(), "depth must matter on this trace"

