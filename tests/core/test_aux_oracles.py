"""Oracles for the aux layer that share no code with either engine.

``tests/core/test_differential.py`` holds the fused replay of
:mod:`repro.core.aux.fast` equal to the sequential
:class:`~repro.core.aux.AugmentedCache`.  Both are written in this repo, so
a misreading of Jouppi's structures that they share would pass it.  The
checks here derive what the structures must do from first principles, on a
main-miss stream computed by a plain dict loop (the last block of each
set) rather than by :mod:`repro.core.decompose`, and hold ``simulate_aux``
to them on both engines:

* the fast engine's event stream is the main-array misses of that loop,
  each with the block its set held before;
* a miss cache alone is LRU over the main-miss block stream, so its hits
  at depth L are the events whose LRU stack distance in that stream is
  below L;
* a victim buffer's per-set hits never decrease with its depth (the proof
  is in :func:`test_victim_hits_never_fall_with_depth`);
* stream buffers over interleaved unit-stride scans have closed forms: as
  many streams as scans keep every scan running, fewer lose them all;
* a stream buffer allocates a stream even when an equal one is already
  queued, as Jouppi's design does (no duplicate-stream check);
* the replay writes its ``extra`` hit classes in one fixed order.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest

from repro.core.address import CacheGeometry
from repro.core.aux import AugmentedCache, StreamBuffer, simulate_aux
from repro.core.aux.fast import _miss_events
from repro.core.caches import EMPTY, DirectMappedCache
from repro.core.decompose import decode
from repro.core.dispatch import dispatch
from repro.core.indexing import ModuloIndexing
from repro.trace import Trace, zipf_trace
from repro.workloads import get_workload
import test_differential as harness

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
def test_miss_events_are_the_main_array_misses(name):
    """The replay's event stream: each main-array miss in program order,
    with the block the set held before it (``EMPTY`` on a cold set)."""
    trace = _trace(name)
    shift, mask = G.offset_bits, G.num_sets - 1
    last: dict[int, int] = {}
    positions, displaced = [], []
    for pos, addr in enumerate(trace.addresses.tolist()):
        block = addr >> shift
        index = block & mask  # modulo indexing
        if last.get(index) != block:
            positions.append(pos)
            displaced.append(last.get(index, EMPTY))
            last[index] = block
    mpos, prev = _miss_events(*decode(SCHEME, trace, G))
    assert mpos.tolist() == positions
    assert prev.tolist() == displaced


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



def interleaved_scans(k: int, n: int) -> Trace:
    """``n`` references from ``k`` unit-stride block scans, round robin
    (reference ``i`` is block ``i // k`` of scan ``i % k``), based far
    enough apart that no block or prefetch of one scan meets another's."""
    spacing = 1 << 16
    blocks = [(i % k) * spacing + i // k for i in range(n)]
    return Trace(np.array(blocks, dtype=np.uint64) << np.uint64(G.offset_bits), name="scans")


#: Total references of the scan traces (divisible by every scan count).
SCAN_REFS = 240


@pytest.mark.parametrize("allocate", ["miss", "always"])
@pytest.mark.parametrize("combo", ["sb", "vc+sb"])
def test_stream_buffer_closed_forms(combo, allocate):
    """Every block is new, so every reference misses the main array and no
    victim buffer in front ever hits.  With ``k <= s`` scans each scan's
    first reference misses and starts its stream, and every later one hits
    that stream's head: ``k`` misses, ``N - k`` hits, and ``k`` streams of
    ``d`` prefetches plus one per hit.  With ``k > s`` the ``k - 1`` other
    scans' misses between two references of a scan start ``k - 1 >= s``
    streams, so the LRU stream of that scan is gone each time: every
    reference misses and starts a stream."""
    n = SCAN_REFS
    for k in range(1, 7):
        trace = interleaved_scans(k, n)
        for streams in (1, 2, 4):
            for depth in (1, 2, 4):
                if k <= streams:
                    misses, hits, allocs = k, n - k, k
                    prefetches = n + k * (depth - 1)
                else:
                    misses, hits, allocs = n, 0, n
                    prefetches = n * depth
                for engine in ENGINES:
                    res = simulate_aux(
                        SCHEME, trace, G, combo=combo, depth=depth,
                        streams=streams, allocate=allocate, engine=engine,
                    )
                    ctx = (k, streams, depth, engine)
                    assert res.misses == misses, ctx
                    assert res.extra.get("stream_hits", 0) == hits, ctx
                    assert res.extra.get("stream_allocs", 0) == allocs, ctx
                    assert res.extra.get("stream_prefetches", 0) == prefetches, ctx
                    assert res.extra.get("victim_hits", 0) == 0, ctx


@pytest.mark.parametrize("engine", ENGINES)
def test_stream_buffer_keeps_duplicate_streams(engine):
    """``a``, ``a + span``, ``a`` with ``span`` a multiple of the set count:
    the second ``a`` misses the main array (``a + span`` displaced it) and
    no stream head holds it, so a second stream at ``a + 1`` starts beside
    the first."""
    a, span = 5, G.num_sets
    cache = AugmentedCache(
        DirectMappedCache(G, indexing=SCHEME), (StreamBuffer(2, streams=4),)
    )
    blocks = np.array([a, a + span, a], dtype=np.uint64)
    res = dispatch(cache, Trace(blocks << np.uint64(G.offset_bits), name="ping-pong"), engine)
    assert res.path == ("fast:aux-replay" if engine == "auto" else "sequential:forced")
    heads = [queue[0] for queue in cache.structures[0]._queues]
    assert heads == [a + 1, a + span + 1, a + 1]
    assert res.misses == 3


@pytest.mark.parametrize("allocate", ["miss", "always"])
def test_replay_extra_keys_in_fixed_order(allocate):
    """Stream counters (allocations first), then direct hits, then each
    structure's hits in probe order, whatever order they first occur in."""
    for order, depths, streams, name in itertools.product(
        harness.ORDERINGS, harness.DEPTHS, (1, 4), ("mixed", "hot2k")
    ):
        structures = harness.build_structures(order, depths, streams, allocate)
        base = DirectMappedCache(harness.MID)
        res = dispatch(AugmentedCache(base, structures), harness.zoo(harness.MID, name))
        keys = ["stream_allocs", "stream_prefetches", "direct_hits"]
        keys += [st.hit_class + "_hits" for st in structures]
        assert list(res.extra) == [k for k in keys if k in res.extra], (order, name)
