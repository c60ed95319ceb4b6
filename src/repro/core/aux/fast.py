"""Exact miss-event replay engine for direct-mapped aux compositions.

Exactness argument (DESIGN.md §5.7)
-----------------------------------
For a *direct-mapped* base array the composed simulation decomposes
exactly, whatever auxiliary structures ride along:

1. **The main array is oblivious to the aux layer.**  After any access to
   set ``s`` the resident line of ``s`` is the accessed block — a direct
   hit trivially, a victim-buffer hit by the swap, a miss-cache or
   stream-buffer hit by the copy-in, and a full miss by the fill.  The
   main-array hit/miss outcome of access ``i`` therefore depends only on
   the previous access to the same set (hit iff same block), which is the
   set-local adjacent-compare of
   :func:`~repro.core.fastsim.direct_mapped_miss_flags` — absorption
   never feeds back into main-array state.
2. **The displaced line is the previous block of the set.**  By the same
   resident-after-access property, the line a main-array miss displaces
   is simply the block of the set's previous access (none on the set's
   first access): the previous run head's block in the same set
   decomposition that yields the miss flags, no replay needed.
3. **Aux state changes only at main-array misses**, as a pure function of
   the program-ordered stream of ``(missed block, displaced block)``
   events.  :func:`_replay` folds the protocol of
   :class:`~repro.core.aux.augmented.AugmentedCache` into one loop over
   that stream, with the rules the protocol reduces to for the three
   :data:`EXACT_STRUCTURES` (at most one of each, in any order):

   a. probe in composition order, the first hit services the access
      (victim buffer: remove; miss cache: refresh recency; stream buffer:
      advance the first queue, in LRU order, whose head matches);
   b. only a victim buffer acts on the displaced block (FIFO insert,
      oldest entry overflowing) — every other ``on_eviction`` is the
      identity;
   c. an ``allocate="always"`` stream buffer starts a stream on every
      miss it did not service;
   d. on a full miss the miss cache fills and a ``"miss"``-mode stream
      buffer starts a stream.

   A stream-buffer queue is always ``range(h, h + depth)``: allocation
   creates it, and a head hit pops ``h`` and appends the old tail + 1,
   which is ``h + depth``.  So the loop holds each queue as its head
   alone and writes the deques back at the end.  This is a second
   implementation of the same semantics, not the wrapper's code path:
   ``tests/core/test_differential.py`` compares the two on results
   and buffer end states for every ordering of one to three structures,
   and ``tests/core/test_aux_oracles.py`` checks both against properties
   neither shares code with.

The speedup is the miss rate: a trace that hits the main array 90% of the
time replays one tenth of its accesses through Python, with everything
else answered by one vectorised set decomposition
(``benchmarks/test_aux_bench.py`` gates ≥ 5× at one million accesses
for the victim buffer and the sweep, ≥ 12× for the stream-buffer
compositions).

:func:`replay_aux` is the ``fast:aux-replay`` kernel of
:func:`repro.core.dispatch.dispatch`, whose refusal check bounds the
provable region.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace as dc_replace

import numpy as np

from ...trace.event import Trace
from ..address import CacheGeometry
from ..caches.base import EMPTY, CacheStats
from ..caches.direct_mapped import DirectMappedCache
from ..decompose import SetStream, decode
from ..fastsim import per_set_counts
from ..indexing.base import IndexingScheme
from ..simulator import SimulationResult, _miss_stats, _result_from_stats
from .augmented import AugmentedCache
from .structures import AuxStructure, MissCache, StreamBuffer, VictimBuffer

__all__ = [
    "AUX_COMBOS",
    "make_aux_structures",
    "replay_aux",
    "simulate_aux",
    "simulate_aux_sweep",
]

#: Composition specs with first-class support (probe priority in order).
AUX_COMBOS = ("vc", "mc", "sb", "vc+sb", "mc+sb")

#: Structure types the fused replay implements (anything else, subclasses
#: included, falls back to the sequential wrapper).
EXACT_STRUCTURES = (VictimBuffer, MissCache, StreamBuffer)


def make_aux_structures(
    combo: str,
    depth: int,
    streams: int = 4,
    allocate: str = "miss",
) -> tuple[AuxStructure, ...]:
    """Build the structure tuple for a ``+``-joined combo spec.

    ``depth`` is every structure's size knob: buffer lines for vc/mc,
    queue depth for sb.  ``streams``/``allocate`` only shape stream
    buffers and are ignored by combos without one.
    """
    parts = combo.split("+")
    if combo not in AUX_COMBOS:
        raise ValueError(f"unknown aux combo {combo!r}; known: {AUX_COMBOS}")
    out: list[AuxStructure] = []
    for part in parts:
        if part == "vc":
            out.append(VictimBuffer(depth))
        elif part == "mc":
            out.append(MissCache(depth))
        else:
            out.append(StreamBuffer(depth, streams=streams, allocate=allocate))
    return tuple(out)


# -- the replay -------------------------------------------------------------------


def _miss_events(blocks: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Main-array ``(miss positions, displaced blocks)`` in program order,
    from one set decomposition.

    A miss is a run head of its set; the block it displaces is the block of
    the set's previous run head (``EMPTY`` on the set's first access).  Both
    are taken at the run heads and put in program order there; nothing
    trace-length is scattered back to program order.
    """
    stream = SetStream.of(blocks, indices)
    displaced = np.empty(stream.kept_blk.size, dtype=np.int64)
    displaced[1:] = stream.kept_blk[:-1]
    displaced[stream.kept_bounds[:-1]] = EMPTY
    pos = stream.order[stream.kept_pos]
    by_pos = np.argsort(pos)
    return pos[by_pos], displaced[by_pos]


_VC, _MC, _SB = range(3)


def _replay(
    structures: tuple[AuxStructure, ...],
    blk_l: list[int],
    prev_l: list[int],
    stats: CacheStats,
) -> bytearray:
    """Replay the main-miss event stream through the aux structures, by
    rules (a)–(d) of the module docstring, leaving their end state in the
    structure objects.

    Victim-buffer and miss-cache state is each structure's own
    ``OrderedDict``; stream queues are held as their heads in LRU order
    and written back as deques at the end, with the stream counters
    bumped once (``stream_allocs`` first, the key order ``extra`` has
    always had).  Returns one class code per event: 0 = full miss,
    ``1 + i`` = serviced by ``structures[i]``.
    """
    probes = []
    vc = mc = sb = heads = None
    sb_code = sb_always = 0
    for code, st in enumerate(structures, 1):
        kind = type(st)
        if kind is VictimBuffer:
            probes.append((code, _VC))
            vc, vc_lines = st._entries, st.lines
        elif kind is MissCache:
            probes.append((code, _MC))
            mc, mc_lines = st._entries, st.lines
        else:
            probes.append((code, _SB))
            sb, sb_code, streams = st, code, st.streams
            sb_always = st.allocate == "always"
            heads = [q[0] for q in st._queues]
    VC, MC, empty = _VC, _MC, EMPTY  # locals: read once per event
    allocs = sb_hits = 0
    cls = bytearray(len(blk_l))
    for k, block in enumerate(blk_l):
        # (a) Probe in composition order; the first hit services the access.
        hit = 0
        for code, kind in probes:
            if kind == VC:
                if block in vc:
                    del vc[block]  # swapped back into the main array
                    hit = code
                    break
            elif kind == MC:
                if block in mc:
                    mc.move_to_end(block)
                    hit = code
                    break
            elif block in heads:
                # Head hit: the least recently used matching queue (the
                # first in ``heads``) advances and prefetches old tail + 1.
                heads.remove(block)
                heads.append(block + 1)
                sb_hits += 1
                hit = code
                break
        # (b) Only a victim buffer takes the displaced block.
        leaving = prev_l[k]
        if vc is not None and leaving != empty:
            if len(vc) >= vc_lines:
                vc.popitem(last=False)
            vc[leaving] = None
        if hit:
            cls[k] = hit
            # (c) "always" streams allocate on every miss they did not service.
            if not sb_always or hit == sb_code:
                continue
        elif mc is not None:
            # (d) A full miss fills the miss cache ...
            if len(mc) >= mc_lines:
                mc.popitem(last=False)
            mc[block] = None
        if heads is not None:
            # ... and starts a stream (a hit elsewhere reaches here only
            # in "always" mode).
            if len(heads) >= streams:
                del heads[0]
            heads.append(block + 1)
            allocs += 1
    if heads is not None:
        sb._queues[:] = [deque(range(h, h + sb.depth)) for h in heads]
        if allocs:
            stats.bump("stream_allocs", allocs)
            stats.bump("stream_prefetches", allocs * sb.depth + sb_hits)
    return cls


def _composed_stats(
    structures: tuple[AuxStructure, ...],
    stats: CacheStats,
    indices: np.ndarray,
    mpos: np.ndarray,
    cls: bytearray,
    num_sets: int,
) -> int:
    """Fill the wrapper-level counters into ``stats`` (the replay already
    bumped structure-private extras there); returns the lookup cycles."""
    n = int(indices.size)
    cls_arr = np.frombuffer(bytes(cls), dtype=np.uint8)
    full_miss = np.zeros(n, dtype=bool)
    full_miss[mpos[cls_arr == 0]] = True
    accesses, misses = per_set_counts(indices, full_miss, num_sets)
    total_misses = int(full_miss.sum())
    stats.accesses = n
    stats.hits = n - total_misses
    stats.misses = total_misses
    stats.slot_accesses = accesses
    stats.slot_hits = accesses - misses
    stats.slot_misses = misses
    main_hits = n - int(mpos.size)
    cycles = main_hits + total_misses
    if main_hits:
        stats.extra["direct_hits"] = main_hits
    aux_counts = np.bincount(cls_arr, minlength=len(structures) + 1)
    for i, st in enumerate(structures):
        count = int(aux_counts[i + 1])
        if count:
            stats.extra[st.hit_class + "_hits"] = count
            cycles += count * st.hit_cycles
    return cycles


def _restore_base(
    base: DirectMappedCache,
    blocks: np.ndarray,
    indices: np.ndarray,
    miss: np.ndarray,
    num_sets: int,
) -> None:
    """Write the main-array view (contents + stats) into the base model."""
    n = int(blocks.size)
    last = np.full(num_sets, -1, dtype=np.int64)
    if n:
        np.maximum.at(last, indices, np.arange(n, dtype=np.int64))
    filled = last >= 0
    flat = np.full(num_sets, EMPTY, dtype=np.int64)
    flat[filled] = blocks[last[filled]]
    base._blocks[:] = flat
    base.stats = _miss_stats(indices, miss, num_sets)


def replay_aux(cache: AugmentedCache, trace: Trace) -> SimulationResult:
    """Run a pristine direct-mapped composition through the miss-event
    replay, leaving the end state (main array, base stats, buffer contents)
    that :func:`~repro.core.simulator.simulate` would."""
    geometry = cache.geometry
    num_sets = geometry.num_sets
    blocks, indices = decode(cache.base.indexing, trace, geometry)
    mpos, prev = _miss_events(blocks, indices)
    stats = CacheStats(num_sets)
    cls = _replay(cache.structures, blocks[mpos].tolist(), prev.tolist(), stats)
    cycles = _composed_stats(cache.structures, stats, indices, mpos, cls, num_sets)
    miss = np.zeros(blocks.size, dtype=bool)
    miss[mpos] = True
    _restore_base(cache.base, blocks, indices, miss, num_sets)
    cache.stats = stats
    return _result_from_stats(cache.name, trace.name, stats, cycles)


# -- stats-level entry points -----------------------------------------------------


def _canonical_model(scheme_name: str, combo: str, depth: int) -> str:
    return f"augmented[{scheme_name},{combo}{depth}]"


def simulate_aux(
    scheme: IndexingScheme,
    trace: Trace,
    geometry: CacheGeometry | None = None,
    combo: str = "vc",
    depth: int = 4,
    streams: int = 4,
    allocate: str = "miss",
    engine: str = "auto",
) -> SimulationResult:
    """One aux composition over a direct-mapped base under ``scheme``.

    The stats-level engine behind ``auxsweep`` cells and the CLI:
    equivalent to ``simulate(AugmentedCache(DirectMappedCache(geometry,
    scheme), make_aux_structures(...)), trace)`` with the model renamed
    to the canonical ``augmented[<scheme>,<combo><depth>]`` — identical
    counters, per-set histograms and ``extra`` classes either engine.
    """
    from ..dispatch import dispatch  # the registry imports this module

    geometry = geometry or scheme.geometry
    if geometry.ways != 1:
        raise ValueError("aux structures augment a direct-mapped geometry")
    cache = AugmentedCache(
        DirectMappedCache(geometry, indexing=scheme),
        make_aux_structures(combo, depth, streams, allocate),
    )
    res = dispatch(cache, trace, engine=engine)
    return dc_replace(res, model=_canonical_model(scheme.name, combo, depth))


def simulate_aux_sweep(
    scheme: IndexingScheme,
    trace: Trace,
    geometry: CacheGeometry,
    specs,
    streams: int = 4,
    allocate: str = "miss",
) -> list[SimulationResult]:
    """An *aux sweep*: many ``(combo, depth)`` points from one main pass.

    Every member shares one trace decode and one set decomposition (the
    main-array misses and their displaced blocks); each
    spec then replays its own (fresh) structures off the shared miss
    events.  Returns one result per spec, in order, each bit-identical
    (per-set counts included) to its :func:`simulate_aux` per-cell
    equivalent — the contract the CLI's ``sweep --aux`` rides on.
    """
    specs = [(str(combo), int(depth)) for combo, depth in specs]
    if geometry.ways != 1:
        raise ValueError("aux structures augment a direct-mapped geometry")
    for combo, depth in specs:
        make_aux_structures(combo, depth, streams, allocate)  # validate eagerly
    num_sets = geometry.num_sets
    blocks, indices = decode(scheme, trace, geometry)
    mpos, prev = _miss_events(blocks, indices)
    blk_l = blocks[mpos].tolist()
    prev_l = prev.tolist()
    results = []
    for combo, depth in specs:
        structures = make_aux_structures(combo, depth, streams, allocate)
        stats = CacheStats(num_sets)
        cls = _replay(structures, blk_l, prev_l, stats)
        cycles = _composed_stats(structures, stats, indices, mpos, cls, num_sets)
        results.append(
            _result_from_stats(
                _canonical_model(scheme.name, combo, depth),
                trace.name,
                stats,
                cycles,
            )
        )
    return results
