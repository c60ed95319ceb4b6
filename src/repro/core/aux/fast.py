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
   first access) — ``SetStream.prev_blk`` of the same set decomposition
   that yields the miss flags, no replay needed.
3. **Aux state changes only at main-array misses**, as a pure function of
   the program-ordered stream of ``(missed block, displaced block)``
   events.  The fast path replays exactly that event stream through the
   *actual structure objects*, issuing the same protocol calls in the
   same order as :class:`~repro.core.aux.augmented.AugmentedCache` —
   structural equivalence, so buffer end states match byte for byte.

The speedup is the miss rate: a trace that hits the main array 90% of the
time replays one tenth of its accesses through Python, with everything
else answered by one vectorised set decomposition
(``benchmarks/test_aux_bench.py`` gates ≥ 5× at one million accesses;
bit-identity is locked by ``tests/core/test_aux_differential.py``).

Anything outside the provable region — a set-associative or otherwise
stateful base, an unregistered structure type, pre-warmed contents, a
subclass overriding the access path — falls back to the sequential
reference engine, the same ``engine="auto"``/``"sequential"`` contract as
:mod:`~repro.core.fastassoc` and :mod:`~repro.core.fastpolicy`.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

import numpy as np

from ...trace.event import Trace
from ..address import CacheGeometry
from ..caches.base import EMPTY, CacheModel, CacheStats
from ..caches.direct_mapped import DirectMappedCache
from ..decompose import SetStream, decode
from ..fastsim import per_set_counts
from ..indexing.base import IndexingScheme
from ..simulator import SimulationResult, _result_from_stats, simulate
from .augmented import AugmentedCache
from .structures import AuxStructure, MissCache, StreamBuffer, VictimBuffer

__all__ = [
    "AUX_COMBOS",
    "make_aux_structures",
    "has_aux_fast_path",
    "simulate_augmented",
    "simulate_aux",
    "simulate_aux_sweep",
]

#: Composition specs with first-class support (probe priority in order).
AUX_COMBOS = ("vc", "mc", "sb", "vc+sb", "mc+sb")

_ENGINES = ("auto", "sequential")

#: Structure types the replay is proven against (the protocol calls they
#: receive are identical between engines; anything else falls back).
_EXACT_STRUCTURES = (VictimBuffer, MissCache, StreamBuffer)


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


def _miss_events(
    blocks: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Main-array ``(miss flags, miss positions, displaced blocks)`` from
    one set decomposition.

    A miss is a run head of its set; the block it displaces is the block of
    the set's previous access (``EMPTY`` on the set's first access).
    """
    stream = SetStream.of(blocks, indices)
    miss = stream.unsort(~stream.repeat)
    mpos = np.flatnonzero(miss)
    return miss, mpos, stream.unsort(stream.prev_blk)[mpos]


def _replay(
    structures: tuple[AuxStructure, ...],
    blk_l: list[int],
    prev_l: list[int],
    stats: CacheStats,
) -> bytearray:
    """Replay the main-miss event stream through the aux structures.

    Issues the exact protocol-call sequence of
    ``AugmentedCache._access_block``'s miss path, mutating the given
    structure objects.  Returns one class code per event: 0 = full miss,
    ``1 + i`` = serviced by ``structures[i]``.
    """
    cls = bytearray(len(blk_l))
    for k in range(len(blk_l)):
        block = blk_l[k]
        hit_i = -1
        for i, st in enumerate(structures):
            if st.probe(block, stats):
                hit_i = i
                break
        leaving = prev_l[k]
        if leaving != EMPTY:
            for st in structures:
                leaving = st.on_eviction(leaving, stats)
                if leaving is None:
                    break
        for i, st in enumerate(structures):
            if i != hit_i:
                st.on_main_miss(block, stats)
        if hit_i < 0:
            for st in structures:
                st.on_full_miss(block, stats)
        else:
            cls[k] = 1 + hit_i
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
    accesses, misses = per_set_counts(indices, miss, num_sets)
    bs = CacheStats(num_sets)
    bs.accesses = n
    bs.misses = int(miss.sum())
    bs.hits = n - bs.misses
    bs.slot_accesses = accesses
    bs.slot_hits = accesses - misses
    bs.slot_misses = misses
    if bs.hits:
        bs.extra["direct_hits"] = bs.hits
    base.stats = bs


def has_aux_fast_path(cache: CacheModel) -> bool:
    """True iff :func:`simulate_augmented` would take the replay engine."""
    if not isinstance(cache, AugmentedCache):
        return False
    t = type(cache)
    if (
        t._access_block is not AugmentedCache._access_block
        or t.access is not CacheModel.access
    ):
        return False
    if type(cache.base) is not DirectMappedCache:
        return False
    if not all(type(st) in _EXACT_STRUCTURES for st in cache.structures):
        return False
    # Pristine only: the replay starts from a cold hierarchy.
    if np.any(cache.base._blocks != EMPTY):
        return False
    if any(st.contents() for st in cache.structures):
        return False
    return cache.stats.accesses == 0 and cache.base.stats.accesses == 0


def simulate_augmented(
    cache: AugmentedCache,
    trace: Trace,
    engine: str = "auto",
    warmup: int = 0,
    check_invariants_every: int = 0,
) -> SimulationResult:
    """Drive an :class:`AugmentedCache` through the miss-event replay.

    A drop-in accelerator for :func:`~repro.core.simulator.simulate` on
    aux compositions, mirroring
    :func:`~repro.core.fastpolicy.simulate_policy`: ``engine="auto"``
    takes the replay when the composition is a pristine direct-mapped
    base with registered structures, reconstructing the full end state
    (main array, base stats, buffer contents — the replay mutates the
    real structure objects) so follow-on inspection sees exactly what the
    sequential engine would have left behind.  Anything else — other
    bases, subclassed wrappers, warmup, invariant checking — falls back
    to :func:`simulate`.
    """
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {_ENGINES}")
    if (
        engine != "auto"
        or warmup
        or check_invariants_every
        or not has_aux_fast_path(cache)
    ):
        return simulate(
            cache, trace, warmup=warmup, check_invariants_every=check_invariants_every
        )
    geometry = cache.geometry
    num_sets = geometry.num_sets
    blocks, indices = decode(cache.base.indexing, trace, geometry)
    miss, mpos, prev = _miss_events(blocks, indices)
    stats = CacheStats(num_sets)
    cls = _replay(cache.structures, blocks[mpos].tolist(), prev.tolist(), stats)
    cycles = _composed_stats(cache.structures, stats, indices, mpos, cls, num_sets)
    _restore_base(cache.base, blocks, indices, miss, num_sets)
    cache.stats = stats
    return _result_from_stats(cache.name, trace.name, stats, cycles)


# -- stats-level entry points -----------------------------------------------------


def _canonical_model(scheme_name: str, combo: str, depth: int) -> str:
    return f"augmented[{scheme_name},{combo}{depth}]"


def _make_cache(
    scheme: IndexingScheme,
    geometry: CacheGeometry,
    combo: str,
    depth: int,
    streams: int,
    allocate: str,
) -> AugmentedCache:
    if geometry.ways != 1:
        raise ValueError("aux structures augment a direct-mapped geometry")
    base = DirectMappedCache(geometry, indexing=scheme)
    return AugmentedCache(base, make_aux_structures(combo, depth, streams, allocate))


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
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {_ENGINES}")
    geometry = geometry or scheme.geometry
    cache = _make_cache(scheme, geometry, combo, depth, streams, allocate)
    res = simulate_augmented(cache, trace, engine=engine)
    return dc_replace(res, model=_canonical_model(scheme.name, combo, depth))


def simulate_aux_sweep(
    scheme: IndexingScheme,
    trace: Trace,
    geometry: CacheGeometry,
    specs,
    streams: int = 4,
    allocate: str = "miss",
    engine: str = "auto",
) -> list[SimulationResult]:
    """An *aux sweep*: many ``(combo, depth)`` points from one main pass.

    Every member shares one trace decode and one set decomposition (the
    main-array misses and their displaced blocks); each
    spec then replays its own (fresh) structures off the shared miss
    events.  Returns one result per spec, in order, each bit-identical
    (per-set counts included) to its :func:`simulate_aux` per-cell
    equivalent — the contract the CLI's ``sweep --aux`` rides on.
    """
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {_ENGINES}")
    specs = [(str(combo), int(depth)) for combo, depth in specs]
    if geometry.ways != 1:
        raise ValueError("aux structures augment a direct-mapped geometry")
    for combo, depth in specs:
        make_aux_structures(combo, depth, streams, allocate)  # validate eagerly
    if engine == "sequential":
        return [
            simulate_aux(
                scheme,
                trace,
                geometry,
                combo=combo,
                depth=depth,
                streams=streams,
                allocate=allocate,
                engine="sequential",
            )
            for combo, depth in specs
        ]
    num_sets = geometry.num_sets
    blocks, indices = decode(scheme, trace, geometry)
    _miss, mpos, prev = _miss_events(blocks, indices)
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
