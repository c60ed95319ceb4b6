"""Exact set-decomposed fast engines for every replacement policy.

:mod:`repro.core.fastsim` solved the LRU axis offline (stack distances);
this module closes the gap for the remaining registered policies — FIFO,
PLRU, MRU, LFU and seeded Random — with replay kernels that are
*bit-identical* to driving :class:`~repro.core.caches.SetAssociativeCache`
one access at a time through :func:`~repro.core.simulator.simulate`:
equal hits/misses/lookup cycles, equal per-set histograms, equal ``extra``
hit classes, and (through :func:`simulate_policy`) equal cache-object end
state, policy internals included.

Design
------
One shared *set-decomposition* pass
(:class:`~repro.core.decompose.SetStream`) sorts the access stream stably
by set and compresses adjacent same-(set, block) repeats.  A repeated access is a hit
under **every** policy here, and collapsing it preserves each policy's
state exactly:

* FIFO / Random — ``touch`` is a no-op, so hits mutate nothing;
* PLRU — ``touch`` is idempotent (re-touching the MRU way rewrites the
  same tree bits);
* LRU / MRU — re-touching the most-recent way advances the clock but
  changes no *relative* recency order, which is all the victim choice
  reads (absolute stamps are reconstructed separately for the end state);
* LFU — ``touch`` increments a count, so kernels consume the *run
  lengths* instead of visiting each repeat.

Per-policy kernels then replay each set's compressed sub-stream through a
tiny transliteration of the corresponding
:class:`~repro.core.replacement.ReplacementPolicy` state machine (cold
fills take the lowest empty way first, exactly like
``SetAssociativeCache._access_block``).  FIFO reduces further: cold fills
take ways ``0..w-1`` in order and refills cycle through them, so the
victim of fill number ``f`` is simply ``f mod w``.  Random is the one
policy that is *not* set-decomposable — all sets share one seeded PCG64
generator, so the victim stream is coupled to the global interleaving of
misses — and is replayed in global program order over the same compressed
stream, drawing from the generator in bulk when a one-time probe proves
NumPy's bulk ``integers`` word-compatible with scalar draws (the same
state-restoring discipline as the trace recorder's PCG64 replay), and
falling back to per-victim scalar draws otherwise.

Entry points
------------
* :func:`policy_miss_flags` — per-access boolean miss vector (LRU routes
  to the vectorised stack-distance kernel).
* :func:`simulate_policy_set_associative` — the stats-level engine behind
  ``policysweep`` cells and the CLI; ``engine="auto"``/``"sequential"``
  with identical packaging either way.
* :func:`simulate_policy_sweep` — a *policy sweep*: many policies over one
  decode + one index computation + one set-grouping pass (the engine's
  "policy" family axis).
* :func:`simulate_policy` — the cache-object dispatcher mirroring
  :func:`~repro.core.fastassoc.simulate_progassoc`: fires only when
  provably exact (a pristine ``SetAssociativeCache`` with a registered
  policy), reconstructs the full end state, and otherwise falls back to
  the sequential reference engine.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from functools import lru_cache

import numpy as np

from ..trace.event import Trace
from .address import CacheGeometry
from .caches.base import EMPTY, CacheStats
from .caches.set_associative import SetAssociativeCache
from .decompose import SetStream, decode
from .fastsim import lru_miss_flags, per_set_counts
from .indexing.base import IndexingScheme
from .replacement import (
    POLICIES,
    FIFOPolicy,
    LFUPolicy,
    LRUPolicy,
    MRUPolicy,
    PLRUPolicy,
    RandomPolicy,
)
from .simulator import (
    SimulationResult,
    _result_from_stats,
    _vectorised_result,
    simulate,
)

__all__ = [
    "FAST_POLICIES",
    "has_policy_fast_path",
    "policy_miss_flags",
    "simulate_policy",
    "simulate_policy_set_associative",
    "simulate_policy_sweep",
]

#: Policy registry names with an exact fast kernel (all registered policies).
FAST_POLICIES = ("lru", "fifo", "random", "plru", "mru", "lfu")

_ENGINES = ("auto", "sequential")


def _expand(g: SetStream, miss_kept, way_kept) -> tuple[np.ndarray, np.ndarray]:
    """Kept-stream outcomes → per-access (miss, way) in original order."""
    miss_sorted = np.zeros(g.n, dtype=bool)
    miss_sorted[g.kept_pos] = np.frombuffer(miss_kept, dtype=np.uint8).astype(bool)
    way_sorted = np.repeat(np.asarray(way_kept, dtype=np.int64), g.run_len)
    return g.unsort(miss_sorted), g.unsort(way_sorted)


# -- per-policy replay kernels ----------------------------------------------------
#
# Each kernel consumes the kept (run-head) stream and returns
# ``(miss_kept: bytearray, way_kept: list[int])`` plus optional policy
# state it alone can reconstruct.  Loops run over plain Python ints
# (one bulk .tolist() per array) — the same boxing-hoist discipline as
# simulate()/fastassoc — with per-set dict-based residency.


def _replay_fifo(g: SetStream, ways: int) -> tuple[bytearray, list[int]]:
    nk = g.kept_blk.size
    miss = bytearray(nk)
    way_out = [0] * nk
    blk_l = g.kept_blk.tolist()
    bounds = g.kept_bounds.tolist()
    for gi in range(len(bounds) - 1):
        a, b = bounds[gi], bounds[gi + 1]
        resident: dict[int, int] = {}
        blkof = [EMPTY] * ways
        fills = 0
        for j in range(a, b):
            blk = blk_l[j]
            wy = resident.get(blk, -1)
            if wy < 0:
                miss[j] = 1
                # Cold fills take ways 0..w-1 in order; refills then cycle
                # through them in the same order (the FIFO queue is a pure
                # rotation), so the victim of fill #f is f mod w.
                wy = fills % ways
                old = blkof[wy]
                if old != EMPTY:
                    del resident[old]
                resident[blk] = wy
                blkof[wy] = blk
                fills += 1
            way_out[j] = wy
    return miss, way_out


def _replay_lru(g: SetStream, ways: int) -> tuple[bytearray, list[int]]:
    nk = g.kept_blk.size
    miss = bytearray(nk)
    way_out = [0] * nk
    blk_l = g.kept_blk.tolist()
    bounds = g.kept_bounds.tolist()
    for gi in range(len(bounds) - 1):
        a, b = bounds[gi], bounds[gi + 1]
        resident: dict[int, int] = {}
        blkof = [EMPTY] * ways
        lastuse = [-1] * ways
        occ = 0
        seq = 0
        for j in range(a, b):
            blk = blk_l[j]
            wy = resident.get(blk, -1)
            if wy < 0:
                miss[j] = 1
                if occ < ways:
                    wy = occ
                    occ += 1
                else:
                    wy = lastuse.index(min(lastuse))
                    del resident[blkof[wy]]
                resident[blk] = wy
                blkof[wy] = blk
            seq += 1
            lastuse[wy] = seq
            way_out[j] = wy
    return miss, way_out


def _replay_mru(g: SetStream, ways: int) -> tuple[bytearray, list[int]]:
    nk = g.kept_blk.size
    miss = bytearray(nk)
    way_out = [0] * nk
    blk_l = g.kept_blk.tolist()
    bounds = g.kept_bounds.tolist()
    for gi in range(len(bounds) - 1):
        a, b = bounds[gi], bounds[gi + 1]
        resident: dict[int, int] = {}
        blkof = [EMPTY] * ways
        occ = 0
        prev_way = 0
        for j in range(a, b):
            blk = blk_l[j]
            wy = resident.get(blk, -1)
            if wy < 0:
                miss[j] = 1
                if occ < ways:
                    # MRUPolicy.victim prefers never-touched ways lowest
                    # index first, but a cold fill never reaches the policy:
                    # SetAssociativeCache fills the lowest EMPTY way.
                    wy = occ
                    occ += 1
                else:
                    # All ways touched: argmax(stamp) = the most recently
                    # touched way = the way of the previous (kept) access
                    # to this set (repeats re-touch the same way).
                    wy = prev_way
                    del resident[blkof[wy]]
                resident[blk] = wy
                blkof[wy] = blk
            prev_way = wy
            way_out[j] = wy
    return miss, way_out


def _replay_lfu(
    g: SetStream, ways: int
) -> tuple[bytearray, list[int], list[tuple[int, list[int]]]]:
    """LFU replay; also returns the final counts per touched set."""
    nk = g.kept_blk.size
    miss = bytearray(nk)
    way_out = [0] * nk
    blk_l = g.kept_blk.tolist()
    run_l = g.run_len.tolist()
    bounds = g.kept_bounds.tolist()
    idx_l = g.kept_gid
    rows: list[tuple[int, list[int]]] = []
    for gi in range(len(bounds) - 1):
        a, b = bounds[gi], bounds[gi + 1]
        resident: dict[int, int] = {}
        blkof = [EMPTY] * ways
        counts = [0] * ways
        occ = 0
        for j in range(a, b):
            blk = blk_l[j]
            r = run_l[j]
            wy = resident.get(blk, -1)
            if wy < 0:
                miss[j] = 1
                if occ < ways:
                    wy = occ
                    occ += 1
                else:
                    # LFUPolicy.victim = np.argmin → first way of minimal
                    # count (ties break toward the lower way index).
                    wy = counts.index(min(counts))
                    del resident[blkof[wy]]
                resident[blk] = wy
                blkof[wy] = blk
                # fill() sets the count to 1; the r-1 trailing repeats each
                # touch (+1), so the run contributes exactly r.
                counts[wy] = r
            else:
                counts[wy] += r
            way_out[j] = wy
        rows.append((int(idx_l[a]), counts))
    return miss, way_out, rows


@lru_cache(maxsize=None)
def _plru_touch_ops(ways: int) -> tuple:
    """Per-way ``((node, bit), ...)`` write lists of PLRUPolicy.touch."""
    levels = max(ways.bit_length() - 1, 0)
    ops = []
    for way in range(ways):
        node = 0
        path = []
        for level in range(levels):
            bit = (way >> (levels - 1 - level)) & 1
            path.append((node, 1 - bit))
            node = 2 * node + 1 + bit
        ops.append(tuple(path))
    return tuple(ops)


def _replay_plru(
    g: SetStream, ways: int
) -> tuple[bytearray, list[int], list[tuple[int, list[int]]]]:
    """PLRU replay; also returns the final tree bits per touched set."""
    nk = g.kept_blk.size
    miss = bytearray(nk)
    way_out = [0] * nk
    blk_l = g.kept_blk.tolist()
    bounds = g.kept_bounds.tolist()
    idx_l = g.kept_gid
    touch_ops = _plru_touch_ops(ways)
    levels = max(ways.bit_length() - 1, 0)
    rows: list[tuple[int, list[int]]] = []
    for gi in range(len(bounds) - 1):
        a, b = bounds[gi], bounds[gi + 1]
        resident: dict[int, int] = {}
        blkof = [EMPTY] * ways
        bits = [0] * max(ways - 1, 1)
        occ = 0
        for j in range(a, b):
            blk = blk_l[j]
            wy = resident.get(blk, -1)
            if wy < 0:
                miss[j] = 1
                if occ < ways:
                    wy = occ
                    occ += 1
                else:
                    # PLRUPolicy.victim: walk the tree following the bits.
                    node = 0
                    wy = 0
                    for _ in range(levels):
                        bit = bits[node]
                        wy = (wy << 1) | bit
                        node = 2 * node + 1 + bit
                    del resident[blkof[wy]]
                resident[blk] = wy
                blkof[wy] = blk
            # Touch on hit and on fill alike (fill defaults to touch);
            # repeats collapse because re-touching rewrites the same bits.
            for node, val in touch_ops[wy]:
                bits[node] = val
            way_out[j] = wy
        rows.append((int(idx_l[a]), bits))
    return miss, way_out, rows


@lru_cache(maxsize=None)
def _bulk_draws_exact(ways: int) -> bool:
    """Probe: does ``integers(ways, size=k)`` consume the PCG64 stream
    word-for-word like ``k`` scalar ``integers(ways)`` calls (split points
    included)?  True on every NumPy we support; the Random kernel falls
    back to scalar draws if a future NumPy changes the bulk path."""
    a = np.random.default_rng(0xC0FFEE)
    b = np.random.default_rng(0xC0FFEE)
    c = np.random.default_rng(0xC0FFEE)
    scal = np.array([b.integers(ways) for _ in range(37)])
    bulk = a.integers(ways, size=37)
    if not np.array_equal(scal, bulk):
        return False
    split = np.concatenate((c.integers(ways, size=13), c.integers(ways, size=24)))
    if not np.array_equal(scal, split):
        return False
    return (
        a.bit_generator.state == b.bit_generator.state == c.bit_generator.state
    )


def _replay_random(
    blocks: np.ndarray,
    indices: np.ndarray,
    g: SetStream,
    num_sets: int,
    ways: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.random.Generator]:
    """Global-order seeded-Random replay.

    One generator serves every set, so victims depend on the global
    interleaving of misses across sets: the replay walks the run-head
    accesses in *program* order (repeats are hits for Random too and
    consume no randomness).  Returns per-access (miss, way) vectors plus
    the exact post-run generator.
    """
    n = g.n
    heads = np.sort(g.order[g.kept_pos])
    idx_l = indices.astype(np.int64)[heads].tolist()
    blk_l = np.asarray(blocks)[heads].tolist()
    nk = len(idx_l)
    miss_head = bytearray(nk)
    way_head = [0] * nk
    occ = [0] * num_sets
    blkof = [EMPTY] * (num_sets * ways)
    resident: dict[int, int] = {}
    rng = np.random.default_rng(seed)
    bulk = _bulk_draws_exact(ways)
    buf: list[int] = []
    bp = 0
    bsize = 1024
    ndraws = 0
    for k in range(nk):
        s = idx_l[k]
        blk = blk_l[k]
        key = blk * num_sets + s
        wy = resident.get(key, -1)
        if wy < 0:
            miss_head[k] = 1
            o = occ[s]
            if o < ways:
                wy = o
                occ[s] = o + 1
            else:
                if bulk:
                    if bp == len(buf):
                        buf = rng.integers(ways, size=bsize).tolist()
                        bp = 0
                        bsize = min(bsize * 2, 1 << 16)
                    wy = buf[bp]
                    bp += 1
                else:
                    wy = int(rng.integers(ways))
                ndraws += 1
                base = s * ways
                del resident[blkof[base + wy] * num_sets + s]
            resident[key] = wy
            blkof[s * ways + wy] = blk
        way_head[k] = wy
    if bulk:
        # The working generator over-drew (bulk refills); the exact post-run
        # state is a fresh generator advanced by precisely the consumed
        # draws — word-identical because the probe proved bulk ≡ scalar.
        rng = np.random.default_rng(seed)
        if ndraws:
            rng.integers(ways, size=ndraws)
    miss = np.zeros(n, dtype=bool)
    miss[heads] = np.frombuffer(miss_head, dtype=np.uint8).astype(bool)
    way_at_head = np.zeros(n, dtype=np.int64)
    way_at_head[heads] = np.asarray(way_head, dtype=np.int64)
    # Propagate run-head ways over their repeats (sorted coords), then
    # scatter back to program order.
    way_sorted = np.repeat(way_at_head[g.order[g.kept_pos]], g.run_len)
    return miss, g.unsort(way_sorted), rng


# -- stats-level engine -----------------------------------------------------------


def _kernel_outcomes(
    blocks: np.ndarray,
    indices: np.ndarray,
    num_sets: int,
    ways: int,
    policy: str,
    seed: int,
    g: SetStream | None = None,
):
    """Per-access (miss, way) vectors + policy-private end state.

    Returns ``(miss, ways_all, private)`` where ``private`` is the
    policy-specific state only the replay can produce: LFU count rows /
    PLRU bit rows (``(set, values)`` pairs), the post-run generator for
    Random, ``None`` otherwise.
    """
    if g is None:
        g = SetStream.of(blocks, indices)
    if policy == "random":
        return _replay_random(blocks, indices, g, num_sets, ways, seed)
    if policy == "fifo":
        miss_k, way_k = _replay_fifo(g, ways)
        private = None
    elif policy == "lru":
        miss_k, way_k = _replay_lru(g, ways)
        private = None
    elif policy == "mru":
        miss_k, way_k = _replay_mru(g, ways)
        private = None
    elif policy == "lfu":
        miss_k, way_k, private = _replay_lfu(g, ways)
    elif policy == "plru":
        if ways & (ways - 1):
            raise ValueError("PLRU requires a power-of-two way count")
        miss_k, way_k, private = _replay_plru(g, ways)
    else:
        raise ValueError(
            f"unknown replacement policy {policy!r}; known: {sorted(POLICIES)}"
        )
    miss, ways_all = _expand(g, miss_k, way_k)
    return miss, ways_all, private


def policy_miss_flags(
    blocks: np.ndarray,
    indices: np.ndarray,
    ways: int,
    policy: str,
    num_sets: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Boolean miss vector for a ``ways``-way cache under any policy.

    Exact and bit-identical to driving
    :class:`~repro.core.caches.SetAssociativeCache` one access at a time.
    ``num_sets`` bounds the set-index range (required for ``random``,
    whose generator is shared across sets; inferred from the indices
    otherwise).  LRU routes to the vectorised stack-distance kernel.
    """
    if ways < 1:
        raise ValueError("ways must be a positive integer")
    if policy == "lru":
        return lru_miss_flags(blocks, indices, ways)
    if num_sets is None:
        num_sets = int(np.asarray(indices).max()) + 1 if np.asarray(indices).size else 1
    miss, _ways_all, _private = _kernel_outcomes(
        np.asarray(blocks), np.asarray(indices), num_sets, ways, policy, seed
    )
    return miss


def _canonical_model(scheme_name: str, ways: int, policy: str) -> str:
    return f"set_associative[{scheme_name},{ways}way,{policy}]"


def _validate_policy(policy: str, ways: int) -> None:
    if policy not in POLICIES:
        raise ValueError(
            f"unknown replacement policy {policy!r}; known: {sorted(POLICIES)}"
        )
    if policy == "plru" and ways & (ways - 1):
        raise ValueError("PLRU requires a power-of-two way count")


def simulate_policy_set_associative(
    scheme: IndexingScheme,
    trace: Trace,
    geometry: CacheGeometry | None = None,
    ways: int | None = None,
    policy: str = "lru",
    seed: int = 0,
    warmup: int = 0,
    engine: str = "auto",
) -> SimulationResult:
    """k-way simulation under *any* registered replacement policy.

    Equivalent to ``simulate(SetAssociativeCache(geometry, scheme,
    policy=policy, seed=seed), trace, warmup=warmup)`` with the model
    renamed to the canonical ``set_associative[<scheme>,<k>way,<policy>]``
    — bit-identical counters, per-set histograms and ``extra`` classes,
    asserted by ``tests/core/test_fastpolicy_differential.py``.

    ``engine="auto"`` replays through the set-decomposed kernels of this
    module (LRU: the stack-distance kernel); ``"sequential"`` drives the
    real cache model and repackages — same results either way.  ``ways``
    must match the geometry's associativity: unlike the LRU-only
    stack-distance path there is no way to re-threshold a stateful-policy
    replay, so a mismatch is a genuinely unsupported configuration.
    """
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {_ENGINES}")
    geometry = geometry or scheme.geometry
    if ways is not None and int(ways) != geometry.ways:
        raise ValueError(
            f"policy simulation models the geometry's own associativity "
            f"({geometry.ways}); got ways={ways} — rebuild the geometry with "
            f"with_ways()/with_fixed_sets() instead"
        )
    ways = geometry.ways
    _validate_policy(policy, ways)
    model = _canonical_model(scheme.name, ways, policy)
    n = len(trace)
    if warmup >= n and n > 0:
        raise ValueError("warmup consumes the entire trace")
    if engine == "sequential":
        cache = SetAssociativeCache(geometry, scheme, policy=policy, seed=seed)
        res = simulate(cache, trace, warmup=warmup)
        return dc_replace(res, model=model)
    blocks, indices = decode(scheme, trace, geometry)
    if policy == "lru":
        miss = lru_miss_flags(blocks, indices, ways)
    else:
        miss, _ways_all, _private = _kernel_outcomes(
            blocks, indices, geometry.num_sets, ways, policy, seed
        )
    if warmup:
        # Replay state is continuous, so the suffix flags are exactly a
        # warmed-up run's (the same argument as the LRU warmup path).
        miss = miss[warmup:]
        indices = indices[warmup:]
    return _vectorised_result(model, trace.name, indices, miss, geometry.num_sets)


def simulate_policy_sweep(
    scheme: IndexingScheme,
    trace: Trace,
    geometry: CacheGeometry,
    policies,
    seed: int = 0,
    engine: str = "auto",
) -> list[SimulationResult]:
    """One *policy sweep* under one indexing scheme and geometry.

    Every member shares one trace decode, one index computation and one
    set-decomposition pass; each policy then replays its own kernel off
    the shared grouped arrays (Random re-walks the shared run heads in
    program order).  Returns one result per policy, in order, each
    bit-identical (per-set counts included) to its
    :func:`simulate_policy_set_associative` per-cell equivalent — the
    contract behind the engine's "policy" family axis.
    """
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {_ENGINES}")
    policies = [str(p) for p in policies]
    ways = geometry.ways
    for policy in policies:
        _validate_policy(policy, ways)
    if engine == "sequential":
        return [
            simulate_policy_set_associative(
                scheme, trace, geometry, policy=p, seed=seed, engine="sequential"
            )
            for p in policies
        ]
    blocks, indices = decode(scheme, trace, geometry)
    g = SetStream.of(blocks, indices)
    results = []
    for policy in policies:
        if policy == "lru":
            # The replay kernel is exact for LRU too, and reuses the shared
            # grouping instead of re-sorting inside lru_miss_flags.
            miss_k, way_k = _replay_lru(g, ways)
            miss, _ = _expand(g, miss_k, way_k)
        else:
            miss, _ways_all, _private = _kernel_outcomes(
                blocks, indices, geometry.num_sets, ways, policy, seed, g=g
            )
        results.append(
            _vectorised_result(
                _canonical_model(scheme.name, ways, policy),
                trace.name,
                indices,
                miss,
                geometry.num_sets,
            )
        )
    return results


# -- cache-object dispatcher ------------------------------------------------------

_POLICY_TYPES = {
    LRUPolicy: "lru",
    FIFOPolicy: "fifo",
    RandomPolicy: "random",
    PLRUPolicy: "plru",
    MRUPolicy: "mru",
    LFUPolicy: "lfu",
}


def _pristine(cache: SetAssociativeCache) -> bool:
    """True iff the cache (contents + policy) is in just-constructed state.

    The kernels replay from a cold cache; any pre-existing contents (e.g. a
    second simulate() over the same object) routes to the sequential
    reference engine instead — exactness over speed.
    """
    if np.any(cache._blocks != EMPTY):
        return False
    policy = cache.policy
    if type(policy) in (LRUPolicy, FIFOPolicy, MRUPolicy):
        return policy._clock == 0 and bool(np.all(policy._stamp == -1))
    if type(policy) is LFUPolicy:
        return bool(np.all(policy._count == 0))
    if type(policy) is PLRUPolicy:
        return bool(np.all(policy._bits == 0))
    if type(policy) is RandomPolicy:
        fresh = np.random.default_rng(policy._seed)
        return policy._rng.bit_generator.state == fresh.bit_generator.state
    return False


def has_policy_fast_path(cache) -> bool:
    """True iff :func:`simulate_policy` would take the replay kernels."""
    return (
        type(cache) is SetAssociativeCache
        and type(cache.policy) in _POLICY_TYPES
        and _pristine(cache)
    )


def _restore_state(
    cache: SetAssociativeCache,
    blocks: np.ndarray,
    indices: np.ndarray,
    miss: np.ndarray,
    ways_all: np.ndarray,
    private,
) -> None:
    """Write the exact end-of-trace state into the cache object."""
    num_sets = cache.geometry.num_sets
    ways = cache.geometry.ways
    n = int(blocks.size)
    idx64 = np.ascontiguousarray(indices, dtype=np.int64)
    slotway = idx64 * ways + ways_all
    fills = np.flatnonzero(miss)
    # Contents: the block of each (set, way)'s last fill (hits don't move
    # blocks; positions increase, so maximum.at keeps the last).
    last_fill = np.full(num_sets * ways, -1, dtype=np.int64)
    np.maximum.at(last_fill, slotway[fills], fills)
    filled = last_fill >= 0
    flat = np.full(num_sets * ways, EMPTY, dtype=np.int64)
    flat[filled] = blocks[last_fill[filled]]
    cache._blocks[:] = flat.reshape(num_sets, ways)
    policy = cache.policy
    kind = _POLICY_TYPES[type(policy)]
    if kind in ("lru", "mru"):
        # Every access touches exactly once (fill defaults to touch), so
        # the clock ends at n and a way's stamp is its last touch position
        # (1-based).
        stamp = np.full(num_sets * ways, -1, dtype=np.int64)
        if n:
            np.maximum.at(stamp, slotway, np.arange(1, n + 1, dtype=np.int64))
        policy._stamp[:] = stamp.reshape(num_sets, ways)
        policy._clock = n
    elif kind == "fifo":
        # Only fills advance the clock; a way's stamp is the global rank of
        # its last fill.
        ranks = np.cumsum(miss)
        stamp = np.full(num_sets * ways, -1, dtype=np.int64)
        if fills.size:
            np.maximum.at(stamp, slotway[fills], ranks[fills])
        policy._stamp[:] = stamp.reshape(num_sets, ways)
        policy._clock = int(miss.sum())
    elif kind == "lfu":
        # Replay-private rows carry the exact per-set counts.
        policy._count.fill(0)
        for set_index, counts in private:
            policy._count[set_index] = counts
    elif kind == "plru":
        policy._bits.fill(0)
        for set_index, bits in private:
            policy._bits[set_index] = bits
    elif kind == "random":
        policy._rng = private


def simulate_policy(
    cache: SetAssociativeCache,
    trace: Trace,
    engine: str = "auto",
    warmup: int = 0,
    check_invariants_every: int = 0,
) -> SimulationResult:
    """Drive a :class:`SetAssociativeCache` through the fast policy kernels.

    A drop-in accelerator for :func:`~repro.core.simulator.simulate` on
    set-associative caches, mirroring
    :func:`~repro.core.fastassoc.simulate_progassoc`: ``engine="auto"``
    takes the exact replay kernels when the cache is a pristine
    ``SetAssociativeCache`` with a registered policy, reconstructing the
    full end state (contents, stats, policy internals — RNG position
    included) so follow-on inspection sees exactly what the sequential
    engine would have left behind.  Anything else — subclasses, pre-warmed
    contents, invariant checking — falls back to :func:`simulate`.
    """
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {_ENGINES}")
    if (
        engine != "auto"
        or check_invariants_every
        or not has_policy_fast_path(cache)
    ):
        return simulate(
            cache, trace, warmup=warmup, check_invariants_every=check_invariants_every
        )
    n = len(trace)
    if warmup >= n and n > 0:
        raise ValueError("warmup consumes the entire trace")
    geometry = cache.geometry
    policy_name = _POLICY_TYPES[type(cache.policy)]
    seed = cache.policy._seed if policy_name == "random" else 0
    blocks, indices = decode(cache.indexing, trace, geometry)
    miss, ways_all, private = _kernel_outcomes(
        blocks, indices, geometry.num_sets, geometry.ways, policy_name, seed
    )
    _restore_state(cache, blocks, indices, miss, ways_all, private)
    counted_idx = indices[warmup:] if warmup else indices
    counted_miss = miss[warmup:] if warmup else miss
    accesses, misses = per_set_counts(counted_idx, counted_miss, geometry.num_sets)
    total = int(counted_idx.size)
    total_misses = int(counted_miss.sum())
    hits = total - total_misses
    stats = CacheStats(geometry.num_sets)
    stats.accesses = total
    stats.hits = hits
    stats.misses = total_misses
    stats.slot_accesses = accesses
    stats.slot_hits = accesses - misses
    stats.slot_misses = misses
    if hits:
        stats.extra["direct_hits"] = hits
    cache.stats = stats
    return _result_from_stats(cache.name, trace.name, stats, total)
