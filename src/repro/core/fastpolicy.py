"""Exact set-decomposed fast engines for every replacement policy.

:mod:`repro.core.fastsim` solved the LRU axis offline (stack distances);
this module closes the gap for the remaining registered policies — FIFO,
PLRU, MRU, LFU and seeded Random — with replay kernels that are
*bit-identical* to driving :class:`~repro.core.caches.SetAssociativeCache`
one access at a time through :func:`~repro.core.simulator.simulate`:
equal hits/misses/lookup cycles, equal per-set histograms, equal ``extra``
hit classes, and (through :func:`replay_policy`) equal cache-object end
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
victim of fill number ``f`` is simply ``f mod w``.  One way leaves no
victim choice at all: every policy then takes the direct-mapped outcome (a
miss at each run head, way 0) without a replay loop.  Random is the one
policy that is *not* set-decomposable — all sets share one seeded PCG64
generator, so the victim stream is coupled to the global interleaving of
misses — and is replayed in global program order over the same compressed
stream, drawing from the generator in bulk when a one-time probe proves
NumPy's bulk ``integers`` word-compatible with scalar draws (the same
state-restoring discipline as the trace recorder's PCG64 replay), and
falling back to per-victim scalar draws otherwise.

Entry points
------------
* :func:`simulate_policy_set_associative` — one ``policysweep`` cell (and
  the CLI's single point): a fresh ``SetAssociativeCache`` through
  :func:`repro.core.dispatch.dispatch`, so ``engine="auto"`` takes
  :func:`replay_policy`, ``"sequential"`` the reference loop, and the
  result names its path either way.
* :func:`simulate_policy_sweep` — a *policy sweep*: many policies over one
  decode + one index computation + one set-grouping pass (the engine's
  "policy" family axis).
* :func:`replay_policy` — the ``fast:policy`` kernel of
  :func:`repro.core.dispatch.dispatch` for a pristine
  ``SetAssociativeCache`` object, end state included.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from functools import lru_cache

import numpy as np

from ..trace.event import Trace
from .address import CacheGeometry
from .caches.base import EMPTY
from .caches.set_associative import SetAssociativeCache
from .decompose import SetStream, decode
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
from .simulator import SimulationResult, _miss_stats, _result_from_stats

__all__ = [
    "FAST_POLICIES",
    "replay_policy",
    "simulate_policy_set_associative",
    "simulate_policy_sweep",
]

#: Policy registry names with an exact fast kernel (all registered policies).
FAST_POLICIES = ("lru", "fifo", "random", "plru", "mru", "lfu")


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
    if ways == 1 and policy in POLICIES:
        # One way leaves no victim choice: every policy misses at each run
        # head and keeps way 0, the direct-mapped outcome.  LFU ends at the
        # length of each set's last run, PLRU's one bit never flips, and
        # Random's integers(1) draws consume no generator words.
        last = g.kept_bounds[1:] - 1
        sets = g.kept_gid[last].tolist()
        if policy == "lfu":
            private = [(s, [c]) for s, c in zip(sets, g.run_len[last].tolist())]
        elif policy == "plru":
            private = [(s, [0]) for s in sets]
        elif policy == "random":
            private = np.random.default_rng(seed)
        else:
            private = None
        return g.unsort(~g.repeat), np.zeros(g.n, dtype=np.int64), private
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
    engine: str = "auto",
) -> SimulationResult:
    """k-way simulation under *any* registered replacement policy.

    ``dispatch(SetAssociativeCache(geometry, scheme, policy=policy,
    seed=seed), trace, engine)`` with the model renamed to the canonical
    ``set_associative[<scheme>,<k>way,<policy>]``: ``engine="auto"`` replays
    through :func:`replay_policy`, ``"sequential"`` drives the cache model,
    and ``result.path`` says which.  Both agree bit for bit
    (``tests/core/test_differential.py``).  ``ways`` must match
    the geometry's associativity: unlike the LRU-only stack-distance path
    there is no way to re-threshold a stateful-policy replay, so a mismatch
    is a genuinely unsupported configuration.
    """
    from .dispatch import dispatch  # the registry imports this module

    geometry = geometry or scheme.geometry
    if ways is not None and int(ways) != geometry.ways:
        raise ValueError(
            f"policy simulation models the geometry's own associativity "
            f"({geometry.ways}); got ways={ways} — rebuild the geometry with "
            f"with_ways()/with_fixed_sets() instead"
        )
    _validate_policy(policy, geometry.ways)
    cache = SetAssociativeCache(geometry, scheme, policy=policy, seed=seed)
    res = dispatch(cache, trace, engine)
    return dc_replace(res, model=_canonical_model(scheme.name, geometry.ways, policy))


def simulate_policy_sweep(
    scheme: IndexingScheme,
    trace: Trace,
    geometry: CacheGeometry,
    policies,
    seed: int = 0,
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
    policies = [str(p) for p in policies]
    ways = geometry.ways
    for policy in policies:
        _validate_policy(policy, ways)
    blocks, indices = decode(scheme, trace, geometry)
    g = SetStream.of(blocks, indices)
    results = []
    for policy in policies:
        miss, _ways_all, _private = _kernel_outcomes(
            blocks, indices, geometry.num_sets, ways, policy, seed, g=g
        )
        stats = _miss_stats(indices, miss, geometry.num_sets)
        model = _canonical_model(scheme.name, ways, policy)
        result = _result_from_stats(model, trace.name, stats, stats.accesses)
        # The path a lone cell of the same policy takes through dispatch.
        result.path = "fast:policy"
        results.append(result)
    return results


# -- the cache-object kernel ------------------------------------------------------

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


def replay_policy(cache: SetAssociativeCache, trace: Trace) -> SimulationResult:
    """Run a pristine ``SetAssociativeCache`` through its policy's kernel,
    leaving the end state (contents, policy internals, stats) that
    :func:`~repro.core.simulator.simulate` would."""
    geometry = cache.geometry
    policy_name = _POLICY_TYPES[type(cache.policy)]
    seed = cache.policy._seed if policy_name == "random" else 0
    blocks, indices = decode(cache.indexing, trace, geometry)
    miss, ways_all, private = _kernel_outcomes(
        blocks, indices, geometry.num_sets, geometry.ways, policy_name, seed
    )
    _restore_state(cache, blocks, indices, miss, ways_all, private)
    cache.stats = _miss_stats(indices, miss, geometry.num_sets)
    return _result_from_stats(cache.name, trace.name, cache.stats, cache.stats.accesses)
