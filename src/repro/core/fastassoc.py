"""Set-decomposed fast engine for the programmable-associativity caches.

The programmable-associativity structures (paper Section III) are stateful,
so they cannot use the offline kernels in :mod:`repro.core.fastsim`.  They
do, however, share one structural property the sequential engine ignores:
**every access touches a bounded, statically known group of lines**, and no
information flows between groups.

* The column-associative cache couples exactly the pair ``{s, s ^ MSB}``:
  every probe, swap and relocation of an access with primary index ``s``
  stays inside its pair, so the trace decomposes into one independent
  substream per pair.
* A B-cache access touches exactly one NPI *cluster* of ``BAS`` lines (the
  programmable decoder never crosses clusters), so the trace decomposes per
  cluster.  Under LRU the policy clock is global, but each access performs
  exactly **one** policy operation (a touch on a hit, a fill on a miss), so
  the stamp written by the access at trace position ``i`` is always
  ``clock0 + i + 1`` — a pure function of the position, reconstructible
  inside each cluster's substream without simulating the others.
* The partner cache couples a hot line with its donor — but the pairing is
  re-drawn at every global rebalance.  Between two rebalances the grouping
  is static, so the engine decomposes each *window* independently and
  replays the cache's own ``_rebalance()`` at the boundaries (bit-identical
  tie-breaking, since it runs the very same ``np.argsort`` over the very
  same counter arrays).

Decomposition turns the hot loop into tiny closed-state loops over
pre-extracted plain-``int`` lists: no ``IndexingScheme.index_of`` call, no
``AccessResult`` allocation, no ``CacheStats`` method dispatch per access.
Decoding (one vectorised ``indices_of`` call per trace) and grouping come
from the shared front end in :mod:`repro.core.decompose`.

**MRU-repeat compression (column-associative).**  A repeated access to the
pair's last-touched block is provably a first-probe hit that changes no
state, so it can be counted without entering the loop.  Proof.  Maintain
the invariant *I*: for every line ``s``, (a) ``rehash[s]`` implies the
block at ``s`` has primary index ``s ^ MSB``, and (b) ``not rehash[s]``
with ``s`` non-empty implies the block at ``s`` has primary index ``s``.
*I* holds initially (all lines empty) and every transition preserves it:
a first-probe hit changes nothing; a rehash-claim and a both-miss install
the new block at its own primary ``b1`` with ``rehash[b1]`` cleared
(preserving (b)) and relocate ``b1``'s previous occupant — which by (b)
had primary ``b1`` — to ``b2 = b1 ^ MSB`` with ``rehash[b2]`` set
(preserving (a)); a rehash hit swaps the block to its primary ``b1``
(clearing ``rehash[b1]``, case (b)) and marks the displaced block — by (b)
primary-``b1`` resident — as rehashed at ``b2`` (case (a)).  Now observe
that *after any access to block X*, X sits in its primary line ``b1(X)``
with ``rehash[b1(X)]`` cleared — every branch above ends in that state.
Hence an immediately following access to X **in the same pair substream**
(no other access can touch the pair's lines) finds X on the first probe:
a 1-cycle ``first_probe`` hit whose handler performs no state change.
Dropping it from the replay and adding its counters in bulk is therefore
exact.  The analogous compression for the B-cache keeps one loop iteration
per *run* of equal adjacent (cluster, block) accesses: each repeat is a hit
on the same line whose only state change is re-stamping that line's LRU
timestamp, so the run collapses to its head plus a final stamp of
``clock0 + last_position + 1``.  The partner cache gets **no** compression:
a repeated access may be serviced by the donor line (a 2-cycle ``partner``
hit that re-stamps the donor), and a rebalance between the two accesses can
change the outcome entirely.

Every function reproduces the sequential engine *exactly*: equal
:class:`~repro.core.simulator.SimulationResult` (including per-slot
histograms, ``extra`` counters and lookup cycles) **and** equal post-run
cache-object state (``_blocks``, rehash/PI/stamp arrays, policy clock, SHT/
OUT directories).  The differential harness in
``tests/core/test_differential.py`` asserts both.

The kernels are entries of :data:`repro.core.dispatch.KERNELS`
(``fast:colassoc``, ``fast:bcache``, ``fast:partner``, ``fast:adaptive``);
:func:`~repro.core.dispatch.dispatch` decides when each one applies.
"""

from __future__ import annotations

import numpy as np

from ..trace.event import Trace
from .caches.adaptive import AdaptiveGroupAssociativeCache
from .caches.base import EMPTY, CacheModel
from .caches.bcache import BalancedCache
from .caches.column_associative import ColumnAssociativeCache
from .caches.partner import PartnerIndexCache
from .decompose import SetStream, decode
from .replacement import LRUPolicy
from .simulator import SimulationResult, _result_from_stats

__all__ = [
    "simulate_column_associative",
    "simulate_bcache",
    "simulate_partner",
    "simulate_adaptive",
]


def _finalize(
    cache: CacheModel,
    trace: Trace,
    *,
    accesses: int,
    hits: int,
    misses: int,
    cycles: int,
    slot_accesses: list[int],
    slot_hits: list[int],
    slot_misses: list[int],
    extra: dict[str, int],
) -> SimulationResult:
    """Install fresh stats on the cache (as ``simulate`` would have) and
    package the :class:`SimulationResult`."""
    cache.reset_stats()
    stats = cache.stats
    stats.accesses = accesses
    stats.hits = hits
    stats.misses = misses
    stats.extra = {k: v for k, v in extra.items() if v}
    stats.slot_accesses[:] = slot_accesses
    stats.slot_hits[:] = slot_hits
    stats.slot_misses[:] = slot_misses
    return _result_from_stats(cache.name, trace.name, stats, cycles)


# -- column-associative ----------------------------------------------------------------


def simulate_column_associative(
    cache: ColumnAssociativeCache, trace: Trace
) -> SimulationResult:
    """Exact set-pair-decomposed replay of a column-associative cache.

    Bit-identical to ``simulate(cache, trace)``: same result, same post-run
    ``_blocks``/``_rehash``.  The trace is partitioned by the pair id
    ``b1 & (MSB - 1)`` (both members of ``{s, s ^ MSB}`` share it), each
    pair substream is MRU-repeat-compressed (see the module docstring for
    the proof) and replayed through a closed two-line state machine.
    """
    n = len(trace)
    blocks_all, b1_all = decode(cache.indexing, trace, cache.geometry)
    msb = cache._msb_mask
    protect = cache.protect_conventional

    num_sets = cache.geometry.num_sets
    acc_l = [0] * num_sets
    hit_l = [0] * num_sets
    mis_l = [0] * num_sets
    hits = misses = cycles = 0
    fp = dm = rh = rm = 0

    if n:
        stream = SetStream.of(blocks_all, b1_all & np.int64(msb - 1))
        sorted_b1 = b1_all[stream.order]

        # MRU-repeat compression: drop accesses repeating the previous
        # access of their pair — provably 1-cycle first-probe hits with no
        # state change — and account for them in bulk.
        repeat = stream.repeat
        n_rep = int(repeat.sum())
        if n_rep:
            rep_slots = sorted_b1[repeat]
            rep_counts = np.bincount(rep_slots, minlength=num_sets)
            for s in np.flatnonzero(rep_counts):
                c = int(rep_counts[s])
                acc_l[s] += c
                hit_l[s] += c
            fp += n_rep  # hits/cycles are derived from fp at the end

        kept_pair = stream.kept_gid
        kept_side = ((sorted_b1[stream.kept_pos] & msb) != 0).astype(np.int8).tolist()
        kept_blk = stream.kept_blk.tolist()
        bounds = stream.kept_bounds
        blk_state = cache._blocks.tolist()
        rh_state = cache._rehash.tolist()

        # Closed two-line state machine per pair; branch structure mirrors
        # ColumnAssociativeCache._access_block exactly.  Lookup cycles and
        # global hit/miss totals are pure functions of the class counters
        # (first_probe/direct-miss = 1 cycle, rehash hit/miss = 2), so the
        # hot loop tracks only per-side probes/hits/misses as scalars.
        for k in range(bounds.size - 1):
            a, b = int(bounds[k]), int(bounds[k + 1])
            lo = int(kept_pair[a])
            hi = lo | msb
            b_lo = blk_state[lo]
            b_hi = blk_state[hi]
            r_lo = rh_state[lo]
            r_hi = rh_state[hi]
            a0 = h0 = m0 = a1 = h1 = m1 = 0
            for p, blk in zip(kept_side[a:b], kept_blk[a:b]):
                if p == 0:
                    a0 += 1
                    if b_lo == blk:
                        h0 += 1
                        fp += 1
                    elif r_lo:
                        # Out-of-place occupant: claim b1, skip the b2 probe.
                        b_lo = blk
                        r_lo = False
                        m0 += 1
                        dm += 1
                    else:
                        a1 += 1
                        if b_hi == blk:
                            # Rehash hit: swap so the block is primary next.
                            b_hi = b_lo
                            b_lo = blk
                            r_lo = False
                            r_hi = b_hi != EMPTY
                            h1 += 1
                            rh += 1
                        else:
                            # Miss in both: relocate b1's occupant if allowed.
                            if r_hi or b_hi == EMPTY or not protect:
                                b_hi = b_lo
                                r_hi = b_hi != EMPTY
                            b_lo = blk
                            r_lo = False
                            m0 += 1
                            rm += 1
                else:
                    a1 += 1
                    if b_hi == blk:
                        h1 += 1
                        fp += 1
                    elif r_hi:
                        b_hi = blk
                        r_hi = False
                        m1 += 1
                        dm += 1
                    else:
                        a0 += 1
                        if b_lo == blk:
                            b_lo = b_hi
                            b_hi = blk
                            r_hi = False
                            r_lo = b_lo != EMPTY
                            h0 += 1
                            rh += 1
                        else:
                            if r_lo or b_lo == EMPTY or not protect:
                                b_lo = b_hi
                                r_lo = b_lo != EMPTY
                            b_hi = blk
                            r_hi = False
                            m1 += 1
                            rm += 1
            blk_state[lo] = b_lo
            blk_state[hi] = b_hi
            rh_state[lo] = r_lo
            rh_state[hi] = r_hi
            acc_l[lo] += a0
            hit_l[lo] += h0
            mis_l[lo] += m0
            acc_l[hi] += a1
            hit_l[hi] += h1
            mis_l[hi] += m1

        hits = fp + rh
        misses = dm + rm
        cycles = fp + dm + 2 * (rh + rm)

        cache._blocks[:] = blk_state
        cache._rehash[:] = rh_state

    return _finalize(
        cache,
        trace,
        accesses=n,
        hits=hits,
        misses=misses,
        cycles=cycles,
        slot_accesses=acc_l,
        slot_hits=hit_l,
        slot_misses=mis_l,
        extra={
            "first_probe_hits": fp,
            "rehash_hits": rh,
            "direct_misses": dm,
            "rehash_misses": rm,
        },
    )


# -- B-cache ---------------------------------------------------------------------------


def simulate_bcache(cache: BalancedCache, trace: Trace) -> SimulationResult:
    """Exact cluster-decomposed replay of a B-cache (LRU policy only).

    Bit-identical to ``simulate(cache, trace)``: same result and same
    post-run ``_blocks``/``_pi_reg``/policy stamps and clock.  Requires an
    LRU policy — only LRU's one-op-per-access clock makes the global
    timestamps a pure function of trace position (see module docstring);
    ``RandomPolicy``'s shared RNG stream is order-dependent across
    clusters and is rejected.
    """
    if type(cache.policy) is not LRUPolicy:
        raise ValueError(
            "the decomposed B-cache path is exact only for LRU; got policy "
            f"{cache.policy.name!r} — drive BalancedCache through simulate() instead"
        )
    n = len(trace)
    blocks_all = trace.blocks(cache.geometry.offset_bits).astype(np.int64)
    bas = cache.bas
    npi_bits = cache.npi_bits
    clock0 = cache.policy._clock

    num_lines = cache.stats.num_slots
    acc_l = [0] * num_lines
    hit_l = [0] * num_lines
    mis_l = [0] * num_lines
    hits = misses = cycles = 0

    if n:
        # Run compression: adjacent equal (cluster, block) accesses collapse
        # to their head plus `run_len - 1` guaranteed hits on the same line;
        # the line's final LRU stamp is the clock of the run's *last* member.
        stream = SetStream.of(blocks_all, blocks_all & np.int64(cache._cluster_mask))
        run_len = stream.run_len
        # Stamp of the run's last member: policy clock after the access at
        # trace position order[last] (each access bumps the clock once).
        last_pos = stream.kept_pos + run_len - 1
        stamps = (stream.order[last_pos] + (clock0 + 1)).tolist()
        extra_hits = (run_len - 1).tolist()
        kept_cluster = stream.kept_gid
        kept_blk = stream.kept_blk.tolist()
        kept_pi = (
            (stream.kept_blk >> np.int64(npi_bits)) & np.int64(cache._pi_mask)
        ).tolist()
        bounds = stream.kept_bounds

        blocks_state = cache._blocks
        pi_state = cache._pi_reg
        stamp_state = cache.policy._stamp
        way_range = range(bas)

        for k in range(bounds.size - 1):
            a, b = int(bounds[k]), int(bounds[k + 1])
            cl = int(kept_cluster[a])
            base = cl * bas
            blks = blocks_state[cl].tolist()
            pis = pi_state[cl].tolist()
            sts = stamp_state[cl].tolist()
            for j in range(a, b):
                blk = kept_blk[j]
                pi = kept_pi[j]
                rep = extra_hits[j]
                # Programmable decode: at most one line matches the PI value.
                way = -1
                for w in way_range:
                    if pis[w] == pi:
                        way = w
                        break
                if way >= 0 and blks[way] == blk:
                    sts[way] = stamps[j]
                    line = base + way
                    acc_l[line] += 1 + rep
                    hit_l[line] += 1 + rep
                    hits += 1 + rep
                    continue
                # Miss: forced victim on a PI match, else first empty line,
                # else the cluster's LRU line (np.argmin == first minimum).
                if way < 0:
                    way = -1
                    for w in way_range:
                        if blks[w] == EMPTY:
                            way = w
                            break
                    if way < 0:
                        way = 0
                        best = sts[0]
                        for w in way_range:
                            if sts[w] < best:
                                best = sts[w]
                                way = w
                blks[way] = blk
                pis[way] = pi
                sts[way] = stamps[j]
                line = base + way
                acc_l[line] += 1 + rep
                mis_l[line] += 1
                hit_l[line] += rep
                misses += 1
                hits += rep
            blocks_state[cl] = blks
            pi_state[cl] = pis
            stamp_state[cl] = sts

        cache.policy._clock = clock0 + n
        cycles = n  # every B-cache lookup is a single-cycle decode

    return _finalize(
        cache,
        trace,
        accesses=n,
        hits=hits,
        misses=misses,
        cycles=cycles,
        slot_accesses=acc_l,
        slot_hits=hit_l,
        slot_misses=mis_l,
        extra={"direct_hits": hits},
    )


# -- partner cache ---------------------------------------------------------------------


def simulate_partner(cache: PartnerIndexCache, trace: Trace) -> SimulationResult:
    """Exact window-decomposed replay of the partner-index cache.

    Between two rebalances the hot/donor pairing is static, so each window
    decomposes into independent pair (hot + donor) and singleton substreams.
    The rebalances themselves are replayed by calling the cache's own
    ``_rebalance()`` on the very same counter arrays the sequential engine
    would see, reproducing its (non-stable) ``np.argsort`` tie-breaking
    bit for bit.  No MRU compression here — a repeat may be a 2-cycle
    partner hit, and an interleaved rebalance can change its outcome.
    """
    n = len(trace)
    blocks_all, slots_all = decode(cache.indexing, trace, cache.geometry)
    num_sets = cache.geometry.num_sets
    period = cache.rebalance_period
    clock0 = cache._clock
    s0 = cache._since_rebalance

    acc_l = [0] * num_sets
    hit_l = [0] * num_sets
    mis_l = [0] * num_sets
    hits = misses = cycles = 0
    dh = ph = pm = 0

    # Fire positions: the access at `j` rebalances *before* it is served
    # whenever the running since-rebalance counter reaches the period.
    first_fire = max(0, period - 1 - s0)
    fires = list(range(first_fire, n, period)) if first_fire < n else []
    boundaries = [0] + fires + [n]

    blk_state = cache._blocks.tolist()
    st_state = cache._stamp.tolist()

    for w in range(len(boundaries) - 1):
        a, b = boundaries[w], boundaries[w + 1]
        if w > 0:
            # `a` is a fire position: the previous window's counters are
            # already in the cache arrays; replay the global rebalance.
            cache._rebalance()
        if a == b:
            continue
        slots_w = slots_all[a:b]
        # Group id: donors map to their hot line's group, all else to itself.
        linked_hot = np.flatnonzero(cache._linked)
        group_of = np.arange(num_sets, dtype=np.int64)
        if linked_hot.size:
            group_of[cache._partner[linked_hot]] = linked_hot
        stream = SetStream.of(blocks_all[a:b], group_of[slots_w])
        sorted_gid = stream.sorted_gid
        sorted_slot = slots_w[stream.order].tolist()
        sorted_blk = stream.sorted_blk.tolist()
        # Policy clock of each access: one bump per access, program order.
        sorted_clock = (stream.order + (clock0 + a + 1)).tolist()
        bounds = stream.bounds
        partner_of = cache._partner
        win_acc = cache._window_accesses
        win_mis = cache._window_misses

        for k in range(bounds.size - 1):
            ga, gb = int(bounds[k]), int(bounds[k + 1])
            h = int(sorted_gid[ga])
            d = int(partner_of[h]) if cache._linked[h] else -1
            hb = blk_state[h]
            sh = st_state[h]
            if d >= 0:
                db = blk_state[d]
                sd = st_state[d]
            else:
                db = sd = 0  # unused
            a_h = h_h = m_h = 0  # per-slot stat increments (probes/hits/misses)
            a_d = h_d = m_d = 0
            wa_h = wm_h = wa_d = wm_d = 0  # window counters
            for j in range(ga, gb):
                slot = sorted_slot[j]
                blk = sorted_blk[j]
                c = sorted_clock[j]
                if slot == h:
                    wa_h += 1
                    a_h += 1
                    if hb == blk:
                        sh = c
                        h_h += 1
                        dh += 1
                    elif d >= 0:
                        a_d += 1  # partner probe
                        if db == blk:
                            sd = c
                            h_d += 1
                            ph += 1
                        else:
                            # Pair miss: allocate into the LRU of the two.
                            if sh <= sd:
                                hb = blk
                                sh = c
                            else:
                                db = blk
                                sd = c
                            wm_h += 1
                            m_h += 1
                            pm += 1
                    else:
                        hb = blk
                        sh = c
                        wm_h += 1
                        m_h += 1
                else:
                    # Donor-primary access: the donor line is *not* linked,
                    # so it behaves as a plain direct-mapped line.
                    wa_d += 1
                    a_d += 1
                    if db == blk:
                        sd = c
                        h_d += 1
                        dh += 1
                    else:
                        db = blk
                        sd = c
                        wm_d += 1
                        m_d += 1
            blk_state[h] = hb
            st_state[h] = sh
            acc_l[h] += a_h
            hit_l[h] += h_h
            mis_l[h] += m_h
            win_acc[h] += wa_h
            win_mis[h] += wm_h
            if d >= 0:
                blk_state[d] = db
                st_state[d] = sd
                acc_l[d] += a_d
                hit_l[d] += h_d
                mis_l[d] += m_d
                win_acc[d] += wa_d
                win_mis[d] += wm_d
            hits += h_h + h_d
            misses += m_h + m_d

    # Direct hits and unlinked misses cost 1 cycle; partner hits and pair
    # misses probe both lines (2 cycles).
    cycles = dh + 2 * ph + pm + misses

    cache._blocks[:] = blk_state
    cache._stamp[:] = st_state
    cache._clock = clock0 + n
    cache._since_rebalance = (n - 1 - fires[-1]) if fires else s0 + n

    return _finalize(
        cache,
        trace,
        accesses=n,
        hits=hits,
        misses=misses,
        cycles=cycles,
        slot_accesses=acc_l,
        slot_hits=hit_l,
        slot_misses=mis_l,
        extra={"direct_hits": dh, "partner_hits": ph, "partner_misses": pm},
    )


# -- adaptive (AGAC): sequential semantics, hoisted hot loop --------------------------


def _replay_adaptive(cache, slots: np.ndarray, blocks: np.ndarray):
    """Hoisted replay of ``(slot, block)`` accesses over the SHT/OUT state of
    ``cache`` (an adaptive group-associative or partitioned adaptive cache).

    The SHT and OUT directories are global LRU structures, so every access
    can move state shared by all lines and the replay stays strictly
    sequential: a transliteration of the caches' shared ``_place`` over
    plain lists, with no stats or ``AccessResult`` per access.  It leaves
    the cache's lines, disposable bits, SHT, OUT and cold pool exactly as
    ``_place`` would, and returns per-line ``(accesses, hits, misses)``
    arrays, the direct and OUT hit counts, and each access's outcome (0 for
    a miss, 1 for a direct hit, 2 for an OUT hit).
    """
    n = len(slots)
    num_lines = len(cache._blocks)
    outcome = bytearray(n)  # a miss unless a hit says otherwise
    out_lines: list[int] = []  # the alternate line of each OUT hit

    blk_state = cache._blocks.tolist()
    disp = cache._disposable.tolist()
    oop = cache._out_of_position.tolist()
    sht = cache._sht
    out = cache._out
    cold_pool = cache._cold_pool
    sht_cap = cache.sht_capacity
    out_cap = cache.out_capacity
    sht_move = sht.move_to_end
    cold_move = cold_pool.move_to_end
    out_get = out.get
    out_pop = out.pop
    out_move = out.move_to_end
    cold_pop = cold_pool.pop
    out_line = out_lines.append
    direct, out_hit = 1, 2

    for i, (slot, blk) in enumerate(zip(slots.tolist(), blocks.tolist())):
        if blk_state[slot] == blk:
            outcome[i] = direct
        else:
            alt = out_get(blk)
            if alt is not None and blk_state[alt] == blk:
                del out[blk]
                displaced = blk_state[slot]
                blk_state[slot] = blk
                oop[slot] = False
                if displaced != EMPTY:
                    blk_state[alt] = displaced
                    oop[alt] = True
                    disp[alt] = False
                    cold_pop(alt, None)
                    out[displaced] = alt
                    out_move(displaced)
                else:
                    blk_state[alt] = EMPTY
                    oop[alt] = False
                    if not disp[alt]:  # _make_disposable(alt)
                        disp[alt] = True
                        cold_pool[alt] = None
                        cold_move(alt)
                outcome[i] = out_hit
                out_line(alt)
            else:
                if alt is not None:
                    del out[blk]  # stale directory entry
                # True miss.
                victim = blk_state[slot]
                if victim != EMPTY and not disp[slot] and not oop[slot]:
                    # _select_relocation_target(slot)
                    if len(out) >= out_cap and out:
                        dest = next(iter(out.values()))  # LRU end
                    else:
                        dest = None
                        for cand in cold_pool:
                            if cand != slot:
                                dest = cand
                                break
                    if dest is not None:
                        out_pop(blk_state[dest], None)
                        blk_state[dest] = victim
                        disp[dest] = False
                        cold_pop(dest, None)
                        oop[dest] = True
                        out[victim] = dest
                        out_move(victim)
                elif victim != EMPTY:
                    out_pop(victim, None)
                blk_state[slot] = blk
                oop[slot] = False
            # _trim_out(): only an OUT swap or a relocation can overfill it.
            # A miss has already filled its line; no trimmed entry names the
            # filled block or the victim, so that order changes nothing.
            while len(out) > out_cap:
                t_blk, t_dest = out.popitem(last=False)
                if blk_state[t_dest] == t_blk and not disp[t_dest]:
                    disp[t_dest] = True
                    cold_pool[t_dest] = None
                    cold_move(t_dest)

        # _sht_touch(slot)
        if slot in sht:
            sht_move(slot)
        else:
            sht[slot] = None
            if len(sht) > sht_cap:
                cold, _ = sht.popitem(last=False)
                if not disp[cold]:  # _make_disposable(cold)
                    disp[cold] = True
                    cold_pool[cold] = None
                    cold_move(cold)
        disp[slot] = False
        cold_pop(slot, None)

    cache._blocks[:] = blk_state
    cache._disposable[:] = disp
    cache._out_of_position[:] = oop

    outcome = np.frombuffer(outcome, dtype=np.uint8)
    out_lines = np.asarray(out_lines, dtype=np.int64)
    hit = outcome > 0
    out_counts = np.bincount(out_lines, minlength=num_lines)
    slot_accesses = np.bincount(slots, minlength=num_lines) + out_counts
    slot_hits = np.bincount(slots[outcome == direct], minlength=num_lines) + out_counts
    slot_misses = np.bincount(slots[~hit], minlength=num_lines)
    out_hits = len(out_lines)
    direct_hits = int(hit.sum()) - out_hits
    return (slot_accesses, slot_hits, slot_misses), direct_hits, out_hits, outcome


def simulate_adaptive(cache: AdaptiveGroupAssociativeCache, trace: Trace) -> SimulationResult:
    """Hoisted sequential replay of the adaptive group-associative cache:
    the slots through its indexing scheme, then :func:`_replay_adaptive`.
    Bit-identical to ``simulate(cache, trace)``, including the post-run
    SHT/OUT/cold-pool ordering."""
    blocks, slots = decode(cache.indexing, trace, cache.geometry)
    (acc, hit, mis), dh, oh, _ = _replay_adaptive(cache, slots, blocks)
    n = len(trace)
    return _finalize(
        cache,
        trace,
        accesses=n,
        hits=dh + oh,
        misses=n - dh - oh,
        cycles=n + (cache.OUT_HIT_CYCLES - 1) * oh,
        slot_accesses=acc,
        slot_hits=hit,
        slot_misses=mis,
        extra={"direct_hits": dh, "out_hits": oh},
    )
