"""Direct-mapped caches: the differential harness's direct-mapped rows
under the fastsim suite's test names, the lineup's coverage check, and the
direct-mapped kernel checks that are not row comparisons.

The rows, the trace zoo and the scheme lineup live in
``test_differential.py``; each test here takes its rows with
``rows``/``groups``.  The direct-mapped ``dispatch`` kernel's rows, which
no test here takes, run there.
"""

from __future__ import annotations

import numpy as np

from repro.core.fastsim import direct_mapped_miss_flags, per_set_counts
from repro.core.indexing import ModuloIndexing, available_schemes
from repro.core.simulator import simulate_indexing
from test_differential import SMALL, TINY, groups, lineup, rows, run_rows, scheme, zoo

HUGE = rows("direct_mapped_miss_flags", "wide") + rows("simulate_indexing", "wide")


def test_lineup_covers_every_registered_scheme():
    names = {scheme(TINY, label).name for label in lineup(TINY)}
    assert set(available_schemes()) <= names


class TestFastsimVsReference:
    @groups("direct_mapped_miss_flags", {g: g for g in ("tiny", "small", "paper")})
    def test_all_schemes_all_traces(self, rows):
        run_rows(rows)

    def test_empty_trace_all_zero(self):
        blocks = np.empty(0, dtype=np.int64)
        flags = direct_mapped_miss_flags(blocks, blocks)
        assert flags.size == 0
        acc, mis = per_set_counts(blocks, flags, 16)
        assert int(acc.sum()) == 0 and int(mis.sum()) == 0

    def test_single_access_is_cold_miss(self):
        flags = direct_mapped_miss_flags(np.array([42]), np.array([3]))
        assert flags.tolist() == [True]

    def test_all_one_set_every_access_misses(self):
        sim = simulate_indexing(ModuloIndexing(SMALL), zoo(SMALL, "one_set"), SMALL)
        assert sim.misses == sim.accesses
        assert int(sim.slot_accesses[3]) == sim.accesses  # the blocks land in set 3

    def test_ping_pong_pair_always_misses(self):
        sim = simulate_indexing(ModuloIndexing(SMALL), zoo(SMALL, "ping_pong"), SMALL)
        assert sim.misses == sim.accesses


class TestVectorisedVsSequentialEngine:
    """``simulate_indexing``, the direct-mapped figures' path, against the
    sequential direct-mapped cache."""

    @groups("simulate_indexing", {g: g for g in ("tiny", "small", "paper")})
    def test_simulation_results_agree_exactly(self, rows):
        run_rows(rows)

    def test_huge_addresses_agree(self):
        """Addresses above 2^32: the raw flags and the stats path."""
        run_rows(HUGE)

    @groups("simulate_indexing", {str(s): f"seed{s}" for s in range(5)})
    def test_randomized_seeds_paper_geometry(self, rows):
        run_rows(rows)
