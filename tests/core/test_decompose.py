"""Tests for the shared set-decomposition front end (:mod:`repro.core.decompose`).

* the stable-argsort branch taken for group ids too large to pack agrees,
  field for field, with the packed-key branch on a relabelled copy;
* a Hypothesis property pins every :class:`SetStream` field against a plain
  per-group Python reference (a dict of lists) and pins the run heads
  against the sequential :class:`~repro.core.caches.DirectMappedCache`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.address import CacheGeometry
from repro.core.caches import DirectMappedCache
from repro.core.decompose import SetStream, decode
from repro.core.indexing import GivargisIndexing, ModuloIndexing, XorIndexing
from repro.trace import Trace

TINY = CacheGeometry(capacity_bytes=128, line_bytes=16, ways=1, address_bits=16)

FIELDS = (
    "order",
    "sorted_blk",
    "bounds",
    "repeat",
    "kept_pos",
    "run_len",
    "kept_blk",
    "kept_bounds",
)


class TestLargeIdBranch:
    def test_argsort_branch_matches_packed_key_branch(self):
        rng = np.random.default_rng(11)
        n = 3000
        small = rng.integers(0, 16, size=n, dtype=np.int64)
        blocks = rng.integers(0, 6, size=n, dtype=np.int64)
        # An order-preserving relabel to ids far too large to pack.
        scale = np.int64(1 << 58)
        large = small * scale + 5
        assert int(large.max()) >= (1 << 62) // n
        assert int(small.max()) < (1 << 62) // n
        packed = SetStream.of(blocks, small)
        fallback = SetStream.of(blocks, large)
        for name in FIELDS:
            np.testing.assert_array_equal(
                getattr(fallback, name), getattr(packed, name), err_msg=name
            )
        for name in ("sorted_gid", "kept_gid"):
            np.testing.assert_array_equal(
                getattr(fallback, name), getattr(packed, name) * scale + 5
            )

    def test_empty_stream(self):
        s = SetStream.of(np.empty(0, np.int64), np.empty(0, np.int64))
        assert s.n == 0
        assert s.bounds.tolist() == [0]
        assert s.kept_bounds.tolist() == [0]
        for name in FIELDS:
            if "bounds" not in name:
                assert getattr(s, name).size == 0, name

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal shape"):
            SetStream.of(np.zeros(3, np.int64), np.zeros(2, np.int64))


# -- Hypothesis property against a plain per-group reference -----------------------

streams = st.integers(min_value=0, max_value=300).flatmap(
    lambda n: st.tuples(
        hnp.arrays(np.int64, n, elements=st.integers(min_value=0, max_value=9)),
        hnp.arrays(np.int64, n, elements=st.integers(min_value=0, max_value=7)),
    )
)


def reference_groups(blocks, gids) -> dict[int, list[int]]:
    """Program positions of each group's accesses, in program order."""
    groups: dict[int, list[int]] = {}
    for pos, gid in enumerate(gids.tolist()):
        groups.setdefault(gid, []).append(pos)
    return groups


class TestSetStreamProperties:
    @settings(max_examples=80, deadline=None)
    @given(streams)
    def test_fields_match_per_group_reference(self, arrays):
        blocks, gids = arrays
        s = SetStream.of(blocks, gids)
        groups = reference_groups(blocks, gids)
        blk = blocks.tolist()
        order, bounds, heads = [], [0], []
        for gid in sorted(groups):
            members = groups[gid]
            order += members
            bounds.append(bounds[-1] + len(members))
            for k, pos in enumerate(members):
                heads.append(k == 0 or blk[members[k - 1]] != blk[pos])
        # Stable within each group; bounds delimit the groups.
        assert s.order.tolist() == order
        assert s.bounds.tolist() == bounds
        assert s.sorted_blk.tolist() == [blk[p] for p in order]
        for a, b in zip(bounds, bounds[1:]):
            assert len(set(s.sorted_gid[a:b].tolist())) == 1
        assert int(s.run_len.sum()) == s.n == len(blk)
        assert (~s.repeat).tolist() == heads
        head_pos = [j for j, h in enumerate(heads) if h]
        assert s.kept_pos.tolist() == head_pos
        assert s.run_len.tolist() == np.diff(head_pos + [len(blk)]).tolist()
        assert s.kept_blk.tolist() == [blk[order[j]] for j in head_pos]
        assert s.kept_bounds.tolist() == [sum(heads[:b]) for b in bounds]

    @settings(max_examples=40, deadline=None)
    @given(
        # 16 blocks of 16 bytes: heavy reuse of each block at varying
        # offsets, which an offset-reading scheme must not see.
        hnp.arrays(np.uint64, st.integers(0, 300), elements=st.integers(0, 255)),
        st.sampled_from(["modulo", "xor", "givargis_offset"]),
    )
    def test_run_heads_are_sequential_direct_mapped_misses(self, addrs, name):
        trace = Trace(addrs, name="h")
        if name == "modulo":
            scheme = ModuloIndexing(TINY)
        elif name == "xor":
            scheme = XorIndexing(TINY)
        else:
            fit = addrs if addrs.size else np.arange(64, dtype=np.uint64)
            scheme = GivargisIndexing(TINY, include_offset_bits=True).fit(fit)
        s = SetStream.of(*decode(scheme, trace, TINY))
        cache = DirectMappedCache(TINY, scheme)
        seq_miss = [not cache.access(a).hit for a in addrs.tolist()]
        assert s.unsort(~s.repeat).tolist() == seq_miss
