"""Recorder and stdio-model tests."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.trace import Recorder, TraceComplete, record


class TestRecorder:
    def test_load_store_recorded(self):
        m = Recorder("t")
        m.load(0x100)
        m.store(0x200)
        t = m.build()
        assert t.addresses.tolist() == [0x100, 0x200]
        assert t.is_write.tolist() == [False, True]

    def test_array_helpers(self):
        m = Recorder("t")
        arr = m.space.heap_array(8, 4, "a")
        m.load_elem(arr, 2)
        m.store_field(arr, 1, 4)
        t = m.build()
        assert t.addresses.tolist() == [arr.addr(2), arr.addr(1) + 4]

    def test_ref_limit_raises(self):
        # Scalar mode raises promptly at the limit event.
        m = Recorder("t", ref_limit=3, bulk=False)
        m.load(1)
        m.load(2)
        with pytest.raises(TraceComplete):
            m.load(3)

    def test_ref_limit_bulk_deferred(self):
        # Bulk mode defers scalar verbs; the cut is applied at flush time
        # and the built trace is bounded identically.
        m = Recorder("t", ref_limit=3)
        for a in range(5):
            m.load(a)
        t = m.build()
        assert len(t) == 3
        assert t.addresses.tolist() == [0, 1, 2]

    def test_stream_respects_limit(self):
        m = Recorder("t", ref_limit=5)
        with pytest.raises(TraceComplete):
            m.load_stream(np.arange(10, dtype=np.uint64))
        assert len(m.build()) == 5

    def test_rng_seeded(self):
        a = Recorder("t", seed=5).rng.integers(0, 1 << 30)
        b = Recorder("t", seed=5).rng.integers(0, 1 << 30)
        assert a == b


class TestRecordFunction:
    def test_kernel_truncated_at_limit(self):
        def kernel(m):
            for i in range(1000):
                m.load(i * 8)

        t = record(kernel, "k", ref_limit=100)
        assert len(t) == 100

    def test_kernel_completes_under_limit(self):
        def kernel(m):
            m.load(1)
            m.builder.meta["done"] = True

        t = record(kernel, "k", ref_limit=100)
        assert len(t) == 1
        assert t.meta["done"]

    def test_thread_tagging(self):
        t = record(lambda m: m.load(1), "k", thread=3)
        assert t.thread.tolist() == [3]

    def test_determinism(self):
        def kernel(m):
            for _ in range(50):
                m.load(int(m.rng.integers(0, 1 << 20)))

        a = record(kernel, "k", seed=9)
        b = record(kernel, "k", seed=9)
        np.testing.assert_array_equal(a.addresses, b.addresses)

    @pytest.mark.parametrize("ref_limit", [None, 50])
    def test_recorder_is_freed_on_return(self, ref_limit):
        # No reference cycle: the recorder and its builder chunks go when
        # ``record`` returns, not at the next full collection (a pool
        # worker generates trace after trace).
        refs = []

        def kernel(m):
            refs.append(weakref.ref(m))
            for i in range(100):
                m.store(i * 8) if i % 3 else m.load(i * 8)

        gc.disable()
        try:
            t = record(kernel, "k", ref_limit=ref_limit)
            assert refs[0]() is None
        finally:
            gc.enable()
        assert len(t) == (ref_limit or 100)


class TestRecordStopsAtTheCut:
    """Under ``record(..., ref_limit=N)`` a bulk-mode kernel stops where the
    scalar loop stops: the pending buffer flushes at the room left, so no
    reference past the cut is generated."""

    @pytest.mark.parametrize("bulk", [True, False])
    @pytest.mark.parametrize("limit", [1, 7, 2000, 32768, 40000])
    def test_scalar_kernel_stops_after_exactly_n_emits(self, bulk, limit):
        emits = 0

        def kernel(m):
            nonlocal emits
            arr = m.space.heap_array(8, 64, "a")
            for i in range(limit + 5000):
                emits += 1
                if i % 3 == 2:
                    m.store_elem(arr, i % 64)
                else:
                    m.load(i * 8)

        t = record(kernel, "k", ref_limit=limit, bulk=bulk)
        assert emits == limit
        assert len(t) == limit

    @pytest.mark.parametrize("limit", [1, 9, 10, 2000, 40001])
    def test_pend_events_kernel_stops_within_the_crossing_call(self, limit):
        block, marks = list(range(0, 80, 8)), (1, 4)
        calls = 0

        def kernel(m):
            nonlocal calls
            for _ in range(limit):
                calls += 1
                m.pend.events(block, marks)

        t = record(kernel, "k", ref_limit=limit)
        assert calls == -(-limit // len(block))  # the call that crosses N
        assert len(t) == limit
        head = min(limit, len(block))
        assert t.is_write.tolist()[:head] == [k in marks for k in range(head)]

    @pytest.mark.parametrize("limit", [5, 6, 17, 2000, 2003])
    def test_mixed_kernel_stops_at_the_crossing_call(self, limit):
        offered: list[int] = []

        def kernel(m, bulk):
            for r in range(limit):
                for k in range(3):
                    offered.append(1)
                    m.load(r * 64 + k)
                offered.append(4)
                if bulk:
                    m.strided_loop(r * 64 + 8, 8, 4, True)
                else:
                    for k in range(4):
                        m.store(r * 64 + 8 + 8 * k)

        t = record(lambda m: kernel(m, True), "k", ref_limit=limit)
        total = sum(offered)
        assert total - offered[-1] < limit <= total
        assert len(t) == limit
        want = record(lambda m: kernel(m, False), "k", ref_limit=limit, bulk=False)
        np.testing.assert_array_equal(t.addresses, want.addresses)
        np.testing.assert_array_equal(t.is_write, want.is_write)

    def test_meta_written_after_the_loop_only_on_uncut_traces(self):
        def kernel(m):
            for i in range(100):
                m.load(i)
            m.builder.meta["done"] = True

        assert "done" not in record(kernel, "k", ref_limit=100).meta
        assert record(kernel, "k", ref_limit=101).meta["done"]


class TestStdio:
    def test_printf_emits_references(self):
        m = Recorder("t")
        m.printf(32)
        assert len(m.build()) > 0

    def test_buffer_flush_on_wrap(self):
        m = Recorder("t")
        # Fill the 4 KiB buffer: the flush re-reads it (loads appear).
        for _ in range(200):
            m.printf(32)
        t = m.build()
        assert t.is_write.sum() < len(t)  # flush loads present
        assert (~t.is_write).sum() > 200

    def test_printf_balances_stack(self):
        m = Recorder("t")
        depth = m.space.stack_depth
        m.printf()
        assert m.space.stack_depth == depth
