"""Property-based tests for the bulk emission layer.

The golden hashes lock the eight rewritten kernels end to end; these
Hypothesis properties lock the *emitters themselves* over arbitrary
programs, so a regression in truncation, flag alignment or buffering is
caught at the primitive with a shrunken counterexample:

* **bulk ≡ scalar** — any interleaving of scalar verbs and bulk emitters
  produces the trace the equivalent scalar loop produces, for any
  ``ref_limit`` (including limits landing mid-stream and mid-buffer);
* **exact cut points** — a limited trace is exactly the unlimited trace's
  prefix, of length ``min(total, ref_limit)``;
* **threshold invariance** — the pending buffer's flush chunking (any
  threshold ≥ 1) never shows up in the trace;
* **flush at the room left** — under :func:`record`, which flushes the
  pending buffer at the room left before ``ref_limit`` (for any cap on
  that room), the trace is still the scalar loop's, and the program stops
  inside the op that reaches the limit;
* **row-major zip** — ``interleave_streams`` is the flattened classic loop.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.trace.recorder import (
    PendingStream,
    Recorder,
    TraceComplete,
    interleave_streams,
    record,
)

# -- op-program strategy ---------------------------------------------------------------

_addr = st.integers(min_value=0, max_value=(1 << 40) - 1)
_flag = st.booleans()

_scalar_op = st.tuples(st.just("scalar"), _addr, _flag)
_pattern_op = st.tuples(
    st.just("pattern"),
    st.lists(st.tuples(_addr, _flag), min_size=0, max_size=40),
)
_strided_op = st.tuples(
    st.just("strided"),
    _addr,
    st.integers(min_value=-512, max_value=512),
    st.integers(min_value=0, max_value=40),
    _flag,
)
_program = st.lists(st.one_of(_scalar_op, _pattern_op, _strided_op), max_size=12)


def _events(op) -> list[tuple[int, bool]]:
    """The ``(address, is_write)`` events of one op, in emission order."""
    kind = op[0]
    if kind == "scalar":
        return [op[1:]]
    if kind == "pattern":
        return op[1]
    if kind == "strided":
        _, start, stride, count, w = op
        return [((start + k * stride) % (1 << 64), w) for k in range(count)]
    raise AssertionError(kind)  # pragma: no cover - defensive


def _apply(rec: Recorder, op, bulk: bool) -> None:
    """Run one op through the bulk API or its scalar reference loop."""
    kind = op[0]
    if bulk and kind == "pattern":
        events = op[1]
        addrs = np.array([a for a, _ in events], dtype=np.uint64)
        flags = np.array([w for _, w in events], dtype=bool)
        rec.pattern_stream(addrs, flags)
    elif bulk and kind == "strided":
        _, start, stride, count, w = op
        rec.strided_loop(start, stride, count, w)
    else:
        for a, w in _events(op):
            (rec.store if w else rec.load)(a)


def _run(program, ref_limit, *, bulk: bool, threshold: int | None = None):
    rec = Recorder("prop", ref_limit=ref_limit, bulk=bulk)
    if threshold is not None and rec.pend is not None:
        rec.pend.threshold = threshold
    try:
        for op in program:
            _apply(rec, op, bulk)
    except TraceComplete:
        pass
    return rec.build()


def _record(program, ref_limit):
    """``program`` — ``(op, as_bulk)`` pairs — in bulk mode under
    :func:`record`, each op through a bulk emitter or as scalar verbs.

    Also returns the size of every call the kernel started, so the last
    entry is the call the cut stopped.
    """
    started: list[int] = []

    def kernel(rec):
        for op, as_bulk in program:
            if as_bulk:
                started.append(len(_events(op)))
                _apply(rec, op, True)
            else:
                for a, w in _events(op):
                    started.append(1)
                    (rec.store if w else rec.load)(a)

    return record(kernel, "prop", ref_limit=ref_limit), started


def _assert_traces_equal(a, b):
    np.testing.assert_array_equal(a.addresses, b.addresses)
    np.testing.assert_array_equal(a.is_write, b.is_write)


# -- properties ------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(program=_program, ref_limit=st.one_of(st.none(), st.integers(1, 80)))
def test_bulk_equals_scalar(program, ref_limit):
    _assert_traces_equal(
        _run(program, ref_limit, bulk=True), _run(program, ref_limit, bulk=False)
    )


@settings(max_examples=80, deadline=None)
@given(program=_program, ref_limit=st.integers(1, 80))
def test_limited_trace_is_prefix_of_unlimited(program, ref_limit):
    full = _run(program, None, bulk=True)
    cut = _run(program, ref_limit, bulk=True)
    want = min(len(full), ref_limit)
    assert len(cut) == want
    np.testing.assert_array_equal(cut.addresses, full.addresses[:want])
    np.testing.assert_array_equal(cut.is_write, full.is_write[:want])


@settings(max_examples=80, deadline=None)
@given(
    program=_program,
    ref_limit=st.one_of(st.none(), st.integers(1, 80)),
    threshold=st.integers(min_value=1, max_value=16),
)
def test_pending_threshold_is_invisible(program, ref_limit, threshold):
    # Flush chunk boundaries (including flushes forced mid-op by tiny
    # thresholds) must never change the emitted trace.
    _assert_traces_equal(
        _run(program, ref_limit, bulk=True, threshold=threshold),
        _run(program, ref_limit, bulk=True),
    )


@settings(max_examples=80, deadline=None)
@given(
    program=st.lists(
        st.tuples(st.one_of(_scalar_op, _pattern_op, _strided_op), st.booleans()),
        max_size=12,
    ),
    ref_limit=st.one_of(st.none(), st.integers(1, 80)),
    cap=st.integers(min_value=1, max_value=16),
)
# A bulk write shrinks the room: the threshold must follow it down.
@example(
    program=[(("pattern", [(0, False)] * 3), True), (("strided", 64, 8, 4, False), False)],
    ref_limit=5,
    cap=16,
)
def test_record_flushes_at_the_room_left(program, ref_limit, cap):
    # record() keeps the threshold at min(room left, cap): the trace is the
    # scalar loop's, and the kernel starts no call past the one reaching
    # the cut.
    with mock.patch.object(PendingStream, "MAX_THRESHOLD", cap):
        cut, started = _record(program, ref_limit)
    ops = [op for op, _ in program]
    _assert_traces_equal(cut, _run(ops, ref_limit, bulk=False))
    total = sum(started)
    if ref_limit is not None and total >= ref_limit:
        assert total - started[-1] < ref_limit <= total
    else:
        assert total == sum(len(_events(op)) for op in ops)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(0, 20),
    cols=st.integers(1, 4),
    data=st.data(),
)
def test_interleave_streams_is_row_major(rows, cols, data):
    columns = []
    for _ in range(cols):
        addrs = np.array(
            data.draw(st.lists(_addr, min_size=rows, max_size=rows)), dtype=np.uint64
        )
        per_row = data.draw(st.booleans())
        if per_row:
            flags = np.array(
                data.draw(st.lists(_flag, min_size=rows, max_size=rows)), dtype=bool
            )
        else:
            flags = data.draw(_flag)
        columns.append((addrs, flags))
    out_a, out_w = interleave_streams(*columns)
    assert out_a.size == out_w.size == rows * cols
    for i in range(rows):
        for j, (a, w) in enumerate(columns):
            assert out_a[i * cols + j] == a[i]
            want = w if np.ndim(w) == 0 else w[i]
            assert out_w[i * cols + j] == want


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(0, 12),
    ref_limit=st.one_of(st.none(), st.integers(1, 40)),
    data=st.data(),
)
def test_interleaved_stream_equals_scalar_loop(rows, ref_limit, data):
    a = np.array(data.draw(st.lists(_addr, min_size=rows, max_size=rows)), np.uint64)
    b = np.array(data.draw(st.lists(_addr, min_size=rows, max_size=rows)), np.uint64)
    c = np.array(data.draw(st.lists(_addr, min_size=rows, max_size=rows)), np.uint64)

    bulk = Recorder("prop", ref_limit=ref_limit, bulk=True)
    try:
        bulk.interleaved_stream((b, False), (c, False), (a, True))
    except TraceComplete:
        pass
    ref = Recorder("prop", ref_limit=ref_limit, bulk=False)
    try:
        for i in range(rows):  # the STREAM-triad reference loop
            ref.load(b[i])
            ref.load(c[i])
            ref.store(a[i])
    except TraceComplete:
        pass
    _assert_traces_equal(bulk.build(), ref.build())


def test_pattern_stream_rejects_misaligned_flags():
    rec = Recorder("prop", bulk=True)
    import pytest

    with pytest.raises(ValueError):
        rec.pattern_stream(np.arange(4, dtype=np.uint64), np.zeros(3, dtype=bool))


def test_strided_loop_rejects_negative_count():
    import pytest

    with pytest.raises(ValueError):
        Recorder("prop", bulk=True).strided_loop(0, 8, -1)
