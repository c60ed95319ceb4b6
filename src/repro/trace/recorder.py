"""Workload recorder: the bridge between an algorithm and its trace.

A :class:`Recorder` owns an :class:`~repro.trace.memory.AddressSpace` and a
:class:`~repro.trace.event.TraceBuilder`, and exposes ``load``/``store``
verbs the workload kernels call as they execute.  The kernels therefore read
like the C programs they model::

    m = Recorder("fft", seed=1)
    data = m.space.heap_array(8, n, "data")
    ...
    x = values[i]          # real computation on Python values
    m.load(data.addr(i))   # and the memory reference it implies

A ``ref_limit`` turns long-running kernels into bounded traces: once the
limit is reached the recorder raises :class:`TraceComplete`, which
:func:`record` catches — so kernels never need their own trace-length logic.

Emission paths
--------------
Every reference can be emitted two ways, and both produce bit-identical
traces (locked by ``tests/trace/test_golden_hashes.py``):

* **scalar** — one Python call per reference (``load``/``store``); the
  reference semantics, and what every kernel did originally;
* **bulk** — thousands of references per call through the composable vector
  emitters: :meth:`Recorder.pattern_stream` (flat address array with
  per-event write flags), :meth:`Recorder.interleaved_stream` (load/store
  columns zipped row-major, e.g. the STREAM triad's ``R,R,W`` repeating
  unit), :meth:`Recorder.elem_stream` (vectorised ``load_elem`` /
  ``store_elem``) and :meth:`Recorder.strided_loop` (affine address sweeps).

All bulk emitters honour ``ref_limit`` *exactly*: a stream that crosses the
limit is truncated at the same event index where the scalar loop would have
raised, then :class:`TraceComplete` propagates — so kernels may freely mix
scalar and bulk emission and still cut bit-identically.

In bulk mode the scalar verbs are bound straight to the pending buffer
(:class:`PendingStream`), and :func:`record` flushes that buffer as soon as
it holds the room left before ``ref_limit`` — so a kernel stops at the event
where the scalar loop would have stopped, and trace generation costs what
the trace keeps, not a whole buffer more.

``Recorder.bulk`` tells a kernel whether to take its vectorised path;
``record(..., bulk=False)`` forces the scalar reference path (used by the
differential tests and the trace-generation benchmark denominators).
"""

from __future__ import annotations

import weakref
from typing import Callable, Sequence

import numpy as np

from .event import Trace, TraceBuilder
from .memory import AddressSpace, Array

__all__ = [
    "Recorder",
    "PendingStream",
    "TraceComplete",
    "record",
    "interleave_streams",
]


class TraceComplete(Exception):
    """Raised internally when the recorder hits its reference limit."""


def interleave_streams(
    *columns: "tuple[np.ndarray, np.ndarray | bool]",
) -> tuple[np.ndarray, np.ndarray]:
    """Zip equal-length reference columns row-major into one event stream.

    Each column is ``(addresses, is_write)`` where ``is_write`` is a scalar
    flag or a per-row flag array.  Row *i* of the result is column 0's event
    *i*, then column 1's event *i*, ... — the flattened order of the classic
    ``for i: load b[i]; load c[i]; store a[i]`` loop.  Returns
    ``(addresses, flags)`` ready for :meth:`Recorder.pattern_stream`.
    """
    if not columns:
        raise ValueError("interleave_streams needs at least one column")
    addrs = [np.asarray(a, dtype=np.uint64).ravel() for a, _ in columns]
    n = addrs[0].size
    if any(a.size != n for a in addrs):
        raise ValueError("interleaved columns must have equal lengths")
    k = len(columns)
    out_addr = np.empty(n * k, dtype=np.uint64)
    out_write = np.empty(n * k, dtype=bool)
    for j, (a, (_, w)) in enumerate(zip(addrs, columns)):
        out_addr[j::k] = a
        out_write[j::k] = w if np.ndim(w) == 0 else np.asarray(w, dtype=bool).ravel()
    return out_addr, out_write


class Recorder:
    """Trace-emitting memory interface handed to workload kernels."""

    def __init__(
        self,
        name: str,
        seed: int = 0,
        ref_limit: int | None = None,
        thread: int = 0,
        bulk: bool = True,
    ):
        self.name = name
        self.rng = np.random.default_rng(seed)
        self.space = AddressSpace(thread=thread)
        self.builder = TraceBuilder(name=name, meta={"seed": seed}, thread=thread)
        self.ref_limit = ref_limit
        #: Whether kernels should take their bulk-emission fast path.  Both
        #: paths emit bit-identical traces (the golden-hash contract); the
        #: flag exists so differential tests and benches can pin the scalar
        #: reference behaviour.
        self.bulk = bulk
        #: In bulk mode every scalar ``load``/``store`` is deferred into this
        #: buffer (plain-int appends) and flushed as one ``pattern_stream``
        #: whenever a bulk emitter runs, the buffer crosses its threshold, or
        #: the trace is built — so kernels can mix scalar and bulk emission
        #: freely without fragmenting the trace builder.
        self.pend: "PendingStream | None" = PendingStream(self) if bulk else None
        #: Set by :func:`record`: keep the pending threshold at the room left
        #: before ``ref_limit`` (see :meth:`_arm_pending`).
        self._flush_at_room = False
        self._stdio: "_StdioModel | None" = None
        if self.pend is not None:
            # Bulk mode: the scalar verbs reach the pending buffer's append
            # directly, without the ``_emit`` frame; the class methods below
            # stay the scalar reference path.
            load, store = self.pend.load, self.pend.store
            self.load = load
            self.store = store
            self.load_elem = lambda array, index: load(array.addr(index))
            self.store_elem = lambda array, index: store(array.addr(index))

    # -- stdio -------------------------------------------------------------------

    def printf(self, nbytes: int = 24, fmt_id: int = 0) -> None:
        """Model a formatted print (MiBench programs print constantly).

        Touches the hot stdio working set a real ``printf`` does: the format
        string (rodata), the ``FILE`` structure, and a run of stores into the
        stdout buffer; a full buffer is "flushed" (re-read for the write
        syscall).  These recurring hot lines, scattered across segments, are
        a major source of the conflict misses the paper's techniques target.
        """
        if self._stdio is None:
            self._stdio = _StdioModel(self.space)
        self._stdio.printf(self, nbytes, fmt_id)

    # -- scalar references -----------------------------------------------------------

    def load(self, address: int) -> None:
        self._emit(address, False)

    def store(self, address: int) -> None:
        self._emit(address, True)

    def _emit(self, address: int, is_write: bool) -> None:
        self.builder.append(address, is_write)
        if self.ref_limit is not None and len(self.builder) >= self.ref_limit:
            raise TraceComplete

    # -- array convenience -------------------------------------------------------------

    def load_elem(self, array: Array, index: int) -> None:
        self.load(array.addr(index))

    def store_elem(self, array: Array, index: int) -> None:
        self.store(array.addr(index))

    def load_field(self, array: Array, index: int, offset: int) -> None:
        self.load(array.field_addr(index, offset))

    def store_field(self, array: Array, index: int, offset: int) -> None:
        self.store(array.field_addr(index, offset))

    # -- bulk references ----------------------------------------------------------------

    def load_stream(self, addresses: np.ndarray) -> None:
        """Vectorised sequence of loads (bounded by the ref limit)."""
        self.pattern_stream(addresses, False)

    def store_stream(self, addresses: np.ndarray) -> None:
        self.pattern_stream(addresses, True)

    def pattern_stream(
        self, addresses: np.ndarray, is_write: "np.ndarray | bool" = False
    ) -> None:
        """Emit a flat event stream with per-event write flags.

        The bulk primitive everything else reduces to.  ``is_write`` is a
        scalar flag or a boolean array aligned with ``addresses`` — so one
        call can carry an arbitrary interleaving of loads and stores, not
        one flag per block.  Honours ``ref_limit`` exactly: if the stream
        crosses the limit it is truncated at the same event index where the
        equivalent scalar loop would have raised :class:`TraceComplete`.
        """
        if self.pend is not None and self.pend._addrs:
            self.pend.flush()
        self._stream_raw(addresses, is_write)

    def _stream_raw(
        self, addresses: np.ndarray, is_write: "np.ndarray | bool"
    ) -> None:
        """:meth:`pattern_stream` without the pending-buffer flush (the
        flush itself lands here)."""
        addresses = np.asarray(addresses, dtype=np.uint64).ravel()
        scalar_flag = np.ndim(is_write) == 0
        if not scalar_flag:
            is_write = np.asarray(is_write, dtype=bool).ravel()
            if is_write.size != addresses.size:
                raise ValueError(
                    f"per-event write flags ({is_write.size}) must match "
                    f"addresses ({addresses.size})"
                )
        if self.ref_limit is not None:
            room = self.ref_limit - len(self.builder)
            if room <= 0:
                raise TraceComplete
            if addresses.size > room:
                self.builder.extend(
                    addresses[:room],
                    is_write if scalar_flag else is_write[:room],
                )
                raise TraceComplete
        self.builder.extend(addresses, is_write)
        if self.ref_limit is not None and len(self.builder) >= self.ref_limit:
            raise TraceComplete
        if self._flush_at_room:
            self._arm_pending()

    def _arm_pending(self) -> None:
        """Flush the pending buffer as soon as it holds the room left.

        With the threshold at ``ref_limit - len(builder)`` (capped at
        :attr:`PendingStream.MAX_THRESHOLD`), the flush of the scalar event
        that reaches the limit raises :class:`TraceComplete` at that event,
        so the kernel stops where the scalar loop would have stopped instead
        of running up to a whole buffer past the cut.  Re-armed after every
        write to the builder.  Only :func:`record`, which catches
        :class:`TraceComplete`, arms it: on a bare recorder the scalar verbs
        never raise in bulk mode.
        """
        room = self.ref_limit - len(self.builder)
        self.pend.threshold = min(room, PendingStream.MAX_THRESHOLD)

    def interleaved_stream(
        self, *columns: "tuple[np.ndarray, np.ndarray | bool]"
    ) -> None:
        """Emit equal-length load/store columns zipped row-major.

        ``interleaved_stream((b, False), (c, False), (a, True))`` is the
        bulk form of ``for i: load b[i]; load c[i]; store a[i]``.
        """
        self.pattern_stream(*interleave_streams(*columns))

    def elem_stream(
        self, array: Array, indices: np.ndarray, is_write: "np.ndarray | bool" = False
    ) -> None:
        """Vectorised :meth:`load_elem`/:meth:`store_elem` over ``indices``."""
        self.pattern_stream(array.addrs(indices), is_write)

    def strided_loop(
        self,
        start: int,
        stride: int,
        count: int,
        is_write: "np.ndarray | bool" = False,
    ) -> None:
        """Affine address sweep: ``start + k*stride`` for ``k`` in ``[0, count)``.

        The bulk form of the canonical array-walk loop (negative strides
        model downward sweeps).  Flags may be per-event, so a strided
        read-modify-write pattern is one call.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        addresses = (
            np.int64(start) + np.arange(count, dtype=np.int64) * np.int64(stride)
        ).astype(np.uint64)
        self.pattern_stream(addresses, is_write)

    # -- finishing -----------------------------------------------------------------------

    def build(self) -> Trace:
        if self.pend is not None:
            try:
                self.pend.flush()
            except TraceComplete:
                pass
        return self.builder.build()


class PendingStream:
    """Buffered scalar emission: list appends now, one bulk flush later.

    The deferral mechanism behind bulk mode's scalar verbs: ``load``/
    ``store`` cost a plain-int list append instead of a trace-builder call,
    and :meth:`flush` — triggered at ``threshold``, by any bulk emitter on
    the owning recorder, or at trace build — converts the buffer to one
    :meth:`Recorder._stream_raw` call.  Append order is preserved, so the
    trace is bit-identical to emitting directly — including the
    ``ref_limit`` cut, which the stream emitter applies at flush time.
    Under :func:`record` the threshold is the room left before
    ``ref_limit`` (at most :attr:`MAX_THRESHOLD`), so the flush that
    applies the cut happens at the cut event itself.

    Kernels whose reference sequence is decided event by event (qsort's
    ``strcmp`` scans, printf's buffer runs) can also append to it directly
    via :attr:`Recorder.pend` and the batched helpers below.
    """

    __slots__ = ("_rec", "_addrs", "_write_marks", "threshold")

    #: The largest buffer a flush converts at once.
    MAX_THRESHOLD = 1 << 15

    def __init__(self, rec: Recorder, threshold: int = MAX_THRESHOLD):
        # Weak: the recorder owns this buffer, and a strong back-reference
        # would make the pair a cycle that keeps the builder's chunks alive
        # until a full garbage collection, long after ``record`` returned.
        self._rec = weakref.ref(rec)
        self.threshold = threshold
        self._addrs: list[int] = []
        self._write_marks: list[int] = []

    def __len__(self) -> int:
        return len(self._addrs)

    def load(self, address: int) -> None:
        addrs = self._addrs
        addrs.append(address)
        if len(addrs) >= self.threshold:
            self.flush()

    def store(self, address: int) -> None:
        addrs = self._addrs
        self._write_marks.append(len(addrs))
        addrs.append(address)
        if len(addrs) >= self.threshold:
            self.flush()

    def loads(self, addresses: "Sequence[int]") -> None:
        """Append a pre-built run of load addresses (one ``extend``)."""
        addrs = self._addrs
        addrs.extend(addresses)
        if len(addrs) >= self.threshold:
            self.flush()

    def stores(self, addresses: "Sequence[int]") -> None:
        """Append a pre-built run of store addresses."""
        addrs = self._addrs
        base = len(addrs)
        addrs.extend(addresses)
        self._write_marks.extend(range(base, len(addrs)))
        if len(addrs) >= self.threshold:
            self.flush()

    def events(
        self, addresses: "Sequence[int]", write_marks: "Sequence[int]"
    ) -> None:
        """Append a mixed run; ``write_marks`` are store positions relative
        to the start of ``addresses``."""
        addrs = self._addrs
        base = len(addrs)
        addrs.extend(addresses)
        if write_marks:
            wm = self._write_marks
            for k in write_marks:
                wm.append(base + k)
        if len(addrs) >= self.threshold:
            self.flush()

    def flush(self) -> None:
        if not self._addrs:
            return
        addresses = np.array(self._addrs, dtype=np.uint64)
        if self._write_marks:
            flags: "np.ndarray | bool" = np.zeros(addresses.size, dtype=bool)
            flags[self._write_marks] = True
        else:
            flags = False
        self._addrs = []
        self._write_marks = []
        self._rec()._stream_raw(addresses, flags)


class _StdioModel:
    """Hot stdio state: FILE struct, stdout buffer, format-string pool.

    ``printf`` has two emission paths producing identical event streams: the
    scalar loop (the original reference behaviour), and a deferred path for
    bulk mode.  A call's *entire* event block — fmt/FILE loads, the
    conversion-buffer ping-pong, the buffer stores (plus any flush
    re-read) and the FILE update — is a pure function of the stack
    pointer, the format index, the buffer position and the byte count, so
    the bulk path memoizes whole blocks on that key and replays each call
    as a single batched append to the recorder's pending buffer.
    """

    BUF_BYTES = 4096

    def __init__(self, space: AddressSpace):
        self.file_struct = space.static_array(8, 16, "_IO_FILE")  # 128 B
        self.fmt_pool = space.static_array(32, 16, "fmt_strings")  # 512 B rodata
        self.buf = space.heap_array(1, self.BUF_BYTES, "stdout_buf")
        self.pos = 0
        #: (stack_ptr, fmt_idx, pos, nbytes) -> whole-call event block as
        #: (addresses, store positions, buffer position after the call).
        self._blocks: dict[
            tuple[int, int, int, int], tuple[list[int], tuple[int, ...], int]
        ] = {}
        #: write(2) re-reads the buffer at line granularity on flush.
        self._flush_loads = [self.buf.base + b for b in range(0, self.BUF_BYTES, 32)]

    def printf(self, m: "Recorder", nbytes: int, fmt_id: int) -> None:
        if m.pend is not None:
            self._printf_pend(m, m.pend, nbytes, fmt_id)
            return
        m.load_elem(self.fmt_pool, fmt_id % self.fmt_pool.length)
        m.load_elem(self.file_struct, 0)  # flags / write pointer
        m.load_elem(self.file_struct, 3)
        # vfprintf's own frame: a real printf burns ~0.5 KiB of stack for
        # format state and a conversion work buffer, re-touched every call.
        frame = m.space.push_frame(640)
        work = frame.local_array("work", 8, 64)
        for i in range(0, 64, 8):
            m.store_elem(work, i)
            m.load_elem(work, i)
        for off in range(0, nbytes, 8):
            if self.pos >= self.BUF_BYTES:
                # Flush: the write(2) path reads the buffer back out.
                for b in range(0, self.BUF_BYTES, 32):
                    m.load(self.buf.addr(b))
                self.pos = 0
            m.store(self.buf.addr(self.pos))
            self.pos += 8
        m.space.pop_frame()
        m.store_elem(self.file_struct, 0)  # update the write pointer

    def _printf_pend(
        self, m: "Recorder", pend: "PendingStream", nbytes: int, fmt_id: int
    ) -> None:
        """Deferred ``printf``: identical event stream, one batched append.

        The vfprintf frame the scalar path pushes sits at a base fully
        determined by the current stack pointer, and the frame is popped
        before the tail FILE store — pushing it for real has no observable
        effect beyond the addresses it implies, so the bulk path computes
        those addresses directly and leaves the stack untouched.
        """
        fmt_idx = fmt_id % self.fmt_pool.length
        key = (m.space.stack_ptr, fmt_idx, self.pos, nbytes)
        block = self._blocks.get(key)
        if block is None:
            block = self._build_block(*key)
            self._blocks[key] = block
        addrs, marks, pos_after = block
        pend.events(addrs, marks)
        self.pos = pos_after

    def _build_block(
        self, stack_ptr: int, fmt_idx: int, pos: int, nbytes: int
    ) -> tuple[list[int], tuple[int, ...], int]:
        """Replay the scalar ``printf`` loop symbolically into one block."""
        # push_frame(640): 640 is already 16-aligned; the work array is the
        # frame's first (and only) allocation, so it starts at frame.base.
        work_base = stack_ptr - 640
        file0 = self.file_struct.addr(0)
        addrs = [self.fmt_pool.addr(fmt_idx), file0, self.file_struct.addr(3)]
        for i in range(0, 64, 8):
            a = work_base + 8 * i
            addrs.append(a)  # conversion-buffer store ...
            addrs.append(a)  # ... and re-load
        marks = list(range(3, 19, 2))
        buf_base = self.buf.base
        for _ in range(0, nbytes, 8):
            if pos >= self.BUF_BYTES:
                addrs.extend(self._flush_loads)
                pos = 0
            marks.append(len(addrs))
            addrs.append(buf_base + pos)
            pos += 8
        marks.append(len(addrs))
        addrs.append(file0)  # update the write pointer
        return addrs, tuple(marks), pos


def record(
    kernel: Callable[[Recorder], None],
    name: str,
    seed: int = 0,
    ref_limit: int | None = None,
    thread: int = 0,
    meta: dict | None = None,
    bulk: bool = True,
) -> Trace:
    """Run ``kernel(recorder)`` to completion or to the reference limit.

    The builder itself bounds the trace at ``ref_limit`` (every emission
    path truncates exactly and raises :class:`TraceComplete`), and stamps
    thread ids at build time — no post-hoc ``head()`` re-slice or
    whole-trace thread rebuild.  In bulk mode the pending buffer flushes at
    the room left before ``ref_limit``, so the kernel stops at the cut
    event on either path.  A cut trace therefore never carries meta the
    kernel writes after its loop; only a trace that ends under the limit
    does.
    """
    rec = Recorder(name, seed=seed, ref_limit=ref_limit, thread=thread, bulk=bulk)
    if meta:
        rec.builder.meta.update(meta)
    if ref_limit is not None and rec.pend is not None:
        rec._flush_at_room = True
        rec._arm_pending()
    try:
        kernel(rec)
    except TraceComplete:
        pass
    trace = rec.build()
    assert ref_limit is None or len(trace) <= ref_limit, (
        "TraceBuilder must bound the trace at ref_limit"
    )
    return trace
