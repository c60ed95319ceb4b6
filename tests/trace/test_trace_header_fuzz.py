"""Robustness of the raw trace header (``.rtr``).

A damaged header — truncated anywhere, one byte flipped in the magic, the
length field or the JSON header, a length past the cap — must raise
:class:`ValueError` from :func:`load_raw`, never load a different trace,
and :class:`TraceCache` must heal it into a byte-identical file.

One known limit: a flip inside the *value* of ``name``, ``meta`` or
``digest`` that still parses leaves the header self-consistent, because
those values are what the layout is rebuilt from.  Such a load reads the
right sections (the arrays are checked equal here); catching the changed
value itself would take a header checksum, which is a format change.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.trace import Trace, TraceCache, load_raw, save_raw, zipf_trace
from repro.trace.io import _MAX_HEADER, RAW_MAGIC, RAW_SUFFIX

_PREFIX = len(RAW_MAGIC) + 8


def _reference() -> Trace:
    base = zipf_trace(3000, seed=17)
    writes = np.arange(3000) % 7 == 0
    return Trace(
        base.addresses, writes, np.zeros(3000, dtype=np.int16),
        name="fuzzed", meta={"seed": 17, "kind": "zipf"},
    )


@pytest.fixture(scope="module")
def blob(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("ref") / f"t{RAW_SUFFIX}"
    return save_raw(_reference(), path).read_bytes()


def _header_end(blob: bytes) -> int:
    return _PREFIX + int.from_bytes(blob[len(RAW_MAGIC) : _PREFIX], "little")


def _value_spans(blob: bytes) -> list[range]:
    """Byte ranges of the ``name``, ``meta`` and ``digest`` values."""
    header = json.loads(blob[_PREFIX : _header_end(blob)])
    spans = []
    for key in ("name", "meta", "digest"):
        needle = f'"{key}": {json.dumps(header[key], sort_keys=True)}'.encode()
        start = blob.index(needle, _PREFIX) + len(key) + 4
        spans.append(range(start, start + len(needle) - len(key) - 4))
    return spans


def _flipped(blob: bytes, offset: int, mask: int) -> bytes:
    out = bytearray(blob)
    out[offset] ^= mask
    return bytes(out)


def _same_arrays(a: Trace, b: Trace) -> bool:
    return all(
        np.array_equal(getattr(a, f), getattr(b, f)) and getattr(a, f).dtype == getattr(b, f).dtype
        for f in ("addresses", "is_write", "thread")
    )


def _load(tmp_path, data: bytes) -> Trace:
    path = tmp_path / f"t{RAW_SUFFIX}"
    path.write_bytes(data)
    return load_raw(path)


def test_pristine_file_loads(tmp_path, blob):
    got = _load(tmp_path, blob)
    ref = _reference()
    assert _same_arrays(got, ref)
    assert (got.name, got.meta) == (ref.name, ref.meta)


def test_truncation_at_every_header_offset(tmp_path, blob):
    for cut in range(_header_end(blob) + 1):
        with pytest.raises(ValueError):
            _load(tmp_path, blob[:cut])


def test_truncation_in_the_sections(tmp_path, blob):
    for cut in np.linspace(_header_end(blob) + 1, len(blob) - 1, 32).astype(int):
        with pytest.raises(ValueError):
            _load(tmp_path, blob[:cut])


@pytest.mark.parametrize("mask", [0xFF, 0x01])
@pytest.mark.parametrize("region", ["magic", "length"])
def test_single_byte_flip_in_the_prefix(tmp_path, blob, region, mask):
    span = range(len(RAW_MAGIC)) if region == "magic" else range(len(RAW_MAGIC), _PREFIX)
    for offset in span:
        with pytest.raises(ValueError):
            _load(tmp_path, _flipped(blob, offset, mask))


@pytest.mark.parametrize("mask", [0xFF, 0x01])
def test_single_byte_flip_in_the_header(tmp_path, blob, mask):
    """Outside the name/meta/digest values every flip is refused —
    section offsets included, which used to load the wrong bytes.  Inside
    them a flip that still parses loads the right sections."""
    values = _value_spans(blob)
    ref = _reference()
    refused = 0
    for offset in range(_PREFIX, _header_end(blob)):
        data = _flipped(blob, offset, mask)
        if any(offset in span for span in values):
            try:
                got = _load(tmp_path, data)
            except ValueError:
                refused += 1
            else:
                assert _same_arrays(got, ref), offset
        else:
            with pytest.raises(ValueError):
                _load(tmp_path, data)
            refused += 1
    assert refused >= 0.7 * (_header_end(blob) - _PREFIX)


def test_a_flipped_section_offset_is_refused(tmp_path, blob):
    """The fault this check exists for: ``"offset": 4096`` read as 4097 —
    also right after the intact header passed (checked headers are
    remembered by their bytes)."""
    needle = b'"offset": 4096'
    offset = blob.index(needle) + len(needle) - 1
    for _ in range(2):
        _load(tmp_path, blob)
        with pytest.raises(ValueError, match="differs from its layout"):
            _load(tmp_path, _flipped(blob, offset, 0x01))


@pytest.mark.parametrize("length", [_MAX_HEADER + 1, 2**64 - 1])
def test_length_field_above_the_cap(tmp_path, blob, length):
    doctored = blob[: len(RAW_MAGIC)] + length.to_bytes(8, "little") + blob[_PREFIX:]
    with pytest.raises(ValueError, match="implausible"):
        _load(tmp_path, doctored)


@pytest.mark.parametrize(
    "damage",
    [
        lambda b: b[: _header_end(b) // 2],
        lambda b: _flipped(b, 0, 0xFF),
        lambda b: _flipped(b, b.index(b'"offset": 4096') + 13, 0x01),
        lambda b: _flipped(b, b.index(b'"size": ') + 8, 0x01),
    ],
    ids=["truncated", "magic", "section-offset", "size"],
)
def test_trace_cache_heals_to_a_byte_identical_file(tmp_path, blob, damage):
    cache = TraceCache(tmp_path)
    calls = []

    def generate() -> Trace:
        calls.append(1)
        return _reference()

    cache.get_or_create("k", generate)
    path = cache.path_for("k")
    assert path.read_bytes() == blob
    path.write_bytes(damage(blob))
    healed = cache.get_or_create("k", generate)
    assert len(calls) == 2, "a damaged entry must be regenerated"
    assert _same_arrays(healed, _reference())
    assert path.read_bytes() == blob
