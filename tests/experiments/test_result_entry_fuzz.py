"""Robustness of the raw result-entry decoder.

A damaged entry — truncated anywhere, one byte flipped, a length field past
the cap, trailing bytes, an empty file — must read as a miss and be
unlinked: ``load`` never raises and never returns a result that differs
from the stored one.  A path ``load`` cannot read (a directory, a file it
may not open) is a transient miss that keeps the entry.

One allowance, in the compressed body only: the per-set counts are small
int64 values, mostly zero bytes, so a flipped deflate back-reference can
point at another identical run and decode to the very same payload.  The
SHA-256 checksum then proves the content intact, and returning it is right.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.simulator import SimulationResult
import repro.experiments.engine.cache as cache_mod
from repro.experiments.engine import ResultCache
from repro.experiments.engine.cache import _MAX_HEADER, ENTRY_MAGIC

KEY = "e" * 64
_PREFIX = len(ENTRY_MAGIC) + 4
_ARRAYS = ("slot_accesses", "slot_hits", "slot_misses")


def _reference() -> SimulationResult:
    """A paper-geometry-sized result (1024 sets) with realistic counts."""
    rng = np.random.default_rng(2011)
    accesses = rng.poisson(60, 1024).astype(np.int64)
    hits = (accesses * rng.uniform(0.5, 1.0, 1024)).astype(np.int64)
    return SimulationResult(
        model="direct-mapped",
        trace_name="crc",
        accesses=int(accesses.sum()),
        hits=int(hits.sum()),
        misses=int((accesses - hits).sum()),
        lookup_cycles=int(accesses.sum()),
        slot_accesses=accesses,
        slot_hits=hits,
        slot_misses=accesses - hits,
        extra={"swaps": 3},
    )


def _same(a: SimulationResult, b: SimulationResult) -> bool:
    scalars = ("model", "trace_name", "accesses", "hits", "misses", "lookup_cycles")
    return (
        all(getattr(a, f) == getattr(b, f) for f in scalars)
        and a.extra == b.extra
        and all(np.array_equal(getattr(a, f), getattr(b, f)) for f in _ARRAYS)
    )


@pytest.fixture
def entry(tmp_path) -> tuple[ResultCache, bytes]:
    cache = ResultCache(tmp_path)
    return cache, cache.store(KEY, _reference()).read_bytes()


def _header_end(blob: bytes) -> int:
    return _PREFIX + int.from_bytes(blob[len(ENTRY_MAGIC) : _PREFIX], "little")


def _load(cache: ResultCache, blob: bytes) -> SimulationResult | None:
    cache.path_for(KEY).write_bytes(blob)
    return cache.load(KEY)


def _assert_rejected(cache: ResultCache, blob: bytes) -> None:
    assert _load(cache, blob) is None
    assert not cache.path_for(KEY).exists(), "a corrupt entry must be unlinked"


def _flipped(blob: bytes, offset: int, mask: int) -> bytes:
    out = bytearray(blob)
    out[offset] ^= mask
    return bytes(out)


def test_pristine_entry_round_trips(entry):
    cache, blob = entry
    for _ in range(2):
        got = cache.load(KEY)
        assert got is not None and _same(got, _reference())
    for field in _ARRAYS:
        assert getattr(got, field).dtype == np.int64
        assert getattr(got, field).flags.writeable


def test_truncation_at_every_header_offset(entry):
    cache, blob = entry
    for cut in range(_header_end(blob) + 1):
        _assert_rejected(cache, blob[:cut])


def test_truncation_in_the_body(entry):
    cache, blob = entry
    cuts = np.unique(np.linspace(_header_end(blob) + 1, len(blob) - 1, 64).astype(int))
    for cut in cuts:
        _assert_rejected(cache, blob[:cut])


@pytest.mark.parametrize("mask", [0xFF, 0x01])
@pytest.mark.parametrize("region", ["magic", "length", "header"])
def test_single_byte_flip_before_the_body(entry, region, mask):
    cache, blob = entry
    span = {
        "magic": range(len(ENTRY_MAGIC)),
        "length": range(len(ENTRY_MAGIC), _PREFIX),
        "header": range(_PREFIX, _header_end(blob)),
    }[region]
    for offset in span:
        _assert_rejected(cache, _flipped(blob, offset, mask))


@pytest.mark.parametrize("mask", [0xFF, 0x01])
def test_single_byte_flip_in_the_body(entry, mask):
    cache, blob = entry
    rejected = 0
    for offset in range(_header_end(blob), len(blob)):
        got = _load(cache, _flipped(blob, offset, mask))
        if got is None:
            assert not cache.path_for(KEY).exists()
            rejected += 1
        else:
            # Decoded to the identical payload (see module docstring).
            assert _same(got, _reference())
    # The allowance is the exception: a load that ignored the file's bytes
    # (say, a memo keyed by ``key``) would pass every check above.
    assert rejected >= 0.9 * (len(blob) - _header_end(blob))


@pytest.mark.parametrize("length", [_MAX_HEADER + 1, 2**32 - 1])
def test_length_field_above_the_cap(entry, length):
    cache, blob = entry
    doctored = blob[: len(ENTRY_MAGIC)] + length.to_bytes(4, "little") + blob[_PREFIX:]
    _assert_rejected(cache, doctored)


@pytest.mark.parametrize("tail", [b"\0", b"x" * 100], ids=["one-zero", "hundred"])
def test_trailing_bytes(entry, tail):
    cache, blob = entry
    _assert_rejected(cache, blob + tail)


def test_a_second_entry_appended(entry):
    cache, blob = entry
    _assert_rejected(cache, blob + blob)


def test_empty_file(entry):
    cache, _ = entry
    _assert_rejected(cache, b"")


class TestUnreadableEntryIsKept:
    def test_directory_at_the_entry_path(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for(KEY).mkdir()
        assert cache.load(KEY) is None
        assert cache.path_for(KEY).is_dir()

    def test_directory_at_the_legacy_path(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache._npz_path(KEY).mkdir()
        assert cache.load(KEY) is None
        assert cache._npz_path(KEY).is_dir()

    def test_unreadable_file(self, entry, monkeypatch):
        cache, blob = entry

        def denied(*args, **kwargs):
            raise PermissionError("synthetic EACCES")

        monkeypatch.setattr(cache_mod.Path, "read_bytes", denied)
        assert cache.load(KEY) is None
        monkeypatch.undo()
        assert cache.path_for(KEY).read_bytes() == blob


def test_garbage_legacy_entry_is_unlinked(tmp_path):
    cache = ResultCache(tmp_path)
    cache._npz_path(KEY).write_bytes(b"PK\x03\x04 not really a zip")
    assert cache.load(KEY) is None
    assert not cache._npz_path(KEY).exists()
