"""Content-addressed on-disk cache of per-cell simulation results.

Lives alongside the :class:`~repro.trace.io.TraceCache` (by default in a
``results/`` subdirectory of the trace-cache root).  Keys are SHA-256
digests over everything that determines a cell's outcome:

* the **trace fingerprint** — a digest of the actual address/write/thread
  arrays, so regenerating a workload with different knobs can never alias;
* the **cache geometry** (capacity, line size, ways, address bits);
* the cell's **kind / label / parameter** tuple (scheme parameters,
  adaptive-table fractions, B-cache operating point, ...);
* the **effective associativity and replacement policy** of the simulated
  structure (``setassoc``/``bounds`` cells override the geometry's ``ways``);
* the profiling-trace fingerprint for trainable schemes; and
* :data:`ENGINE_VERSION`, bumped whenever simulation semantics change.

Entries are single raw ``.rres`` files written atomically (tmp +
``os.replace``): an 8-byte magic, a little-endian u32 header length, a
JSON header holding the entry's metadata (scalar counters, model and
trace names, ``extra`` counters, :data:`ENGINE_VERSION` and a SHA-256
payload checksum), then one zlib body holding the three per-set count
arrays as ``<i8`` in :data:`_ARRAY_FIELDS` order.  ``load`` is one read,
one decompress and one ``frombuffer``; it verifies the checksum and every
structural invariant, and a corrupted, truncated or stale-version entry is
deleted and reported as a miss, never trusted.

Earlier releases wrote ``.npz`` entries.  A raw miss with an ``.npz``
sibling decodes it once with the old reader and old checks, republishes it
as raw and only then unlinks the npz, so a warm store survives the
upgrade with the same keys and checksums.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zlib
from pathlib import Path

import numpy as np

from ...core.address import CacheGeometry
from ...core.simulator import SimulationResult
from ...trace.event import Trace

__all__ = [
    "ENGINE_VERSION",
    "ENTRY_MAGIC",
    "ENTRY_SUFFIX",
    "ResultCache",
    "trace_fingerprint",
    "cell_key",
]

#: Bump to invalidate every cached cell result (simulation semantics change).
#: v2: k-way cells exist and keys carry the effective ways/policy pair.
#: v3: keys carry every outcome-changing model parameter (colassoc
#: ``protect_conventional`` in particular) — older keys under-specified the
#: column-associative cells, so they are all invalidated.
ENGINE_VERSION = 3

_ARRAY_FIELDS = ("slot_accesses", "slot_hits", "slot_misses")
_SCALAR_FIELDS = ("accesses", "hits", "misses", "lookup_cycles")

#: First 8 bytes of every raw result entry (format version in the magic).
ENTRY_MAGIC = b"RRESLT1\n"
ENTRY_SUFFIX = ".rres"
_LEGACY_SUFFIX = ".npz"
_LEN_BYTES = 4

#: The header must decode before anything else is trusted; cap its size so
#: a corrupt length field cannot trigger a huge read.
_MAX_HEADER = 1 << 20


def trace_fingerprint(trace: Trace) -> str:
    """Content digest of a trace (addresses, writes, threads — not the name)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(trace.addresses).tobytes())
    h.update(np.ascontiguousarray(trace.is_write).tobytes())
    h.update(np.ascontiguousarray(trace.thread).tobytes())
    return h.hexdigest()


def cell_key(
    kind: str,
    label: str,
    params: tuple,
    geometry: CacheGeometry,
    trace_fp: str,
    profile_fp: str | None = None,
    ways: int | None = None,
    policy: str = "lru",
) -> str:
    """Deterministic content-addressed key for one cell.

    ``ways``/``policy`` describe the *simulated structure* (``None`` means
    the geometry's own associativity): a 4-way LRU cell and a 4-way FIFO
    cell over the same trace/geometry must never alias.
    """
    doc = {
        "engine_version": ENGINE_VERSION,
        "kind": kind,
        "label": label,
        "params": [[str(k), repr(v)] for k, v in params],
        "geometry": [
            geometry.capacity_bytes,
            geometry.line_bytes,
            geometry.ways,
            geometry.address_bits,
        ],
        "ways": geometry.ways if ways is None else int(ways),
        "policy": policy,
        "trace": trace_fp,
        "profile": profile_fp,
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _payload_checksum(meta: dict, arrays: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(meta, sort_keys=True).encode())
    for name in _ARRAY_FIELDS:
        h.update(np.ascontiguousarray(arrays[name]))
    return h.hexdigest()


def _encode_entry(meta: dict, arrays: dict[str, np.ndarray]) -> bytes:
    header = json.dumps(meta).encode()
    body = zlib.compress(
        b"".join(
            np.ascontiguousarray(arrays[name], dtype="<i8").tobytes()
            for name in _ARRAY_FIELDS
        ),
        1,
    )
    return ENTRY_MAGIC + len(header).to_bytes(_LEN_BYTES, "little") + header + body


def _decode_entry(blob: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """``(meta, arrays)`` of a raw entry; :class:`ValueError` if undecodable.

    Only decodes: the checksum and version checks are the caller's.
    """
    prefix = len(ENTRY_MAGIC) + _LEN_BYTES
    if len(blob) < prefix or blob[: len(ENTRY_MAGIC)] != ENTRY_MAGIC:
        raise ValueError("not a raw result entry")
    hlen = int.from_bytes(blob[len(ENTRY_MAGIC) : prefix], "little")
    if not 0 < hlen <= _MAX_HEADER:
        raise ValueError(f"implausible header length {hlen}")
    if len(blob) < prefix + hlen:
        raise ValueError("truncated header")
    meta = json.loads(blob[prefix : prefix + hlen])
    if not isinstance(meta, dict):
        raise ValueError("header is not a JSON object")
    inflater = zlib.decompressobj()
    try:
        payload = inflater.decompress(blob[prefix + hlen :])
    except zlib.error as exc:
        raise ValueError(f"undecodable body: {exc}") from exc
    # zlib ignores bytes past the end of its stream; a torn or padded file
    # must not pass as intact.
    if not inflater.eof or inflater.unused_data:
        raise ValueError("truncated body or trailing bytes")
    if len(payload) % (8 * len(_ARRAY_FIELDS)):
        raise ValueError("body is not three equal int64 arrays")
    flat = np.frombuffer(payload, dtype="<i8").astype(np.int64)
    rows = flat.reshape(len(_ARRAY_FIELDS), -1)
    return meta, dict(zip(_ARRAY_FIELDS, rows))


def _read_npz(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Decode a legacy ``.npz`` entry; kept only to migrate old stores."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        arrays = {name: data[name].copy() for name in _ARRAY_FIELDS}
    return meta, arrays


class ResultCache:
    """On-disk memo of :class:`SimulationResult` keyed by content digest."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}{ENTRY_SUFFIX}"

    def _npz_path(self, key: str) -> Path:
        return self.root / f"{key}{_LEGACY_SUFFIX}"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists() or self._npz_path(key).exists()

    def __len__(self) -> int:
        return len(self.keys())

    def size_bytes(self) -> int:
        return sum(p.stat().st_size for p in self._files())

    def stats(self) -> dict[str, int]:
        """Entry counts per format; a key with both files counts as raw."""
        files = self._files()
        raw = {p.stem for p in files if p.suffix == ENTRY_SUFFIX}
        npz = {p.stem for p in files} - raw
        return {"raw_entries": len(raw), "npz_entries": len(npz)}

    # -- store / load -------------------------------------------------------------

    def store(self, key: str, result: SimulationResult) -> Path:
        meta = {
            "engine_version": ENGINE_VERSION,
            "model": result.model,
            "trace_name": result.trace_name,
            # Sorted: kernels and the per-access loop add the classes in
            # different orders, and an entry's bytes must not depend on it.
            "extra": {k: int(v) for k, v in sorted(result.extra.items())},
        }
        for name in _SCALAR_FIELDS:
            meta[name] = int(getattr(result, name))
        arrays = {
            name: np.ascontiguousarray(getattr(result, name), dtype=np.int64)
            for name in _ARRAY_FIELDS
        }
        meta["checksum"] = _payload_checksum(
            {k: v for k, v in meta.items() if k != "checksum"}, arrays
        )
        blob = _encode_entry(meta, arrays)
        path = self.path_for(key)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    def load(self, key: str) -> SimulationResult | None:
        """Verified load; *verified* corruption/staleness deletes the entry → miss.

        A transient I/O failure (``OSError`` while opening/reading — e.g. a
        concurrent reader racing a writer on a shared filesystem, or a
        momentary NFS hiccup) is reported as a miss but **never** deletes
        the entry: the file may be perfectly good, and unlinking it would
        throw away a warm result every other node could still use.  Only
        failures that prove the decoded *content* is wrong (bad magic or
        length, undecodable header or body, trailing bytes, checksum
        mismatch, stale engine version, inconsistent shapes) unlink.

        A missing raw entry with a legacy ``.npz`` sibling is migrated:
        decoded and verified as before, written back as raw, and the npz
        unlinked only once the raw entry is in place.
        """
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return self._migrate(key)
        except OSError:
            # Transient read error: miss, but leave the entry intact.
            return None
        try:
            meta, arrays = _decode_entry(blob)
        except ValueError:
            # Undecodable content: verified corruption — recompute rather
            # than trust.
            self._unlink(path)
            return None
        return self._verified(path, meta, arrays)

    def _migrate(self, key: str) -> SimulationResult | None:
        path = self._npz_path(key)
        try:
            meta, arrays = _read_npz(path)
        except OSError:
            # Absent (a plain miss) or a transient read error.
            return None
        except Exception:
            # Undecodable content (truncated zip, missing member, bad
            # JSON): verified corruption — recompute rather than trust.
            self._unlink(path)
            return None
        result = self._verified(path, meta, arrays)
        if result is not None:
            try:
                self.store(key, result)
            except OSError:
                # The npz stays the only copy; the next read retries.
                return result
            self._unlink(path)
        return result

    def _verified(
        self, path: Path, meta: dict, arrays: dict[str, np.ndarray]
    ) -> SimulationResult | None:
        try:
            if meta.get("engine_version") != ENGINE_VERSION:
                raise ValueError("stale engine version")
            stored = meta.pop("checksum")
            if stored != _payload_checksum(meta, arrays):
                raise ValueError("checksum mismatch")
            n_sets = arrays["slot_accesses"].size
            if any(arrays[name].size != n_sets for name in _ARRAY_FIELDS):
                raise ValueError("inconsistent per-set arrays")
        except Exception:
            # Decoded fine but failed verification: provably bad entry.
            self._unlink(path)
            return None
        return SimulationResult(
            model=meta["model"],
            trace_name=meta["trace_name"],
            accesses=meta["accesses"],
            hits=meta["hits"],
            misses=meta["misses"],
            lookup_cycles=meta["lookup_cycles"],
            slot_accesses=arrays["slot_accesses"],
            slot_hits=arrays["slot_hits"],
            slot_misses=arrays["slot_misses"],
            extra=dict(meta.get("extra", {})),
        )

    @staticmethod
    def _unlink(path: Path) -> None:
        """Best-effort unlink: a file another reader already removed is fine."""
        try:
            path.unlink()
        except OSError:
            pass

    def _files(self) -> list[Path]:
        return [
            p
            for suffix in (ENTRY_SUFFIX, _LEGACY_SUFFIX)
            for p in self.root.glob(f"*{suffix}")
        ]

    def keys(self) -> list[str]:
        """Keys of every entry currently on disk, either format (unverified)."""
        return sorted({p.stem for p in self._files()})

    def flush(self) -> None:
        """Synchronous backend: every ``store`` already hit the disk."""

    def close(self) -> None:
        """Nothing to tear down for a plain directory."""

    def clear(self) -> int:
        """Delete every entry; returns the number of keys removed."""
        files = self._files()
        for p in files:
            p.unlink()
        return len({p.stem for p in files})
