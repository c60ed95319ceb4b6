"""Trace persistence.

Three formats:

* **raw** (binary, the cache's native format) — a page-aligned,
  mmap-able struct-of-arrays container: an 8-byte magic, a JSON header
  (field layout, name/meta, SHA-256 content digest), then one contiguous
  page-aligned section per field (``addresses`` uint64, ``is_write``
  bool, ``thread`` int16).  :func:`load_raw` maps the sections read-only
  with zero copies, so opening a cached trace costs microseconds instead
  of a full decompress — and every process mapping the same file shares
  one copy of physical RAM through the page cache.
* **NPZ** (binary, legacy cache format and export format) — the
  struct-of-arrays dumped via :func:`numpy.savez_compressed`, with
  metadata as a JSON sidecar entry.  Loads back bit-identical; the
  :class:`TraceCache` migrates npz entries to raw transparently on first
  read (see below).
* **din** (text) — the classic Dinero-style ``<op> <hex-address>`` lines
  (0 = read, 1 = write, one access per line, ``#`` comments), for eyeballing
  traces and interoperating with external cache tools.

All cache writes are atomic (unique sibling temp file + ``os.replace``),
so concurrent writers can never leave a truncated file at the final path.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import uuid
import zipfile
from pathlib import Path

import numpy as np

from .event import Trace

__all__ = [
    "RAW_MAGIC",
    "RAW_SUFFIX",
    "save_npz",
    "load_npz",
    "save_raw",
    "load_raw",
    "load_trace",
    "read_raw_header",
    "save_din",
    "load_din",
    "TraceCache",
]

#: First 8 bytes of every raw trace file (version baked into the magic).
RAW_MAGIC = b"RTRACE1\n"
RAW_SUFFIX = ".rtr"
_PAGE = 4096

#: The raw header must decode before anything else is trusted; cap its
#: size so a corrupt length field cannot trigger a huge allocation.
_MAX_HEADER = 1 << 20

#: ``(field, numpy dtype string)`` in on-disk section order.  Little-endian
#: fixed-width dtypes: the file is a portable format, not a memory dump.
_RAW_FIELDS = (("addresses", "<u8"), ("is_write", "|b1"), ("thread", "<i2"))

#: Errors that mean "this cache file cannot be trusted" for either format.
_CACHE_ERRORS = (zipfile.BadZipFile, OSError, ValueError, KeyError, EOFError)

#: Raw header blobs already found equal to their layout.  The check is a
#: pure function of the bytes, and a serving process re-reads the same few
#: headers on every request, so each distinct header is re-encoded once.
_CHECKED_HEADERS: set[bytes] = set()
_MAX_CHECKED_HEADERS = 4096


def save_npz(trace: Trace, path: str | Path) -> Path:
    """Persist ``trace`` at ``path`` atomically.

    The archive is written to a unique sibling temp file and moved into
    place with :func:`os.replace`, so concurrent writers (e.g. two test
    processes warming the same :class:`TraceCache` key, or the parallel
    experiment engine racing a foreground run) can never leave a
    truncated npz at the final path — readers see either the old file or
    a complete new one.
    """
    path = Path(path)
    if path.suffix != ".npz":
        # np.savez appends .npz when absent; normalise up front so the
        # atomic rename targets the real destination.
        path = path.with_suffix(path.suffix + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.stem}.{uuid.uuid4().hex}.tmp.npz")
    try:
        np.savez_compressed(
            tmp,
            addresses=trace.addresses,
            is_write=trace.is_write,
            thread=trace.thread,
            meta=np.frombuffer(
                json.dumps({"name": trace.name, **trace.meta}).encode(), dtype=np.uint8
            ),
        )
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # savez failed mid-write; don't leak temp files
            tmp.unlink()
    return path


def load_npz(path: str | Path) -> Trace:
    with np.load(Path(path)) as data:
        meta = json.loads(bytes(data["meta"]).decode()) if "meta" in data else {}
        name = meta.pop("name", "")
        return Trace(
            data["addresses"].copy(),
            data["is_write"].copy(),
            data["thread"].copy(),
            name=name,
            meta=meta,
        )


# -- raw (mmap-able) format -------------------------------------------------------


def _content_digest(trace: Trace) -> str:
    """SHA-256 over the field bytes, in section order.

    Deliberately the same formula as
    :func:`repro.experiments.engine.cache.trace_fingerprint` (addresses,
    then write flags, then thread tags), so the digest stored in a raw
    header *is* the engine's trace fingerprint — warm runs can key their
    result cache without re-hashing megabytes of trace
    (``tests/trace/test_raw_format.py`` pins the two together).
    """
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(trace.addresses).tobytes())
    h.update(np.ascontiguousarray(trace.is_write).tobytes())
    h.update(np.ascontiguousarray(trace.thread).tobytes())
    return h.hexdigest()


def _raw_layout(n: int, name: str, meta: dict, digest: str) -> tuple[bytes, dict]:
    """Serialized header + section table for an ``n``-reference trace.

    Section offsets depend on the header's own (padded) size, which in
    turn depends on the serialized offsets; the loop below converges in
    one or two rounds because padding quantizes the header region to
    whole pages.
    """
    itemsize = {f: np.dtype(d).itemsize for f, d in _RAW_FIELDS}
    pages = 1
    while True:
        sections = {}
        offset = pages * _PAGE
        for field, dtype in _RAW_FIELDS:
            sections[field] = {"offset": offset, "dtype": dtype, "n": n}
            offset = -(-(offset + n * itemsize[field]) // _PAGE) * _PAGE
        header = {
            "format": "repro-raw-trace",
            "version": 1,
            "n": n,
            "name": name,
            "meta": meta,
            "digest": digest,
            "sections": sections,
            # Total size lets a reader spot truncation before touching any
            # section (the last section's padding is not written to disk).
            "size": sections["thread"]["offset"] + n * itemsize["thread"],
        }
        blob = json.dumps(header, sort_keys=True).encode()
        if len(RAW_MAGIC) + 8 + len(blob) <= pages * _PAGE:
            return blob, header
        pages += 1


def save_raw(trace: Trace, path: str | Path) -> Path:
    """Persist ``trace`` as a page-aligned raw container, atomically."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob, header = _raw_layout(
        len(trace), trace.name, dict(trace.meta), _content_digest(trace)
    )
    tmp = path.with_name(f".{path.stem}.{uuid.uuid4().hex}.tmp{RAW_SUFFIX}")
    try:
        with tmp.open("wb") as fh:
            fh.write(RAW_MAGIC)
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            for (field, dtype), arr in zip(
                _RAW_FIELDS, (trace.addresses, trace.is_write, trace.thread)
            ):
                section = header["sections"][field]
                fh.seek(section["offset"])
                fh.write(np.ascontiguousarray(arr, dtype=np.dtype(dtype)).tobytes())
            # Seek past EOF only materialises on write; pad an empty (or
            # short-tailed) file out to the declared total size explicitly.
            fh.truncate(header["size"])
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def read_raw_header(path: str | Path) -> dict:
    """Decode and validate a raw file's header.

    Raises :class:`ValueError` on anything that proves the file cannot be
    trusted: wrong magic, truncated header, truncated sections (total
    size mismatch), or header bytes that differ from what
    :func:`_raw_layout` writes for the header's own ``n``, ``name``,
    ``meta`` and ``digest`` — so a damaged section offset, length or size
    is refused instead of read from the wrong place.  A damaged value
    inside ``name``, ``meta`` or ``digest`` itself is beyond this check:
    it would take a header checksum, which is a format change.
    """
    path = Path(path)
    with path.open("rb") as fh:
        prefix = fh.read(len(RAW_MAGIC) + 8)
        if len(prefix) < len(RAW_MAGIC) + 8 or prefix[: len(RAW_MAGIC)] != RAW_MAGIC:
            raise ValueError(f"{path}: not a raw trace file")
        hlen = int.from_bytes(prefix[len(RAW_MAGIC) :], "little")
        if not 0 < hlen <= _MAX_HEADER:
            raise ValueError(f"{path}: implausible raw header length {hlen}")
        blob = fh.read(hlen)
        if len(blob) < hlen:
            raise ValueError(f"{path}: truncated raw header")
        try:
            header = json.loads(blob)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: undecodable raw header: {exc}") from exc
        if (
            not isinstance(header, dict)
            or header.get("version") != 1
            or header.get("format") != "repro-raw-trace"
        ):
            raise ValueError(f"{path}: unknown raw trace version")
        n, name, meta, digest = (header.get(k) for k in ("n", "name", "meta", "digest"))
        if (
            not isinstance(n, int)
            or n < 0
            or not isinstance(name, str)
            or not isinstance(meta, dict)
            or not isinstance(digest, str)
        ):
            raise ValueError(f"{path}: malformed raw header")
        if blob not in _CHECKED_HEADERS:
            if blob != _raw_layout(n, name, meta, digest)[0]:
                raise ValueError(f"{path}: raw header differs from its layout")
            if len(_CHECKED_HEADERS) >= _MAX_CHECKED_HEADERS:
                _CHECKED_HEADERS.clear()
            _CHECKED_HEADERS.add(blob)
        actual = os.fstat(fh.fileno()).st_size
        if actual != header["size"]:
            raise ValueError(
                f"{path}: truncated raw trace ({actual} bytes, header says "
                f"{header['size']})"
            )
    return header


def load_raw(path: str | Path, *, mmap_sections: bool = True, verify: bool = False) -> Trace:
    """Load a raw trace, zero-copy by default.

    With ``mmap_sections=True`` (the default) the field arrays are
    read-only views over one shared :class:`mmap.mmap` of the file — no
    bytes are copied or decoded, the OS pages data in lazily, and every
    process mapping the same file shares physical RAM.  With ``False``
    the sections are read into private arrays (useful when the file is
    about to be deleted on a platform that can't unlink mapped files).

    ``verify=True`` re-hashes the mapped content against the header's
    SHA-256 digest (reads every page; meant for integrity audits, not the
    hot path — structural truncation is always detected via the header's
    total size, digest or not).
    """
    path = Path(path)
    header = read_raw_header(path)
    n = header["n"]
    arrays: dict[str, np.ndarray] = {}
    if n == 0:
        for field, dtype in _RAW_FIELDS:
            arrays[field] = np.empty(0, dtype=np.dtype(dtype))
    elif mmap_sections:
        with path.open("rb") as fh:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        # The arrays hold the mapping alive through their .base chain; the
        # file descriptor itself can close immediately.
        for field, dtype in _RAW_FIELDS:
            sec = header["sections"][field]
            arrays[field] = np.frombuffer(
                mapped, dtype=np.dtype(sec["dtype"]), count=n, offset=sec["offset"]
            )
    else:
        with path.open("rb") as fh:
            for field, dtype in _RAW_FIELDS:
                sec = header["sections"][field]
                fh.seek(sec["offset"])
                dt = np.dtype(sec["dtype"])
                buf = fh.read(n * dt.itemsize)
                if len(buf) < n * dt.itemsize:
                    raise ValueError(f"{path}: truncated {field} section")
                arrays[field] = np.frombuffer(buf, dtype=dt, count=n).copy()
    trace = Trace(
        arrays["addresses"],
        arrays["is_write"],
        arrays["thread"],
        name=header.get("name", ""),
        meta=dict(header.get("meta") or {}),
    )
    if verify and _content_digest(trace) != header.get("digest"):
        raise ValueError(f"{path}: raw trace content digest mismatch")
    return trace


def load_trace(path: str | Path) -> Trace:
    """Load a trace from either cache format, sniffed by magic bytes.

    The engine ships bare paths to worker processes and cluster nodes;
    this is the single entry point they re-open those paths through, so a
    mixed-era cache (raw entries next to not-yet-migrated npz ones) is
    handled uniformly: raw maps zero-copy, npz decodes as before.
    """
    path = Path(path)
    with path.open("rb") as fh:
        magic = fh.read(len(RAW_MAGIC))
    if magic == RAW_MAGIC:
        return load_raw(path)
    return load_npz(path)


def save_din(trace: Trace, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(f"# trace: {trace.name} ({len(trace)} refs)\n")
        for a, w in zip(trace.addresses, trace.is_write):
            fh.write(f"{1 if w else 0} {int(a):x}\n")
    return path


def load_din(path: str | Path, name: str = "") -> Trace:
    ops: list[int] = []
    addrs: list[int] = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            op, addr = line.split()
            ops.append(int(op))
            addrs.append(int(addr, 16))
    return Trace(
        np.array(addrs, dtype=np.uint64),
        np.array(ops, dtype=bool),
        name=name or Path(path).stem,
    )


class TraceCache:
    """Content-addressed on-disk cache of generated traces.

    Keys are ``(name, seed, ref_limit, extra params)``; a miss runs the
    supplied generator and persists the result, so repeated experiment runs
    pay trace generation once.

    **Storage format is a cache-internal detail, never part of a key.**
    Entries are persisted in the raw mmap-able format; legacy ``.npz``
    entries (from earlier releases, or written by older cluster nodes
    over a shared directory) are *migrated* transparently: the first read
    decodes the npz once, writes the raw sibling, and every later read
    maps it zero-copy.  Content is bit-identical across formats by
    construction (and by differential test), so cache keys, trace
    fingerprints and the golden content hashes are unchanged.

    Any zero-length, truncated or otherwise corrupt entry — either
    format, e.g. a partial write surviving a crash — is deleted and
    regenerated, never trusted; a corrupt raw file with an intact npz
    sibling self-heals from the sibling without regenerating.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _raw_path(self, key: str) -> Path:
        return self.root / f"{key}{RAW_SUFFIX}"

    def _npz_path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def path_for(self, key: str) -> Path:
        """On-disk path for ``key`` (the file may not exist yet).

        The parallel experiment engine ships this path — not the trace
        arrays — to worker processes, which re-open it locally through
        the trace arena (:func:`load_trace` sniffs the format).  Resolves
        to whichever format is on disk, preferring raw; a missing key
        resolves to the raw path :meth:`get_or_create` would write.
        """
        raw = self._raw_path(key)
        if raw.exists():
            return raw
        npz = self._npz_path(key)
        if npz.exists():
            return npz
        return raw

    @staticmethod
    def key_for(name: str, **params) -> str:
        parts = [name] + [f"{k}={params[k]}" for k in sorted(params)]
        return "_".join(parts).replace("/", "-").replace(" ", "")

    def get_or_create(self, key: str, generator) -> Trace:
        raw = self._raw_path(key)
        if raw.exists():
            try:
                return load_raw(raw)
            except _CACHE_ERRORS:
                # Corrupted or truncated raw entry: deleted, then healed
                # from the npz sibling below (if any) or regenerated.
                raw.unlink(missing_ok=True)
        npz = self._npz_path(key)
        if npz.exists():
            try:
                trace = load_npz(npz)
            except _CACHE_ERRORS:
                # Same discipline as the result cache: a corrupted or
                # truncated entry is deleted and regenerated, never trusted.
                npz.unlink(missing_ok=True)
            else:
                # Transparent migration: decode once, map forever after.
                # The npz stays behind for older readers until `trace gc`.
                save_raw(trace, raw)
                return load_raw(raw)
        trace = generator()
        save_raw(trace, raw)
        # Serve the mapped copy rather than the generator's private arrays
        # so even the generating process shares pages with its siblings.
        return load_raw(raw)

    # -- maintenance ---------------------------------------------------------------

    def stats(self) -> dict:
        """Per-format entry counts and byte totals (plus migratable npz)."""
        raw_files = list(self.root.glob(f"*{RAW_SUFFIX}"))
        npz_files = list(self.root.glob("*.npz"))
        migrated = sum(1 for p in npz_files if self._raw_path(p.stem).exists())
        return {
            "root": str(self.root),
            "raw_entries": len(raw_files),
            "raw_bytes": sum(p.stat().st_size for p in raw_files),
            "npz_entries": len(npz_files),
            "npz_bytes": sum(p.stat().st_size for p in npz_files),
            "npz_migrated": migrated,
        }

    def gc(self) -> tuple[int, int]:
        """Delete npz entries that already have a raw sibling.

        Returns ``(files_removed, bytes_reclaimed)``.  Only migrated
        entries are touched — an npz without a raw sibling is still the
        sole copy of its trace and is left alone.
        """
        removed = reclaimed = 0
        for npz in self.root.glob("*.npz"):
            if self._raw_path(npz.stem).exists():
                reclaimed += npz.stat().st_size
                npz.unlink()
                removed += 1
        return removed, reclaimed

    def clear(self) -> None:
        for pattern in ("*.npz", f"*{RAW_SUFFIX}"):
            for p in self.root.glob(pattern):
                p.unlink()
