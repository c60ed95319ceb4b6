"""Pluggable result-store backends for the experiment engine.

The engine historically hard-coded one backend — the content-addressed
on-disk :class:`~repro.experiments.engine.cache.ResultCache`.  Scaling the
serving layer out to a multi-node cluster needs that choice to be
pluggable: a worker's *placement* of a cell is free (keys are
content-addressed), but its *result* is only cluster-visible if the store
it lands in is shared.  This module defines the interface and the two
backends:

:class:`LocalDirStore`
    Today's behavior, verbatim: one private ``results/`` directory of raw
    ``.rres`` entries with embedded checksums (legacy ``.npz`` entries
    migrate on first read).  Bit-identical keys and file format — a repo
    that never opts into clustering sees no change.

:class:`SharedDirStore`
    A two-tier read-through / write-behind store for clusters.  ``load``
    probes the node-private local tier first, then the shared directory;
    a shared hit is copied into the local tier (read-through) so repeat
    probes never touch the shared filesystem again.  ``store`` writes the
    local tier synchronously (the computing node must immediately see its
    own result) and *publishes* to the shared tier from a background
    thread (write-behind), so a slow shared filesystem never sits on the
    simulation hot path.  ``flush()`` drains the publish queue.

    Safety under concurrent readers/writers comes from two properties:
    every write on either tier is atomic (tmp + ``os.replace``, inherited
    from :class:`ResultCache`), and ``load`` treats a transient ``OSError``
    as a miss *without deleting the entry* — only verified corruption
    (undecodable entry, checksum or staleness failures) unlinks.  Both
    tiers are plain :class:`ResultCache` directories, so an ``.npz`` entry
    in the shared tier migrates to raw in place the first time any node
    reads it.  Two nodes publishing the
    same key race benignly: the key is a content digest, so both payloads
    decode to the same result and the last atomic replace wins.

``make_store`` maps a :class:`~repro.experiments.config.PaperConfig` to a
backend (``config.result_store``: ``"local"`` | ``"shared"``), and is the
single construction path used by ``run_cells``, the service scheduler and
the cluster router.  Whoever builds a store owns its lifetime: ``run_cells``
flushes and closes the store it builds before it returns, so a
write-behind publisher never outlives the run that started it, while a
long-lived server keeps one store open across requests.
"""

from __future__ import annotations

import abc
import queue
import threading
from pathlib import Path

from ..config import PaperConfig
from .cache import ResultCache

__all__ = [
    "LocalDirStore",
    "ResultStore",
    "SharedDirStore",
    "make_store",
]


class ResultStore(abc.ABC):
    """What the engine needs from a result backend (see module docstring).

    Keys are the engine's content-addressed cell keys
    (:func:`~repro.experiments.engine.cache.cell_key`); values are
    :class:`~repro.core.simulator.SimulationResult` instances.  A backend
    must be safe to call from multiple threads of one process and from
    multiple processes/nodes against the same storage.
    """

    @abc.abstractmethod
    def load(self, key: str):
        """Verified result for ``key``, or ``None`` (miss, never garbage)."""

    @abc.abstractmethod
    def store(self, key: str, result) -> Path:
        """Persist ``result`` under ``key``; returns the local entry path."""

    @abc.abstractmethod
    def keys(self) -> list[str]:
        """Keys of every entry (the cluster-audit surface)."""

    def flush(self) -> None:
        """Block until every accepted ``store`` is durable (default: no-op)."""

    def close(self) -> None:
        """Release background resources; implies :meth:`flush`."""

    def __contains__(self, key: str) -> bool:
        return self.load(key) is not None


#: Today's backend *is* the local-directory store: same directory layout,
#: same entries, same content-addressed keys.  The alias (rather than a
#: wrapper) keeps every existing ``ResultCache`` call site — tests, CLI,
#: engine internals — bit-identical by construction.
LocalDirStore = ResultCache
ResultStore.register(LocalDirStore)


class SharedDirStore(ResultStore):
    """Two-tier read-through / write-behind store (see module docstring)."""

    def __init__(
        self,
        shared_dir: str | Path,
        local_dir: str | Path | None = None,
        *,
        write_behind: bool = True,
    ):
        self.shared = LocalDirStore(shared_dir)
        self.local = LocalDirStore(local_dir) if local_dir is not None else None
        self._write_behind = write_behind
        self._queue: queue.Queue | None = None
        self._publisher: threading.Thread | None = None
        self._closed = False
        if write_behind:
            self._queue = queue.Queue()
            self._publisher = threading.Thread(
                target=self._publish_loop,
                name="repro-store-publisher",
                daemon=True,
            )
            self._publisher.start()

    # -- read-through ---------------------------------------------------------------

    def load(self, key: str):
        if self.local is not None:
            hit = self.local.load(key)
            if hit is not None:
                return hit
        hit = self.shared.load(key)
        if hit is not None and self.local is not None:
            # Read-through populate: repeat probes stay node-local.  A
            # racing populate is benign (atomic replace, same content).
            self.local.store(key, hit)
        return hit

    # -- write-behind ---------------------------------------------------------------

    def store(self, key: str, result) -> Path:
        if self.local is not None:
            path = self.local.store(key, result)
        else:
            path = self.shared.store(key, result)
        if self.local is not None:
            if self._queue is not None and not self._closed:
                self._queue.put((key, result))
            else:
                self.shared.store(key, result)
        return path

    def _publish_loop(self) -> None:
        assert self._queue is not None
        while True:
            item = self._queue.get()
            try:
                if item is None:
                    return
                key, result = item
                try:
                    self.shared.store(key, result)
                except OSError:
                    # A shared-filesystem hiccup must never kill the
                    # publisher; the local tier still holds the result and
                    # a re-run republishes it.
                    pass
            finally:
                self._queue.task_done()

    def flush(self) -> None:
        """Block until every queued publish reached the shared tier."""
        if self._queue is not None:
            self._queue.join()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._queue is not None and self._publisher is not None:
            self._queue.put(None)
            self._publisher.join(timeout=30)

    # -- introspection (the shared tier is the cluster-visible truth) ---------------

    def keys(self) -> list[str]:
        return self.shared.keys()

    def __contains__(self, key: str) -> bool:
        return (self.local is not None and key in self.local) or key in self.shared

    def __len__(self) -> int:
        return len(self.shared)

    def size_bytes(self) -> int:
        return self.shared.size_bytes()

    def clear(self) -> int:
        removed = self.shared.clear()
        if self.local is not None:
            self.local.clear()
        return removed


def make_store(config: PaperConfig) -> ResultStore | None:
    """The engine-wide backend factory (``None`` = result caching disabled)."""
    if not config.use_result_cache:
        return None
    if config.result_store == "shared":
        if config.shared_store_dir is None:
            raise ValueError(
                "result_store='shared' requires shared_store_dir to be set "
                "(the cluster-visible results directory)"
            )
        return SharedDirStore(
            config.shared_store_dir, local_dir=config.result_cache_path
        )
    if config.result_store != "local":
        raise ValueError(
            f"unknown result_store {config.result_store!r}; "
            "expected 'local' or 'shared'"
        )
    return LocalDirStore(config.result_cache_path)
