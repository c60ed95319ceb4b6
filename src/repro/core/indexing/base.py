"""Indexing-scheme protocol and registry.

An *indexing scheme* is the hash from an address to a cache set (paper
Section 1.1 treats this explicitly as finding a hash function from keys to
buckets).  Schemes are attached to a :class:`~repro.core.address.CacheGeometry`
and must map every address into ``[0, num_sets)``.

Two flavours exist:

* stateless schemes (modulo, XOR, odd-multiplier, prime-modulo) depend only
  on the geometry and their parameters;
* *trainable* schemes (Givargis, Givargis-XOR, Patel) are fitted to a
  profiling trace before use — mirroring the paper's off-line profiling flow
  (its Figure 5).

All schemes provide both a scalar ``index_of`` and a vectorised ``indices_of``
over NumPy ``uint64`` address arrays; the vectorised form is the simulator's
fast path and the two are cross-checked in the test-suite.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from ..._lazy import load_all
from ..address import CacheGeometry

__all__ = [
    "IndexingScheme",
    "TrainableIndexingScheme",
    "register_scheme",
    "make_scheme",
    "available_schemes",
    "SCHEME_REGISTRY",
]


class IndexingScheme(ABC):
    """Maps addresses to set indices for a fixed geometry."""

    #: Registry key; subclasses override.
    name: str = "abstract"

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry

    # -- core mapping -----------------------------------------------------------

    @abstractmethod
    def index_of(self, address: int) -> int:
        """Set index for one address."""

    def indices_of(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorised mapping; default falls back to the scalar form.

        ``np.fromiter`` materialises the scalar map directly into a fresh
        contiguous buffer — unlike writing through an ``out.ravel()`` view,
        which silently drops every element when ``ravel`` has to copy
        (e.g. for a non-contiguous input's shaped output).
        """
        addresses = np.asarray(addresses, dtype=np.uint64)
        index_of = self.index_of
        out = np.fromiter(
            (index_of(int(a)) for a in addresses.ravel()),
            dtype=np.int64,
            count=addresses.size,
        )
        return out.reshape(addresses.shape)

    # -- introspection ----------------------------------------------------------

    @property
    def usable_sets(self) -> int:
        """Number of sets this scheme can actually produce.

        Prime-modulo fragments the cache (paper Section II.B); every other
        scheme covers all sets.
        """
        return self.geometry.num_sets

    def requires_training(self) -> bool:
        return isinstance(self, TrainableIndexingScheme)

    def describe(self) -> str:
        return f"{self.name} over {self.geometry.describe()}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


class TrainableIndexingScheme(IndexingScheme):
    """A scheme fitted to a profiling address trace before use."""

    def __init__(self, geometry: CacheGeometry):
        super().__init__(geometry)
        self._fitted = False

    @abstractmethod
    def fit(self, addresses: np.ndarray) -> "TrainableIndexingScheme":
        """Train on a 1-D array of byte addresses; returns self."""

    @property
    def fitted(self) -> bool:
        return self._fitted

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError(f"{self.name} indexing must be fit() on a profiling trace before use")


#: name -> factory(geometry, **params)
SCHEME_REGISTRY: dict[str, Callable[..., IndexingScheme]] = {}


def register_scheme(cls: type[IndexingScheme]) -> type[IndexingScheme]:
    """Class decorator adding a scheme to the registry under ``cls.name``."""
    if cls.name in SCHEME_REGISTRY:
        raise ValueError(f"duplicate indexing scheme name {cls.name!r}")
    SCHEME_REGISTRY[cls.name] = cls
    return cls


def make_scheme(name: str, geometry: CacheGeometry, **params) -> IndexingScheme:
    """Instantiate a registered scheme by name."""
    load_all(__package__)  # registers every in-tree scheme
    try:
        factory = SCHEME_REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown indexing scheme {name!r}; known: {sorted(SCHEME_REGISTRY)}") from None
    return factory(geometry, **params)


def available_schemes() -> list[str]:
    load_all(__package__)  # registers every in-tree scheme
    return sorted(SCHEME_REGISTRY)
