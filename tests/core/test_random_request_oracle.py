"""Closed-form oracle: warm hit rates under the random-request model.

References drawn independently and uniformly over ``M`` blocks (the
random-request model of Majumdar and Radhakrishnan) give any demand-fill
cache with fixed placement a warm hit rate of exactly

    sum over sets s of min(k, n_s) / M,

whatever its replacement policy: once warm, set ``s`` holds ``min(k, n_s)``
of the ``n_s`` blocks that map to it, and the next reference is equally
likely to be any block.  Prime-modulo indexing falls below modulo by its
unused sets.  The column-associative, B-cache and adaptive caches move
blocks between lines, but at the paper geometry (``C`` lines, ``C < M``)
every line fills and stays full, so they reach ``C / M``.

The oracle shares no code with the kernels: ``n_s`` comes from plain block
arithmetic, not from the indexing schemes.  Every configuration runs
through :func:`~repro.core.dispatch.dispatch` and must stay on its fast
path; warm hits are ``dispatch(full).hits - dispatch(prefix).hits``.  One
trace's configurations are correlated, so the check pools each
configuration's hit rate over three seeds and asserts ``|z| < 3``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.address import PAPER_L1_GEOMETRY, CacheGeometry
from repro.core.caches import (
    AdaptiveGroupAssociativeCache,
    BalancedCache,
    ColumnAssociativeCache,
    DirectMappedCache,
    SetAssociativeCache,
)
from repro.core.dispatch import dispatch
from repro.core.indexing import PrimeModuloIndexing
from repro.trace import Trace

M = 1500
SETS = 64
LINE = 32
REFS = 200_000
WARMUP = 40_000
SEEDS = (1, 2, 3)
POLICIES = ("lru", "fifo", "random", "plru", "mru", "lfu")


def _geometry(ways: int) -> CacheGeometry:
    return CacheGeometry(SETS * ways * LINE, LINE, ways)


def _fixed_placement(ways: int, modulus: int = SETS) -> float:
    """``sum_s min(k, n_s) / M`` for ``index = block mod modulus``."""
    n_s = np.bincount(np.arange(M) % modulus, minlength=SETS)
    return float(np.minimum(ways, n_s).sum()) / M


#: C / M for the paper geometry's line count C.
PAPER_FULL = (PAPER_L1_GEOMETRY.capacity_bytes // PAPER_L1_GEOMETRY.line_bytes) / M

#: id -> (fresh-cache factory, predicted warm hit rate, fast path).
CONFIGS = {
    "dm-modulo": (lambda: DirectMappedCache(_geometry(1)), _fixed_placement(1), "direct-mapped"),
    "dm-prime61": (
        lambda: DirectMappedCache(_geometry(1), PrimeModuloIndexing(_geometry(1), 61)),
        _fixed_placement(1, modulus=61),
        "direct-mapped",
    ),
    **{
        f"{ways}way-{policy}": (
            lambda ways=ways, policy=policy: SetAssociativeCache(_geometry(ways), policy=policy),
            _fixed_placement(ways),
            "policy",
        )
        for ways in (2, 4)
        for policy in POLICIES
    },
    "colassoc": (lambda: ColumnAssociativeCache(PAPER_L1_GEOMETRY), PAPER_FULL, "colassoc"),
    "bcache": (lambda: BalancedCache(PAPER_L1_GEOMETRY), PAPER_FULL, "bcache"),
    "adaptive": (lambda: AdaptiveGroupAssociativeCache(PAPER_L1_GEOMETRY), PAPER_FULL, "adaptive"),
}


@pytest.fixture(scope="module")
def traces() -> list[Trace]:
    out = []
    for seed in SEEDS:
        blocks = np.random.default_rng(seed).integers(0, M, size=REFS)
        out.append(Trace((blocks * LINE).astype(np.uint64), name=f"random-request-{seed}"))
    return out


@pytest.mark.parametrize("config", list(CONFIGS))
def test_warm_hit_rate_matches_closed_form(config, traces):
    make, predicted, kernel = CONFIGS[config]
    warm_hits = 0
    for trace in traces:
        full = dispatch(make(), trace)
        prefix = dispatch(make(), trace[:WARMUP])
        assert full.path == prefix.path == f"fast:{kernel}"
        warm_hits += full.hits - prefix.hits
    n = len(traces) * (REFS - WARMUP)
    measured = warm_hits / n
    z = (measured - predicted) / math.sqrt(predicted * (1 - predicted) / n)
    assert abs(z) < 3, f"{config}: warm hit rate {measured:.5f} vs {predicted:.5f} (z={z:+.2f})"
