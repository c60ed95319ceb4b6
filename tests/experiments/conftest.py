"""Shared fixtures: the figure-shape and ablation config, and a writer of
legacy ``.npz`` result entries for the result-store upgrade tests."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import PaperConfig
from repro.experiments.engine import ResultCache
from repro.experiments.engine.cache import _decode_entry

#: Trace length of the shape and ablation assertions: long enough for every
#: figure's shape to settle, half the paper-default 120k.
SHAPE_REFS = 60_000


@pytest.fixture(scope="session")
def shape_config(tmp_path_factory) -> PaperConfig:
    """The paper configuration at ``SHAPE_REFS`` over one session-wide trace
    and result cache, so figures that share cells (fig6/fig7, fig9-fig12)
    and the ablations' workload traces are computed once."""
    return PaperConfig(
        ref_limit=SHAPE_REFS, trace_cache_dir=tmp_path_factory.mktemp("shape-cache")
    )


def _to_npz_entry(cache: ResultCache, key: str) -> Path:
    """Rewrite ``key``'s raw entry in the layout earlier releases wrote:
    ``savez_compressed`` of the ``meta`` JSON as a byte array plus the
    three per-set count arrays.  The raw entry is removed."""
    raw = cache.path_for(key)
    meta, arrays = _decode_entry(raw.read_bytes())
    npz = cache._npz_path(key)
    np.savez_compressed(
        npz, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays
    )
    raw.unlink()
    return npz


@pytest.fixture
def to_npz_entry():
    """``to_npz_entry(cache, key) -> Path`` (see :func:`_to_npz_entry`)."""
    return _to_npz_entry
