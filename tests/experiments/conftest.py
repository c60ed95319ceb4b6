"""Shared fixture for the figure-shape and ablation tests."""

from __future__ import annotations

import pytest

from repro.experiments import PaperConfig

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
