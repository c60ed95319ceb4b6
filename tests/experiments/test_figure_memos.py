"""The in-process figure memos hold one whole configuration.

``fig4`` and ``fig6``/``fig7`` keep their last tables in memory, because
Figures 9-12 reuse their per-set arrays.  A run under a second
configuration in the same process must give the tables a fresh process
gives, whichever knob differs.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.address import CacheGeometry
from repro.experiments import PaperConfig, run_experiment
from repro.experiments import fig04_indexing_missrate as fig04
from repro.experiments import fig06_progassoc_missrate as fig06


@pytest.mark.parametrize(
    "eid, module", [("fig4", fig04), ("fig6", fig06), ("fig7", fig06)], ids=["fig4", "fig6", "fig7"]
)
def test_second_config_in_one_process_matches_a_fresh_run(eid, module, tmp_path):
    paper = PaperConfig(ref_limit=2000, trace_cache_dir=tmp_path)
    g = paper.geometry
    small = replace(paper, geometry=CacheGeometry(8 * 1024, g.line_bytes, 1, g.address_bits))
    module._CACHE.clear()
    first = run_experiment(eid, paper)
    second = run_experiment(eid, small)
    module._CACHE.clear()
    fresh = run_experiment(eid, small)
    module._CACHE.clear()
    # repr: a zero baseline makes some cells NaN, which never compare equal.
    assert repr(second.rows) == repr(fresh.rows)
    assert repr(first.rows) != repr(fresh.rows)
