"""One dispatch for every cache-object fast path.

:func:`dispatch` is the only place that chooses between an exact kernel and
the per-access loop (:func:`~repro.core.simulator.simulate`) for a cache
object.  :data:`KERNELS` maps each served class to its :class:`Kernel`, and
every result names its path in ``SimulationResult.path``: ``fast:<kernel>``,
or ``sequential:<reason>`` with reason ``forced`` (``engine="sequential"``),
``no-kernel`` (nothing serves this class or configuration), ``invariants``
(periodic invariant checks) or ``warm-state`` (the kernel replays from a
cold cache).  Either
path leaves the same result and end state (the differential suites under
``tests/core/``); ``tests/experiments/test_dispatch_contract.py`` pins the
paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..trace.event import Trace
from . import fastassoc, fastpolicy
from .aux import fast as aux_fast
from .aux.augmented import AugmentedCache
from .caches.adaptive import AdaptiveGroupAssociativeCache
from .caches.base import EMPTY, CacheModel
from .caches.bcache import BalancedCache
from .caches.column_associative import ColumnAssociativeCache
from .caches.direct_mapped import DirectMappedCache
from .caches.partner import PartnerIndexCache
from .caches.set_associative import SetAssociativeCache
from .decompose import decode
from .fastsim import direct_mapped_miss_flags
from .replacement import LRUPolicy
from .simulator import ENGINES, SimulationResult, _result_from_stats, check_engine, simulate

__all__ = ["ENGINES", "KERNELS", "Kernel", "dispatch"]


@dataclass(frozen=True)
class Kernel:
    """One exact fast path: ``run(cache, trace)`` leaves the result and end
    state of ``simulate``; ``refuse(cache)`` is ``None`` where it is exact,
    else the reason."""

    name: str
    run: Callable[[CacheModel, Trace], SimulationResult]
    refuse: Callable[[CacheModel], str | None] = lambda cache: None
    #: Serve the class itself only (a subclass may override any hook).
    exact_type: bool = True


def _policy_refusal(cache: SetAssociativeCache) -> str | None:
    if type(cache.policy) not in fastpolicy._POLICY_TYPES:
        return "no-kernel"
    return None if fastpolicy._pristine(cache) else "warm-state"


def _aux_refusal(cache: AugmentedCache) -> str | None:
    # Method identity, not type identity: VictimCache keeps the wrapper's
    # access path, so it keeps the replay.
    t = type(cache)
    if (
        t._access_block is not AugmentedCache._access_block
        or t.access is not CacheModel.access
        or type(cache.base) is not DirectMappedCache
        or not all(type(st) in aux_fast.EXACT_STRUCTURES for st in cache.structures)
    ):
        return "no-kernel"
    if (
        np.any(cache.base._blocks != EMPTY)
        or any(st.contents() for st in cache.structures)
        or cache.stats.accesses
        or cache.base.stats.accesses
    ):
        return "warm-state"
    return None


def _direct_mapped(cache: DirectMappedCache, trace: Trace) -> SimulationResult:
    blocks, indices = decode(cache.indexing, trace, cache.geometry)
    miss = direct_mapped_miss_flags(blocks, indices)
    aux_fast._restore_base(cache, blocks, indices, miss, cache.geometry.num_sets)
    return _result_from_stats(cache.name, trace.name, cache.stats, len(trace))


#: The exact kernels by the class they serve.  Runs look kernels up on their
#: module at call time, so a wrapper installed there sees every call.
KERNELS: dict[type, Kernel] = {
    ColumnAssociativeCache: Kernel(
        "colassoc", lambda c, t: fastassoc.simulate_column_associative(c, t)
    ),
    # Only LRU's one-op-per-access clock decomposes by cluster.
    BalancedCache: Kernel(
        "bcache",
        lambda c, t: fastassoc.simulate_bcache(c, t),
        lambda c: None if type(c.policy) is LRUPolicy else "no-kernel",
    ),
    PartnerIndexCache: Kernel("partner", lambda c, t: fastassoc.simulate_partner(c, t)),
    AdaptiveGroupAssociativeCache: Kernel(
        "adaptive", lambda c, t: fastassoc.simulate_adaptive(c, t)
    ),
    SetAssociativeCache: Kernel(
        "policy", lambda c, t: fastpolicy.replay_policy(c, t), _policy_refusal
    ),
    AugmentedCache: Kernel(
        "aux-replay", lambda c, t: aux_fast.replay_aux(c, t), _aux_refusal,
        exact_type=False,
    ),
    DirectMappedCache: Kernel(
        "direct-mapped",
        _direct_mapped,
        lambda c: "warm-state" if np.any(c._blocks != EMPTY) else None,
    ),
}


def _kernel(cache: CacheModel) -> Kernel | None:
    for cls in type(cache).__mro__:
        if cls in KERNELS:
            kernel = KERNELS[cls]
            return kernel if cls is type(cache) or not kernel.exact_type else None
    return None


def dispatch(
    cache: CacheModel,
    trace: Trace,
    engine: str = "auto",
    check_invariants_every: int = 0,
) -> SimulationResult:
    """Simulate ``cache`` over ``trace`` by its kernel where that is exact,
    else by ``simulate``; ``result.path`` says which and why."""
    check_engine(engine)
    kernel = _kernel(cache)
    if engine == "sequential":
        reason = "forced"
    elif kernel is None:
        reason = "no-kernel"
    elif check_invariants_every:
        reason = "invariants"
    else:
        reason = kernel.refuse(cache)
    if reason is None:
        result = kernel.run(cache, trace)
        result.path = f"fast:{kernel.name}"
    else:
        result = simulate(cache, trace, check_invariants_every=check_invariants_every)
        result.path = f"sequential:{reason}"
    return result
