"""Sweep-family planning and batched execution.

The figure grids re-simulate the same trace once per cell even when cells
are near-duplicates of each other.  This module groups a planned cell list
into *sweep families* — sets of cells provably answerable together — and
executes each family as one unit.  A cell's kind declares the family it
may join (:meth:`~.cells.CellKind.batch` → ``(axis, signature, member)``);
a family is the same-workload cells with equal ``(axis, signature)``:

``assoc`` (the Mattson axis)
    Equal signatures name the same per-access ``(blocks, indices)``
    stream, so under LRU one :func:`~repro.core.fastsim.lru_stack_distances`
    pass answers every member by associativity thresholding
    (:func:`~repro.core.simulator.simulate_lru_sweep`; ``member`` is the
    cell's ``(ways, style)``).  A whole fixed-sets associativity sweep (the
    ``assocsweep`` cells of ``ext-assoc``, or the CLI's
    ``sweep --ways 1,2,4,8``) costs ~one cell.

``policy`` (the replacement-policy axis)
    ``policysweep`` cells equal in everything but the policy (scheme,
    mapping, associativity and random seed) share one trace decode, one
    index computation and one set-decomposition pass; each member's
    policy then replays its own exact kernel off the shared grouped arrays
    (:func:`~repro.core.fastpolicy.simulate_policy_sweep`).  A whole
    policy grid (the ``ext-policy`` experiment, or the CLI's
    ``sweep --policy lru,fifo,plru,...``) costs one decomposition plus the
    cheap per-policy replays.

``decode`` (the shared-trace axis)
    Remaining cells of one workload are batched into a single execution
    unit: the trace is opened once per process (via the trace arena)
    instead of once per scheduled cell, and each member then runs its
    *unmodified* per-cell :func:`~.cells.execute_cell` path — exact by
    construction, cheaper by task granularity and guaranteed trace-memo
    locality on the process pool.  ``auxsweep`` cells (victim / miss-cache
    / stream-buffer compositions) ride this axis: their per-cell path is
    already the exact miss-event replay of :mod:`repro.core.aux.fast`, so
    the only cross-cell saving left is the shared trace open.

``single``
    The one-member fallback; detection is a *partition* — every planned
    cell lands in exactly one family (a Hypothesis property test locks
    this down).

Batching is an execution detail, invisible to results and result-cache
keys: each member is stored under its unchanged per-cell key, so warm
caches, replay and the service's single-flight coalescing interoperate
freely with batched runs (audited by ``TestCacheKeyAudit``).

Failure attribution: :func:`execute_family` never raises.  It returns the
members that completed plus, on failure, the ``(workload, label, message)``
of the specific member that failed, so the engine can persist completed
members' cache entries and re-raise a
:class:`~.cells.CellExecutionError` naming the true culprit — a mid-batch
failure must not poison the family.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from ...core.fastpolicy import simulate_policy_sweep
from ...core.simulator import SimulationResult, simulate_lru_sweep
from ..config import PaperConfig
from .cells import CELL_KINDS, SimCell, _open_trace, timed_execute_cell

__all__ = ["SweepFamily", "detect_families", "execute_family"]

#: The shared pass of each batching axis: ``(scheme, trace, geometry,
#: members, config)`` → one result per member, in member order.
_AXIS_RUNNERS = {
    "assoc": lambda scheme, trace, geometry, members, config: simulate_lru_sweep(
        scheme, trace, geometry, members
    ),
    "policy": lambda scheme, trace, geometry, members, config: simulate_policy_sweep(
        scheme, trace, geometry, members, seed=config.policy_seed
    ),
}


@dataclass(frozen=True)
class SweepFamily:
    """One batched execution unit: cells provably answerable together."""

    #: ``"assoc"`` (shared stack-distance pass), ``"policy"`` (shared
    #: set-decomposition, per-policy kernels), ``"decode"`` (shared trace
    #: decode, per-member execution) or ``"single"`` (fallback).
    axis: str
    workload: str
    members: tuple[SimCell, ...]
    #: The members' shared :meth:`~.cells.CellKind.batch` signature
    #: (``assoc`` and ``policy`` only).
    signature: tuple | None = None

    @property
    def name(self) -> str:
        return f"{self.workload}/[{'+'.join(c.label for c in self.members)}]"


def _offer(cell: SimCell, config: PaperConfig) -> tuple:
    """The ``(workload, axis, signature)`` group a cell offers to join
    (see :meth:`~.cells.CellKind.batch`).  A cell whose kind or label
    cannot be read joins no batch, so it fails when it runs, blamed on
    itself."""
    if config.engine != "auto":
        return (cell.workload, "decode", None)
    try:
        batch = CELL_KINDS[cell.kind].batch(cell, config)
    except (KeyError, ValueError):
        batch = None
    return (cell.workload,) + (batch[:2] if batch else ("decode", None))


def detect_families(
    cells, config: PaperConfig
) -> tuple[SweepFamily, ...]:
    """Partition a cell list into sweep families.

    Grouping is by ``(workload, axis, signature)``, so a family never
    mixes workloads (hence traces) or signatures (hence index streams);
    the kinds only offer LRU cells to the ``assoc`` axis, and ``policy``
    members differ in nothing but the policy.  A group of one, and every
    cell no kind batches, joins its workload's ``decode`` family (or
    ``single`` when it is alone), which keeps each member's own execution
    path.

    ``config.batch_sweeps=False`` degenerates to all-singleton families;
    the ``assoc`` and ``policy`` axes additionally require
    ``config.engine == "auto"`` (the same discipline as every other
    vectorised fast path — forcing ``"sequential"`` keeps per-cell
    reference execution).
    """
    cells = list(dict.fromkeys(cells))  # dedupe, preserving declaration order
    if not config.batch_sweeps:
        return tuple(SweepFamily("single", c.workload, (c,)) for c in cells)
    keys = {cell: _offer(cell, config) for cell in cells}
    sizes = Counter(keys.values())
    groups: dict[tuple, list[SimCell]] = {}
    for cell, key in keys.items():
        if sizes[key] < 2:
            key = (cell.workload, "decode", None)
        groups.setdefault(key, []).append(cell)
    return tuple(
        SweepFamily(
            axis if len(members) >= 2 else "single", workload, tuple(members), signature
        )
        for (workload, axis, signature), members in groups.items()
    )


def execute_family(
    family: SweepFamily,
    config: PaperConfig,
    trace_path=None,
    profile_path=None,
) -> tuple[
    list[tuple[SimCell, SimulationResult, float]], tuple[str, str, str] | None
]:
    """Execute one family (the pool-worker entry point); never raises.

    Returns ``(completed, failure)``: ``completed`` holds ``(cell, result,
    seconds)`` for every member that finished, in member order; ``failure``
    is ``None`` or the ``(workload, label, message)`` of the member that
    failed.  On a decode-axis failure the members already simulated are
    still returned (their cache entries stay storable) and later members
    are not attempted; an assoc- or policy-axis failure happens inside the
    shared pass, before any member completes, and is attributed to the
    family's first member.  Messages travel as strings because worker
    exceptions must not require cross-process pickling of arbitrary
    exception types (the same discipline as
    :class:`~.cells.CellExecutionError`).
    """
    completed: list[tuple[SimCell, SimulationResult, float]] = []
    if family.axis in _AXIS_RUNNERS:
        first = family.members[0]
        t0 = time.perf_counter()
        try:
            trace = _open_trace(family.workload, config, trace_path)
            scheme, geometry = CELL_KINDS[first.kind].scheme(
                first, config, profile_path if first.needs_profile else None
            )
            members = [CELL_KINDS[c.kind].batch(c, config)[2] for c in family.members]
            run_axis = _AXIS_RUNNERS[family.axis]
            results = run_axis(scheme, trace, geometry, members, config)
        except Exception as exc:  # attributed in the parent, never re-raised here
            return completed, (first.workload, first.label, str(exc))
        # The pass is shared; bill its wall time evenly across the members.
        share = (time.perf_counter() - t0) / len(family.members)
        completed.extend(
            (cell, result, share)
            for cell, result in zip(family.members, results)
        )
        return completed, None
    # decode / single: one shared trace open (via the process-wide trace
    # arena), then each member's unmodified per-cell path.
    for cell in family.members:
        try:
            result, seconds = timed_execute_cell(
                cell,
                config,
                trace_path,
                profile_path if cell.needs_profile else None,
            )
        except Exception as exc:
            return completed, (cell.workload, cell.label, str(exc))
        completed.append((cell, result, seconds))
    return completed, None
