"""Cell specs: one picklable description per independent simulation.

A :class:`SimCell` names everything a worker process needs to recompute one
bar of a figure from scratch: the workload (regenerated or loaded through
the shared on-disk :class:`~repro.trace.io.TraceCache`), the scheme or
cache-model to build, and the configuration parameters that influence the
outcome.  ``execute_cell`` is the single entry point used by both the
sequential fallback and the process-pool workers, so ``jobs=1`` and
``jobs=N`` run byte-for-byte the same code per cell.

What a cell *kind* is lives in one place: its :class:`CellKind` entry in
:data:`CELL_KINDS`, which reads a label once and says which config knobs
reach the result-cache key, how the cell runs, and which sweep family it
may join.  :func:`make_cell`, :func:`execute_cell` and :mod:`.families`
only look kinds up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ...core.aux import AUX_COMBOS, simulate_aux
from ...core.caches import (
    AdaptiveGroupAssociativeCache,
    BalancedCache,
    BeladyCache,
    ColumnAssociativeCache,
    DirectMappedCache,
    SkewedAssociativeCache,
    VictimCache,
)
from ...core.dispatch import dispatch
from ...core.dynamic import DynamicIndexCache
from ...core.fastpolicy import simulate_policy_set_associative
from ...core.replacement import POLICIES
from ...core.indexing import (
    GivargisIndexing,
    GivargisXorIndexing,
    ModuloIndexing,
    OddMultiplierIndexing,
    PatelIndexing,
    PrimeModuloIndexing,
    XorIndexing,
)
from ...core.selector import ThreadSchemeTable
from ...core.simulator import (
    SimulationResult,
    _result_from_stats,
    simulate_fully_associative,
    simulate_lru_sweep,
)
from ...core.three_c import classify
from ...multithread import (
    PartitionedAdaptiveCache,
    SMTSharedCache,
    StaticPartitionedCache,
    simulate_partitioned,
    simulate_smt,
)
from ..config import PaperConfig

__all__ = [
    "SimCell",
    "CellKind",
    "make_cell",
    "execute_cell",
    "timed_execute_cell",
    "CellExecutionError",
    "CELL_KINDS",
]


class CellExecutionError(RuntimeError):
    """A cell failed; the message names the (workload, scheme) pair.

    Raised by the engine (never inside a worker process, so there is no
    cross-process pickling of custom exception constructors) with the
    original exception chained as ``__cause__``.
    """


@dataclass(frozen=True)
class SimCell:
    """One independent (workload, technique) simulation."""

    kind: str
    workload: str
    label: str
    #: Canonical ``(name, value)`` pairs folded into the result-cache key;
    #: everything (beyond the trace itself) that influences the outcome.
    params: tuple = ()
    #: Whether the worker must also materialise the profiling trace.
    needs_profile: bool = False
    #: Associativity of the simulated structure (None = the config geometry's
    #: own ``ways``); folded into the result-cache key.
    ways: int | None = None
    #: Replacement policy of the simulated structure; part of the cache key.
    policy: str = "lru"

    @property
    def name(self) -> str:
        return f"{self.workload}/{self.label}"


# -- shared tables -----------------------------------------------------------------

#: The untrainable indexing schemes by name: a builder ``(geometry, config)``
#: and the config knobs that shape the index stream.  The knobs are the
#: ``params`` of every cell naming the scheme, and their values are part of
#: its family signature.
_SCHEMES: dict[str, tuple[Callable, Callable]] = {
    "modulo": (lambda g, c: ModuloIndexing(g), lambda c: ()),
    "xor": (lambda g, c: XorIndexing(g), lambda c: ()),
    "odd_multiplier": (
        lambda g, c: OddMultiplierIndexing(g, c.odd_multiplier),
        lambda c: (("odd_multiplier", c.odd_multiplier),),
    ),
    "prime_modulo": (lambda g, c: PrimeModuloIndexing(g), lambda c: ()),
}

#: The programmable-associativity caches by ``progassoc`` label: the config
#: knobs that shape each and a builder ``(config, primary index)``.  The
#: ``colassoc`` kind and the ``bounds`` columns ``Adaptive`` / ``B_Cache`` /
#: ``ColAssoc`` build the same caches.
_PROGASSOC_MODELS: dict[str, tuple[Callable, Callable]] = {
    "Adaptive_Cache": (
        lambda c: (("sht_fraction", c.sht_fraction), ("out_fraction", c.out_fraction)),
        lambda c, index: AdaptiveGroupAssociativeCache(
            c.geometry,
            indexing=index,
            sht_fraction=c.sht_fraction,
            out_fraction=c.out_fraction,
        ),
    ),
    "B_Cache": (
        lambda c: (("mapping_factor", c.bcache_mapping_factor), ("bas", c.bcache_bas)),
        # The B-cache programs its own decoder; it takes no primary index.
        lambda c, index: BalancedCache(
            c.geometry, mapping_factor=c.bcache_mapping_factor, bas=c.bcache_bas
        ),
    ),
    "Column_associative": (
        lambda c: (("protect_conventional", c.protect_conventional),),
        lambda c, index: ColumnAssociativeCache(
            c.geometry, indexing=index, protect_conventional=c.protect_conventional
        ),
    ),
}

#: Capacity-fixed k-way labels of ``setassoc`` and ``bounds``.
_WAYS_LABELS = {"2way": 2, "4way": 4, "8way": 8}

#: Swap budget of Patel's bounded index search.
_PATEL_SWAP_MOVES = 16


def _patel(g):
    return PatelIndexing(g, max_swap_moves=_PATEL_SWAP_MOVES)


#: ``indexing`` labels of fitted schemes: ``(factory, fitted on the profiling
#: trace rather than the evaluation trace)``.
_FITTED = {
    "Givargis": (GivargisIndexing, True),
    "Givargis_Xor": (GivargisXorIndexing, True),
    "Patel_train": (_patel, False),
    "Patel_transfer": (_patel, True),
}


# -- the registry ------------------------------------------------------------------


@dataclass(frozen=True)
class _Spec:
    """What one label means under one config."""

    #: ``(cell, trace, profile_path)`` → ``SimulationResult``.
    run: Callable
    params: tuple = ()
    needs_profile: bool = False
    ways: int | None = None
    policy: str = "lru"
    #: ``(axis, signature, member)`` of the sweep family the cell may join.
    batch: tuple | None = None
    #: ``(cell, profile_path)`` → ``(scheme, geometry)`` of that family's pass.
    scheme: Callable | None = None


@dataclass(frozen=True)
class CellKind:
    """Everything the engine knows about one cell kind.

    ``spec(label, config)`` reads a label once; it raises ``ValueError`` on
    any label the kind cannot run, so a bad label fails where the grid is
    declared, not inside a worker.  The methods below are views of it.
    """

    spec: Callable[[str, PaperConfig], _Spec]
    #: The labels the kind accepts and what they simulate.
    doc: str

    def fields(
        self, label: str, config: PaperConfig
    ) -> tuple[tuple, bool, int | None, str]:
        """``(params, needs_profile, ways, policy)`` of a cell: ``params``
        holds every config knob the outcome depends on."""
        s = self.spec(label, config)
        return s.params, s.needs_profile, s.ways, s.policy

    def run(
        self, cell: SimCell, trace, config: PaperConfig, profile_path=None
    ) -> SimulationResult:
        """Simulate one cell of this kind on its (already opened) trace."""
        return self.spec(cell.label, config).run(cell, trace, profile_path)

    def batch(
        self, cell: SimCell, config: PaperConfig
    ) -> tuple[str, tuple, object] | None:
        """``(axis, signature, member)`` or ``None``.

        Same-workload cells with equal ``(axis, signature)`` see the same
        grouped access stream, so one pass answers them all; ``member`` is
        what the axis runner needs of each cell (see :mod:`.families`).
        ``None``: the cell shares at most its trace open.
        """
        return self.spec(cell.label, config).batch

    def scheme(self, cell: SimCell, config: PaperConfig, profile_path=None):
        """``(scheme, geometry)`` of a batched cell's family pass; equal
        signatures guarantee every member yields the same index stream."""
        return self.spec(cell.label, config).scheme(cell, profile_path)

    def accepts(self, label: str, config: PaperConfig) -> bool:
        try:
            self.spec(label, config)
        except ValueError:
            return False
        return True


def _style(g) -> str:
    """How a config-geometry LRU cell packages its result."""
    return "direct" if g.ways == 1 else "setassoc"


def _lru(build, geometry, style: str, signature: tuple | None, **fields) -> _Spec:
    """An LRU cell of the stack-distance kernel: ``build(cell, profile_path,
    trace)`` makes its scheme, ``style`` ("direct" or "setassoc") is how
    :func:`~repro.core.simulator.simulate_lru_sweep` must package it, and
    ``signature`` names the scheme's index stream (``None``: no assoc
    family).  A lone cell runs the sweep its family runs, with itself as
    the one member.  The Mattson inclusion property holds for LRU alone."""
    member = (geometry.ways, style)

    def run(cell, trace, profile_path):
        scheme = build(cell, profile_path, trace)
        return simulate_lru_sweep(scheme, trace, geometry, [member])[0]

    if signature is not None:
        signature += (geometry.num_sets, geometry.offset_bits, geometry.address_bits)
        fields["batch"] = ("assoc", signature, member)
    return _Spec(
        run,
        scheme=lambda cell, profile_path: (build(cell, profile_path, None), geometry),
        **fields,
    )


def _named_lru(name: str, config: PaperConfig, geometry, style: str, **fields) -> _Spec:
    """An LRU cell under the untrainable scheme ``name``."""
    build, knobs = _SCHEMES[name]
    params = knobs(config)
    return _lru(
        lambda cell, profile_path, trace: build(geometry, config),
        geometry,
        style,
        (name,) + tuple(v for _, v in params),
        params=params,
        **fields,
    )


def _prog(model: str, scheme_name: str, config: PaperConfig, params: tuple) -> _Spec:
    """A programmable-associativity cache under the primary index
    ``scheme_name``, run by :func:`~repro.core.dispatch.dispatch`."""

    def run(cell, trace, profile_path):
        index = _SCHEMES[scheme_name][0](config.geometry, config)
        cache = _PROGASSOC_MODELS[model][1](config, index)
        return dispatch(cache, trace, engine=config.engine)

    return _Spec(run, params=params)


def _profile_addresses(cell: SimCell, config: PaperConfig, profile_path):
    if profile_path is not None:
        return _trace_at(profile_path, cell.workload, config).addresses
    from ..runner import profile_trace

    return profile_trace(cell.workload, config).addresses


def _scheme_label(label: str, kind: str, form: str) -> tuple[str, str]:
    """``"<scheme>:<rest>"`` → ``(scheme, rest)`` for an untrainable scheme."""
    scheme_name, sep, rest = label.partition(":")
    if not sep or not rest or scheme_name not in _SCHEMES:
        raise ValueError(
            f"unknown {kind} cell label {label!r} (expected '<scheme>:{form}' "
            f"with scheme in {tuple(_SCHEMES)})"
        )
    return scheme_name, rest


def _baseline(label: str, config: PaperConfig) -> _Spec:
    if label != "baseline":
        raise ValueError(f"unknown baseline cell label {label!r} (expected 'baseline')")
    return _named_lru("modulo", config, config.geometry, _style(config.geometry))


#: ``indexing`` labels of the untrainable schemes.
_INDEXING_SCHEMES = {
    "XOR": "xor",
    "Odd_Multiplier": "odd_multiplier",
    "Prime_Modulo": "prime_modulo",
}


def _indexing(label: str, config: PaperConfig) -> _Spec:
    g = config.geometry
    if label in _INDEXING_SCHEMES:
        return _named_lru(_INDEXING_SCHEMES[label], config, g, _style(g))
    if label not in _FITTED:
        raise ValueError(
            f"unknown indexing cell label {label!r}; "
            f"known: {sorted(_INDEXING_SCHEMES) + sorted(_FITTED)}"
        )
    factory, profiled = _FITTED[label]
    patel = factory is _patel
    params = (("max_swap_moves", _PATEL_SWAP_MOVES),) if patel else ()
    if profiled:
        params += (("profile_seed_offset", config.profile_seed_offset),)

    def build(cell, profile_path, trace):
        if profiled:
            return factory(g).fit(_profile_addresses(cell, config, profile_path))
        return factory(g).fit(trace.addresses)

    # A Givargis table is a pure function of the profiling run, which is a
    # pure function of (workload, config): its identity names the stream.
    signature = None if patel else (label.lower(), config.profile_seed_offset)
    return _lru(build, g, _style(g), signature, params=params, needs_profile=profiled)


def _progassoc(label: str, config: PaperConfig) -> _Spec:
    model, sep, scheme_name = label.partition(":")
    if model not in _PROGASSOC_MODELS or (
        sep and (model != "Adaptive_Cache" or scheme_name not in _SCHEMES)
    ):
        raise ValueError(
            f"unknown programmable-associativity label {label!r}; known: "
            f"{sorted(_PROGASSOC_MODELS)}, or 'Adaptive_Cache:<scheme>' with "
            f"scheme in {tuple(_SCHEMES)}"
        )
    scheme_name = scheme_name or "modulo"
    params = _PROGASSOC_MODELS[model][0](config) + _SCHEMES[scheme_name][1](config)
    return _prog(model, scheme_name, config, params)


#: ``colassoc`` labels → the primary index (``Base``: conventional modulo).
_COLASSOC_SCHEMES = {
    "ColAssoc_Base": "modulo",
    "ColAssoc_XOR": "xor",
    "ColAssoc_Odd_Multiplier": "odd_multiplier",
    "ColAssoc_Prime_Modulo": "prime_modulo",
}


def _colassoc(label: str, config: PaperConfig) -> _Spec:
    if label not in _COLASSOC_SCHEMES:
        raise ValueError(
            f"unknown column-associative cell label {label!r}; "
            f"known: {sorted(_COLASSOC_SCHEMES)}"
        )
    scheme_name = _COLASSOC_SCHEMES[label]
    model = "Column_associative"
    params = _SCHEMES[scheme_name][1](config) + _PROGASSOC_MODELS[model][0](config)
    return _prog(model, scheme_name, config, params)


def _setassoc(label: str, config: PaperConfig) -> _Spec:
    g = config.geometry
    if label in _WAYS_LABELS:
        gk = g.with_ways(_WAYS_LABELS[label])
        return _named_lru("modulo", config, gk, "setassoc", ways=gk.ways)
    if label == "FullAssoc":
        return _Spec(
            lambda cell, trace, profile_path: simulate_fully_associative(trace, g),
            ways=g.num_lines,
        )
    raise ValueError(
        f"unknown set-associative cell label {label!r}; "
        f"known: {sorted(_WAYS_LABELS) + ['FullAssoc']}"
    )


def _assocsweep(label: str, config: PaperConfig) -> _Spec:
    if not (label.endswith("way") and label[:-3].isdigit()):
        raise ValueError(
            f"unknown associativity-sweep cell label {label!r} (expected '<k>way')"
        )
    ways = int(label[:-3])
    # with_fixed_sets validates the sweep geometry and keeps num_sets, so
    # every sweep point shares the base geometry's set mapping.
    gk = config.geometry.with_fixed_sets(ways)
    return _named_lru("modulo", config, gk, "setassoc", ways=ways)


#: ``bounds`` columns run on one of the programmable-associativity caches.
_BOUNDS_MODELS = {
    "Adaptive": "Adaptive_Cache",
    "B_Cache": "B_Cache",
    "ColAssoc": "Column_associative",
}

#: The other ``bounds`` columns: their knobs and cache ``(trace, config)``,
#: run by :func:`~repro.core.dispatch.dispatch` (the victim cache takes the
#: aux replay, skewed and Belady their own kernels).
_STATEFUL_BOUNDS: dict[str, tuple[Callable, Callable]] = {
    "Skewed2": (
        lambda c: (("skew_ways", 2),),
        lambda trace, c: SkewedAssociativeCache(c.geometry, ways=2),
    ),
    "Victim8": (
        lambda c: (("victim_lines", c.victim_lines),),
        lambda trace, c: VictimCache(c.geometry, victim_lines=c.victim_lines),
    ),
    "Belady": (
        lambda c: (),
        lambda trace, c: BeladyCache(
            c.geometry, trace.blocks(c.geometry.offset_bits).astype("int64")
        ),
    ),
}


def _bounds(label: str, config: PaperConfig) -> _Spec:
    if label in _WAYS_LABELS or label == "FullAssoc":
        return _setassoc(label, config)
    if label in _BOUNDS_MODELS:
        model = _BOUNDS_MODELS[label]
        return _prog(model, "modulo", config, _PROGASSOC_MODELS[model][0](config))
    if label not in _STATEFUL_BOUNDS:
        raise ValueError(f"unknown bounds cell label {label!r}")
    knobs, build = _STATEFUL_BOUNDS[label]
    return _Spec(
        lambda cell, trace, profile_path: dispatch(
            build(trace, config), trace, engine=config.engine
        ),
        params=knobs(config),
    )


def _policysweep(label: str, config: PaperConfig) -> _Spec:
    scheme_name, policy = _scheme_label(label, "policy-sweep", "<policy>")
    if policy not in POLICIES:
        raise ValueError(
            f"unknown replacement policy {policy!r}; known: {sorted(POLICIES)}"
        )
    build, knobs = _SCHEMES[scheme_name]
    g = config.geometry
    params = knobs(config)
    # Everything but the policy that shapes the grouped access stream.
    signature = (
        (scheme_name,)
        + tuple(v for _, v in params)
        + (g.num_sets, g.offset_bits, g.address_bits, g.ways, config.policy_seed)
    )
    if policy == "random":
        # The generator seed changes random-policy outcomes, so it must
        # reach the result-cache key; other policies ignore it.
        params += (("policy_seed", config.policy_seed),)
    return _Spec(
        lambda cell, trace, profile_path: simulate_policy_set_associative(
            build(g, config),
            trace,
            g,
            policy=policy,
            seed=config.policy_seed,
            engine=config.engine,
        ),
        params=params,
        policy=policy,
        batch=("policy", signature, policy),
        scheme=lambda cell, profile_path: (build(g, config), g),
    )


def _auxsweep(label: str, config: PaperConfig) -> _Spec:
    scheme_name, spec = _scheme_label(label, "aux-sweep", "<combo><depth>")
    combo = spec.rstrip("0123456789")
    digits = spec[len(combo):]
    if combo not in AUX_COMBOS:
        raise ValueError(
            f"unknown aux combo {combo!r} in label {label!r}; known: {AUX_COMBOS}"
        )
    if not digits or int(digits) < 1:
        raise ValueError(
            f"aux-sweep label {label!r} needs a positive depth suffix (e.g. 'vc4')"
        )
    if config.geometry.ways != 1:
        raise ValueError("aux structures augment a direct-mapped geometry")
    build, knobs = _SCHEMES[scheme_name]
    params = knobs(config)
    if "sb" in combo.split("+"):
        # Stream-buffer shape knobs change outcomes, so they must reach
        # the result-cache key; vc/mc-only cells ignore them.
        params += (
            ("aux_streams", config.aux_streams),
            ("aux_allocate", config.aux_allocate),
        )
    g = config.geometry
    return _Spec(
        lambda cell, trace, profile_path: simulate_aux(
            build(g, config),
            trace,
            g,
            combo=combo,
            depth=int(digits),
            streams=config.aux_streams,
            allocate=config.aux_allocate,
            engine=config.engine,
        ),
        params=params,
    )


def _threads(trace) -> int:
    """Thread count of an interleaved trace (its threads are 0..n-1)."""
    return int(trace.thread.max()) + 1 if len(trace) else 1


def _variant(kind: str, label: str, variants: dict) -> tuple:
    """``variants[label]``, or the ``ValueError`` naming the known labels."""
    if label not in variants:
        raise ValueError(f"unknown {kind} cell label {label!r}; known: {sorted(variants)}")
    return variants[label]


def _smt(label: str, config: PaperConfig) -> _Spec:
    g = config.geometry
    m = tuple(config.smt_multipliers)
    # label → (key knobs, the per-thread schemes of an n-thread mix)
    params, schemes = _variant(
        "SMT",
        label,
        {
            "modulo": ((), lambda n: [ModuloIndexing(g)] * n),
            "odd_multiplier": (
                (("smt_multipliers", m),),
                lambda n: [OddMultiplierIndexing(g, m[i % len(m)]) for i in range(n)],
            ),
        },
    )

    def run(cell, trace, profile_path):
        cache = SMTSharedCache(g, ThreadSchemeTable(schemes(_threads(trace))))
        smt = simulate_smt(cache, trace, engine=config.engine)
        result = _result_from_stats(cache.name, trace.name, cache.stats, smt.accesses)
        result.extra["cross_evictions"] = smt.cross_evictions
        return result

    return _Spec(run, params=params)


def _partitioned(label: str, config: PaperConfig) -> _Spec:
    g, sht, out = config.geometry, config.sht_fraction, config.out_fraction
    # label → (key knobs, the cache of an n-thread mix)
    params, build = _variant(
        "partitioned",
        label,
        {
            "static": ((), lambda n: StaticPartitionedCache(g, n)),
            "adaptive": (
                (("sht_fraction", sht), ("out_fraction", out)),
                lambda n: PartitionedAdaptiveCache(g, n, sht_fraction=sht, out_fraction=out),
            ),
        },
    )

    def run(cell, trace, profile_path):
        cache = build(_threads(trace))
        part = simulate_partitioned(cache, trace, engine=config.engine)
        result = _result_from_stats(cache.name, trace.name, cache.stats, part.lookup_cycles)
        result.extra["direct_hits"] = part.direct_hits
        result.path = part.path
        return result

    return _Spec(run, params=params)


def _threec(label: str, config: PaperConfig) -> _Spec:
    if label != "direct_mapped":
        raise ValueError(
            f"unknown 3C cell label {label!r} (expected 'direct_mapped')"
        )
    g = config.geometry

    def run(cell, trace, profile_path):
        b = classify(DirectMappedCache(g), trace, g, engine=config.engine)
        empty = np.zeros(0, dtype=np.int64)
        return SimulationResult(
            model="three_c",
            trace_name=trace.name,
            accesses=b.accesses,
            hits=b.accesses - b.total,
            misses=b.total,
            lookup_cycles=b.accesses,
            slot_accesses=empty,
            slot_hits=empty,
            slot_misses=empty,
            extra={"cold": b.cold, "capacity": b.capacity, "conflict": b.conflict},
        )

    return _Spec(run)


def _dynamic(label: str, config: PaperConfig) -> _Spec:
    names = label.split("+")
    if not all(n in _SCHEMES for n in names) or len(set(names)) != len(names):
        raise ValueError(
            f"unknown dynamic cell label {label!r} (expected '+'-joined distinct "
            f"schemes from {tuple(_SCHEMES)})"
        )
    g = config.geometry
    params = tuple(p for n in names for p in _SCHEMES[n][1](config))

    def run(cell, trace, profile_path):
        cache = DynamicIndexCache(g, [_SCHEMES[n][0](g, config) for n in names])
        result = dispatch(cache, trace, engine=config.engine)
        result.extra["switches"] = cache.switches
        return result

    return _Spec(run, params=params)


CELL_KINDS: dict[str, CellKind] = {
    "baseline": CellKind(
        _baseline,
        "Conventional modulo-indexed run of the config geometry (label "
        "``baseline``); direct-mapped at the paper's geometry.",
    ),
    "indexing": CellKind(
        _indexing,
        "One Figure-4 scheme over the config geometry: ``XOR``, "
        "``Odd_Multiplier``, ``Prime_Modulo``, or the fitted ``Givargis`` / "
        "``Givargis_Xor`` (trained on the profiling trace inside the worker) "
        "and Patel's bounded index search, fitted on the evaluation trace "
        "(``Patel_train``) or the profiling trace (``Patel_transfer``).",
    ),
    "progassoc": CellKind(
        _progassoc,
        "One Figure-6 programmable-associativity cache: ``Adaptive_Cache``, "
        "``B_Cache`` or ``Column_associative``.  ``Adaptive_Cache:<scheme>`` "
        "(e.g. ``Adaptive_Cache:xor``) is the adaptive cache under an "
        "untrainable primary index instead of modulo.  B-cache and "
        "column-associative decompose by set under ``auto``; the adaptive "
        "cache's SHT/OUT state is global, so it takes the hoisted sequential "
        "replay.",
    ),
    "colassoc": CellKind(
        _colassoc,
        "Figure-8 column-associative cache under a non-conventional primary "
        "index (``ColAssoc_XOR`` / ``_Odd_Multiplier`` / ``_Prime_Modulo``); "
        "``ColAssoc_Base`` is the conventionally indexed one.",
    ),
    "setassoc": CellKind(
        _setassoc,
        "A capacity-fixed k-way LRU cache (``2way`` / ``4way`` / ``8way``, "
        "stack-distance kernel) or the single-set LRU bound ``FullAssoc``.",
    ),
    "assocsweep": CellKind(
        _assocsweep,
        "One point ``<k>way`` of a fixed-sets associativity sweep: a k-way "
        "LRU cache over ``geometry.with_fixed_sets(k)``.  Every point keeps "
        "the base set mapping, so one stack-distance pass answers the whole "
        "sweep (Mattson).",
    ),
    "bounds": CellKind(
        _bounds,
        "One ext-bounds column: the ``setassoc`` labels, the "
        "programmable-associativity caches ``Adaptive`` / ``B_Cache`` / "
        "``ColAssoc``, and ``Skewed2`` / ``Victim8`` / ``Belady``, which "
        "``dispatch`` runs (the skewed and Belady kernels, the victim cache's "
        "aux replay).",
    ),
    "policysweep": CellKind(
        _policysweep,
        "One point ``<scheme>:<policy>`` (e.g. ``xor:plru``) of a "
        "replacement-policy sweep: the config geometry under an untrainable "
        "scheme and any registered policy, by the fastpolicy replay kernels "
        "under ``auto``.  Cells equal up to the policy share one "
        "set-decomposition pass.",
    ),
    "auxsweep": CellKind(
        _auxsweep,
        "One auxiliary-structure composition ``<scheme>:<combo><depth>`` "
        "(e.g. ``xor:vc4``, ``modulo:vc+sb8``): a direct-mapped cache under "
        "an untrainable scheme augmented with victim-buffer / miss-cache / "
        "stream-buffer structures, by the exact miss-event replay under "
        "``auto``.",
    ),
    "smt": CellKind(
        _smt,
        "Figure 13's shared direct-mapped SMT cache over an interleaved "
        "multi-thread trace: every thread under ``modulo``, or thread *i* "
        "under odd-multiplier indexing with ``smt_multipliers[i]`` "
        "(``odd_multiplier``).  ``extra['cross_evictions']`` counts one "
        "thread evicting another's line.",
    ),
    "partitioned": CellKind(
        _partitioned,
        "Figure 14's cache split equally among the trace's threads: hard "
        "walls (``static``) or Peir's SHT/OUT tables spanning the partitions "
        "(``adaptive``).  ``extra['direct_hits']`` feeds Eq. (8).",
    ),
    "threec": CellKind(
        _threec,
        "3C breakdown of the config geometry's direct-mapped cache "
        "(``direct_mapped``): ``misses`` is the total, ``extra`` holds "
        "``cold`` / ``capacity`` / ``conflict``.  No per-set arrays.",
    ),
    "dynamic": CellKind(
        _dynamic,
        "The on-line scheme-switching direct-mapped cache over '+'-joined "
        "untrainable candidate schemes (e.g. "
        "``xor+odd_multiplier+prime_modulo``), flush costs paid; "
        "``extra['switches']`` counts scheme switches.",
    ),
}


def _cell_kind(kind: str) -> CellKind:
    try:
        return CELL_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown cell kind {kind!r}; known: {tuple(CELL_KINDS)}"
        ) from None


def make_cell(kind: str, workload: str, label: str, config: PaperConfig) -> SimCell:
    """Build a cell, capturing the config knobs relevant to ``kind``/``label``."""
    params, needs_profile, ways, policy = _cell_kind(kind).fields(label, config)
    return SimCell(kind, workload, label, params, needs_profile, ways, policy)


# -- execution (runs in the parent at jobs=1, in pool workers otherwise) ----------

def _trace_at(path, name: str, config: PaperConfig | None = None):
    """The trace stored at ``path``, renamed to ``name``, via the arena.

    Pool workers run many cells of the same workload back to back;
    opening the (content-addressed, read-only) file once per process
    instead of once per cell is the point of shipping *paths* rather than
    pickled address arrays.  The process-wide
    :class:`~repro.trace.arena.TraceArena` replaces the old unbounded
    per-module memo: raw-format entries map zero-copy (forked workers
    share the parent's page-cache pages), legacy npz entries decode, and
    a byte-budgeted LRU keeps long-lived service/cluster processes from
    accumulating every trace they ever touched.  ``config`` (when the
    caller has one) carries the budget, ``trace_arena_bytes``.
    """
    from ...trace.arena import get_arena

    arena = get_arena()
    if config is not None and config.trace_arena_bytes:
        arena.configure(config.trace_arena_bytes)
    return arena.get(path, name)


def _open_trace(workload: str, config: PaperConfig, trace_path=None):
    """The workload's trace: the pre-warmed file when the engine ships its
    path, else through the on-disk trace cache (derived traces included)."""
    if trace_path is not None:
        return _trace_at(trace_path, workload, config)
    from ..warm import load_spec, trace_spec

    return load_spec(trace_spec(workload, config), config).with_name(workload)


def execute_cell(
    cell: SimCell,
    config: PaperConfig,
    trace_path=None,
    profile_path=None,
) -> SimulationResult:
    """Run one cell from its spec alone (pure, deterministic).

    The workload trace is materialised through the shared on-disk trace
    cache — the engine pre-warms it in the parent so worker processes only
    ever read.  When the engine passes the pre-warmed ``trace_path`` /
    ``profile_path``, the worker maps those files directly through the
    process-wide trace arena (zero-copy for raw-format entries) instead
    of re-deriving the cache key; results are bit-identical because
    ``workload_trace`` itself returns a load of the very same file on a
    warm cache, and the raw format round-trips every field byte-for-byte
    (``tests/trace/test_raw_format.py``).
    """
    trace = _open_trace(cell.workload, config, trace_path)
    return _cell_kind(cell.kind).run(cell, trace, config, profile_path)


def timed_execute_cell(
    cell: SimCell,
    config: PaperConfig,
    trace_path=None,
    profile_path=None,
) -> tuple[SimulationResult, float]:
    """``execute_cell`` plus wall-clock seconds (the pool-worker entry point)."""
    t0 = time.perf_counter()
    if config.cell_delay:
        # Load-generator knob: deterministic service-time floor so cluster
        # scaling benches are capacity-bound, not machine-bound.
        time.sleep(config.cell_delay)
    result = execute_cell(cell, config, trace_path, profile_path)
    return result, time.perf_counter() - t0
