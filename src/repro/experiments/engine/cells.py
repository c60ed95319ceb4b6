"""Cell specs: one picklable description per independent simulation.

A :class:`SimCell` names everything a worker process needs to recompute one
bar of a figure from scratch: the workload (regenerated or loaded through
the shared on-disk :class:`~repro.trace.io.TraceCache`), the scheme or
cache-model to build, and the configuration parameters that influence the
outcome.  ``execute_cell`` is the single entry point used by both the
sequential fallback and the process-pool workers, so ``jobs=1`` and
``jobs=N`` run byte-for-byte the same code per cell.

Cell kinds
----------
``baseline``
    Conventional modulo-indexed direct-mapped run (vectorised fast path).
``indexing``
    One Figure-4 scheme (XOR / odd-multiplier / prime-modulo / Givargis /
    Givargis-XOR) over a direct-mapped cache; trainable schemes are fitted
    on the profiling trace inside the worker (deterministic given seeds).
    ``Patel_train`` / ``Patel_transfer`` are Patel's bounded index search
    (``max_swap_moves`` in the params), fitted on the evaluation trace and
    on the profiling trace respectively.
``progassoc``
    One Figure-6 programmable-associativity model (adaptive / B-cache /
    column-associative).  ``Adaptive_Cache:<scheme>`` (e.g.
    ``Adaptive_Cache:xor``) is the adaptive cache under an untrainable
    primary index instead of modulo; the bare label stays the modulo one.
    All models route through :mod:`repro.core.fastassoc` under
    ``config.engine == "auto"``: B-cache and column-associative decompose
    by set; the adaptive cache's SHT/OUT state is global, so it takes the
    hoisted sequential replay.
``colassoc``
    Figure-8 column-associative cache with a non-conventional primary
    index; label ``ColAssoc_Base`` is the conventionally-indexed baseline.
    All variants take the pair-decomposed fastassoc engine under ``auto``.
``setassoc``
    One scheme × geometry × ways grid point: a k-way LRU cache simulated by
    the vectorised stack-distance kernel (labels ``2way``/``4way``/…, or
    ``FullAssoc`` for the single-set LRU bound).
``assocsweep``
    One point of a fixed-sets associativity sweep (label ``<k>way``): a
    k-way LRU cache over ``geometry.with_fixed_sets(k)``, so every point of
    the sweep shares the base geometry's set mapping.  That shared mapping
    is what lets the engine's family batcher answer a whole sweep from one
    stack-distance pass (Mattson); per-cell execution is an ordinary
    ``simulate_set_associative`` call and stays the bit-identity reference.
``bounds``
    One ext-bounds comparison column.  Set-associative and fully-associative
    labels route through the ``setassoc`` fast path; B-cache and
    column-associative take the fastassoc engine under ``auto``; the
    remaining stateful structures (skewed, victim, adaptive, Belady) are
    driven by the sequential reference engine.
``policysweep``
    One point of a replacement-policy sweep (label ``<scheme>:<policy>``,
    e.g. ``xor:plru``): the config geometry's k-way cache under an
    untrainable indexing scheme and any registered replacement policy,
    simulated by the exact set-decomposed replay kernels of
    :mod:`repro.core.fastpolicy` under ``config.engine == "auto"`` and by
    the sequential reference loop under ``"sequential"``.  Cells identical
    up to the policy form the engine's "policy" sweep-family axis: one
    decode + one index computation + one set-grouping pass answers the
    whole policy grid.
``auxsweep``
    One auxiliary-structure composition (label ``<scheme>:<combo><depth>``,
    e.g. ``xor:vc4`` or ``modulo:vc+sb8``): a direct-mapped cache under an
    untrainable indexing scheme augmented with victim-buffer / miss-cache /
    stream-buffer structures (:mod:`repro.core.aux`), simulated by the
    exact miss-event replay under ``config.engine == "auto"`` and by the
    sequential reference wrapper under ``"sequential"``.  Aux cells ride
    the engine's "decode" sweep-family axis (one shared trace open per
    workload; the replay itself is already the fast path per cell).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ...core.aux import AUX_COMBOS, simulate_aux
from ...core.caches import AdaptiveGroupAssociativeCache, ColumnAssociativeCache
from ...core.fastassoc import simulate_progassoc
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
from ...core.simulator import (
    SimulationResult,
    simulate,
    simulate_fully_associative,
    simulate_indexing,
    simulate_set_associative,
)
from ..config import PaperConfig

__all__ = [
    "SimCell",
    "KernelSpec",
    "make_cell",
    "execute_cell",
    "timed_execute_cell",
    "kernel_cell_spec",
    "build_kernel_scheme",
    "PolicySpec",
    "policy_cell_spec",
    "build_policy_scheme",
    "build_aux_scheme",
    "CellExecutionError",
    "CELL_KINDS",
]

CELL_KINDS = (
    "baseline",
    "indexing",
    "progassoc",
    "colassoc",
    "setassoc",
    "assocsweep",
    "bounds",
    "policysweep",
    "auxsweep",
)

#: ``setassoc``/``bounds`` labels handled by the vectorised k-way LRU kernel.
_WAYS_LABELS = {"2way": 2, "4way": 4, "8way": 8}

#: Indexing-cell labels that require an off-line profiling (training) run.
_TRAINABLE_LABELS = frozenset({"Givargis", "Givargis_Xor"})

#: Indexing-cell labels of Patel's bounded search, and its swap budget.
_PATEL_LABELS = frozenset({"Patel_train", "Patel_transfer"})
_PATEL_SWAP_MOVES = 16

#: Indexing-cell labels fitted on the profiling trace.
_PROFILED_LABELS = _TRAINABLE_LABELS | {"Patel_transfer"}

#: Schemes a ``policysweep`` or ``auxsweep`` label may name.  Untrainable
#: only: every member must see the same index stream with no profiling run.
_POLICY_SCHEMES = ("modulo", "xor", "odd_multiplier", "prime_modulo")


def _parse_ways_label(label: str) -> int | None:
    """``"<k>way"`` → ``k`` (``"8way"`` → 8), else ``None``."""
    if label.endswith("way") and label[:-3].isdigit():
        return int(label[:-3])
    return None


def _parse_policy_label(label: str) -> tuple[str, str]:
    """``"<scheme>:<policy>"`` → the validated pair; raises on bad labels."""
    scheme_name, sep, policy = label.partition(":")
    if not sep or not scheme_name or not policy:
        raise ValueError(
            f"unknown policy-sweep cell label {label!r} (expected '<scheme>:<policy>')"
        )
    if scheme_name not in _POLICY_SCHEMES:
        raise ValueError(
            f"policy-sweep scheme {scheme_name!r} not supported; "
            f"known: {_POLICY_SCHEMES}"
        )
    if policy not in POLICIES:
        raise ValueError(
            f"unknown replacement policy {policy!r}; known: {sorted(POLICIES)}"
        )
    return scheme_name, policy


def _parse_progassoc_label(label: str) -> tuple[str, str | None]:
    """``"Adaptive_Cache:xor"`` → ``("Adaptive_Cache", "xor")``; a bare
    model label → ``(label, None)``.  Raises on a scheme suffix anywhere
    but the adaptive cache, or on an unknown scheme."""
    model, sep, scheme_name = label.partition(":")
    if not sep:
        return label, None
    if model != "Adaptive_Cache" or scheme_name not in _POLICY_SCHEMES:
        raise ValueError(
            f"unknown programmable-associativity label {label!r} (only "
            f"'Adaptive_Cache:<scheme>' takes a scheme; known: {_POLICY_SCHEMES})"
        )
    return model, scheme_name


def _parse_aux_label(label: str) -> tuple[str, str, int]:
    """``"<scheme>:<combo><depth>"`` → the validated triple; raises on bad
    labels (``"xor:vc4"`` → ``("xor", "vc", 4)``)."""
    scheme_name, sep, spec = label.partition(":")
    if not sep or not scheme_name or not spec:
        raise ValueError(
            f"unknown aux-sweep cell label {label!r} "
            "(expected '<scheme>:<combo><depth>')"
        )
    if scheme_name not in _POLICY_SCHEMES:
        raise ValueError(
            f"aux-sweep scheme {scheme_name!r} not supported; "
            f"known: {_POLICY_SCHEMES}"
        )
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
    return scheme_name, combo, int(digits)


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


def make_cell(kind: str, workload: str, label: str, config: PaperConfig) -> SimCell:
    """Build a cell, capturing the config knobs relevant to ``kind``/``label``."""
    if kind not in CELL_KINDS:
        raise ValueError(f"unknown cell kind {kind!r}; known: {CELL_KINDS}")
    params: list[tuple] = []
    needs_profile = False
    ways: int | None = None
    policy = "lru"
    if kind == "indexing":
        if label == "Odd_Multiplier":
            params.append(("odd_multiplier", config.odd_multiplier))
        if label in _PATEL_LABELS:
            params.append(("max_swap_moves", _PATEL_SWAP_MOVES))
        if label in _PROFILED_LABELS:
            needs_profile = True
            params.append(("profile_seed_offset", config.profile_seed_offset))
    elif kind == "progassoc":
        model, scheme_name = _parse_progassoc_label(label)
        if model == "Adaptive_Cache":
            params.append(("sht_fraction", config.sht_fraction))
            params.append(("out_fraction", config.out_fraction))
            if scheme_name == "odd_multiplier":
                params.append(("odd_multiplier", config.odd_multiplier))
        elif label == "B_Cache":
            params.append(("mapping_factor", config.bcache_mapping_factor))
            params.append(("bas", config.bcache_bas))
        elif label == "Column_associative":
            params.append(("protect_conventional", config.protect_conventional))
    elif kind == "colassoc":
        if label == "ColAssoc_Odd_Multiplier":
            params.append(("odd_multiplier", config.odd_multiplier))
        # The swap policy changes outcomes for every column-associative cell.
        params.append(("protect_conventional", config.protect_conventional))
    elif kind == "assocsweep":
        ways = _parse_ways_label(label)
        if ways is None:
            raise ValueError(
                f"unknown associativity-sweep cell label {label!r} (expected '<k>way')"
            )
        # Validate the sweep geometry eagerly so a bad label fails at
        # grid-declaration time, not inside a worker.
        config.geometry.with_fixed_sets(ways)
    elif kind in ("setassoc", "bounds"):
        if label in _WAYS_LABELS:
            ways = _WAYS_LABELS[label]
        elif label == "FullAssoc":
            ways = config.geometry.num_lines
        elif kind == "setassoc":
            raise ValueError(f"unknown set-associative cell label {label!r}")
        elif label == "Skewed2":
            params.append(("skew_ways", 2))
        elif label == "Victim8":
            params.append(("victim_lines", config.victim_lines))
        elif label == "Adaptive":
            params.append(("sht_fraction", config.sht_fraction))
            params.append(("out_fraction", config.out_fraction))
        elif label == "B_Cache":
            params.append(("mapping_factor", config.bcache_mapping_factor))
            params.append(("bas", config.bcache_bas))
        elif label == "ColAssoc":
            params.append(("protect_conventional", config.protect_conventional))
        elif label != "Belady":
            raise ValueError(f"unknown bounds cell label {label!r}")
    elif kind == "policysweep":
        scheme_name, policy = _parse_policy_label(label)
        if scheme_name == "odd_multiplier":
            params.append(("odd_multiplier", config.odd_multiplier))
        if policy == "random":
            # The generator seed changes random-policy outcomes, so it must
            # reach the result-cache key; other policies ignore it.
            params.append(("policy_seed", config.policy_seed))
    elif kind == "auxsweep":
        scheme_name, combo, _depth = _parse_aux_label(label)
        if config.geometry.ways != 1:
            raise ValueError("aux structures augment a direct-mapped geometry")
        if scheme_name == "odd_multiplier":
            params.append(("odd_multiplier", config.odd_multiplier))
        if "sb" in combo.split("+"):
            # Stream-buffer shape knobs change outcomes, so they must reach
            # the result-cache key; vc/mc-only cells ignore them.
            params.append(("aux_streams", config.aux_streams))
            params.append(("aux_allocate", config.aux_allocate))
    return SimCell(
        kind=kind,
        workload=workload,
        label=label,
        params=tuple(params),
        needs_profile=needs_profile,
        ways=ways,
        policy=policy,
    )


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


def _build_indexing_scheme(
    cell: SimCell, config: PaperConfig, profile_path=None, trace=None
):
    """The scheme an ``indexing`` cell names; ``trace`` (the evaluation
    trace) is needed only by ``Patel_train``, which is fitted on it."""
    g = config.geometry
    if cell.label == "XOR":
        return XorIndexing(g)
    if cell.label == "Odd_Multiplier":
        return OddMultiplierIndexing(g, config.odd_multiplier)
    if cell.label == "Prime_Modulo":
        return PrimeModuloIndexing(g)
    if cell.label == "Patel_train":
        return PatelIndexing(g, max_swap_moves=_PATEL_SWAP_MOVES).fit(trace.addresses)
    if cell.label in _PROFILED_LABELS:
        if profile_path is not None:
            fit_addrs = _trace_at(profile_path, cell.workload, config).addresses
        else:
            from ..runner import profile_trace

            fit_addrs = profile_trace(cell.workload, config).addresses
        if cell.label == "Patel_transfer":
            return PatelIndexing(g, max_swap_moves=_PATEL_SWAP_MOVES).fit(fit_addrs)
        cls = GivargisIndexing if cell.label == "Givargis" else GivargisXorIndexing
        return cls(g).fit(fit_addrs)
    raise ValueError(f"unknown indexing-cell label {cell.label!r}")


def _build_progassoc_cache(cell: SimCell, config: PaperConfig):
    """A fresh cache for a ``progassoc`` cell (see :func:`_parse_progassoc_label`)."""
    model, scheme_name = _parse_progassoc_label(cell.label)
    if scheme_name is not None:
        return AdaptiveGroupAssociativeCache(
            config.geometry,
            indexing=_untrainable_scheme(scheme_name, config),
            sht_fraction=config.sht_fraction,
            out_fraction=config.out_fraction,
        )
    from ..runner import progassoc_lineup

    try:
        return progassoc_lineup(config)[model]()
    except KeyError:
        raise ValueError(f"unknown programmable-associativity label {cell.label!r}") from None


def _build_colassoc_index(cell: SimCell, config: PaperConfig):
    g = config.geometry
    if cell.label == "ColAssoc_Base":
        return None
    if cell.label == "ColAssoc_XOR":
        return XorIndexing(g)
    if cell.label == "ColAssoc_Odd_Multiplier":
        return OddMultiplierIndexing(g, config.odd_multiplier)
    if cell.label == "ColAssoc_Prime_Modulo":
        return PrimeModuloIndexing(g)
    raise ValueError(f"unknown column-associative cell label {cell.label!r}")


def _execute_bounds_cell(cell: SimCell, trace, config: PaperConfig) -> SimulationResult:
    """One ``setassoc``/``bounds`` cell: fast path where exact, sequential else."""
    g = config.geometry
    if cell.label in _WAYS_LABELS:
        gk = g.with_ways(_WAYS_LABELS[cell.label])
        return simulate_set_associative(ModuloIndexing(gk), trace, gk)
    if cell.label == "FullAssoc":
        return simulate_fully_associative(trace, g)
    # Stateful structures: only the sequential reference engine is exact.
    from ...core.caches import (
        AdaptiveGroupAssociativeCache,
        BalancedCache,
        BeladyCache,
        SkewedAssociativeCache,
        VictimCache,
    )

    if cell.label == "Skewed2":
        return simulate(SkewedAssociativeCache(g, ways=2), trace)
    if cell.label == "Victim8":
        from ...core.aux import simulate_augmented

        return simulate_augmented(
            VictimCache(g, victim_lines=config.victim_lines),
            trace,
            engine=config.engine,
        )
    if cell.label == "Adaptive":
        return simulate_progassoc(
            AdaptiveGroupAssociativeCache(
                g, sht_fraction=config.sht_fraction, out_fraction=config.out_fraction
            ),
            trace,
            engine=config.engine,
        )
    if cell.label == "B_Cache":
        return simulate_progassoc(
            BalancedCache(
                g, mapping_factor=config.bcache_mapping_factor, bas=config.bcache_bas
            ),
            trace,
            engine=config.engine,
        )
    if cell.label == "ColAssoc":
        return simulate_progassoc(
            ColumnAssociativeCache(
                g, protect_conventional=config.protect_conventional
            ),
            trace,
            engine=config.engine,
        )
    if cell.label == "Belady":
        blocks = trace.blocks(g.offset_bits).astype("int64")
        return simulate(BeladyCache(g, blocks), trace)
    raise ValueError(f"unknown bounds cell label {cell.label!r}")


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
    from ..runner import workload_trace

    if trace_path is not None:
        trace = _trace_at(trace_path, cell.workload, config)
    else:
        trace = workload_trace(cell.workload, config)
    g = config.geometry
    if cell.kind == "baseline":
        if g.ways != 1:
            return simulate_set_associative(ModuloIndexing(g), trace, g)
        return simulate_indexing(ModuloIndexing(g), trace, g)
    if cell.kind == "indexing":
        scheme = _build_indexing_scheme(cell, config, profile_path, trace)
        if g.ways != 1:
            return simulate_set_associative(scheme, trace, g)
        return simulate_indexing(scheme, trace, g)
    if cell.kind == "assocsweep":
        gk = g.with_fixed_sets(cell.ways)
        return simulate_set_associative(ModuloIndexing(gk), trace, gk)
    if cell.kind == "policysweep":
        scheme, gp = build_policy_scheme(cell, config)
        return simulate_policy_set_associative(
            scheme,
            trace,
            gp,
            policy=cell.policy,
            seed=config.policy_seed,
            engine=config.engine,
        )
    if cell.kind == "auxsweep":
        scheme, combo, depth, ga = build_aux_scheme(cell, config)
        return simulate_aux(
            scheme,
            trace,
            ga,
            combo=combo,
            depth=depth,
            streams=config.aux_streams,
            allocate=config.aux_allocate,
            engine=config.engine,
        )
    if cell.kind in ("setassoc", "bounds"):
        return _execute_bounds_cell(cell, trace, config)
    if cell.kind == "progassoc":
        cache = _build_progassoc_cache(cell, config)
        return simulate_progassoc(cache, trace, engine=config.engine)
    if cell.kind == "colassoc":
        indexing = _build_colassoc_index(cell, config)
        cache = ColumnAssociativeCache(
            g,
            indexing=indexing,
            protect_conventional=config.protect_conventional,
        )
        return simulate_progassoc(cache, trace, engine=config.engine)
    raise ValueError(f"unknown cell kind {cell.kind!r}")


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


# -- sweep-family kernel classification ------------------------------------------


@dataclass(frozen=True)
class KernelSpec:
    """How one cell maps onto the shared stack-distance kernel.

    ``signature`` names the cell's *set-mapping identity*: two cells of the
    same workload with equal signatures see byte-identical ``(blocks,
    indices)`` streams, so one :func:`~repro.core.fastsim.lru_stack_distances`
    pass answers both — the exactness condition of the "assoc" batching
    axis.  ``ways`` is the threshold applied to that pass and ``style``
    ("direct" or "setassoc") the per-cell packaging convention
    :func:`~repro.core.simulator.simulate_lru_sweep` must reproduce.
    """

    signature: tuple
    ways: int
    style: str


def kernel_cell_spec(cell: SimCell, config: PaperConfig) -> KernelSpec | None:
    """Classify a cell for the shared-kernel sweep path; ``None`` = not exact.

    Only stateless-lookup LRU cells qualify (the Mattson inclusion property
    holds for LRU alone).  The signature folds in everything that shapes
    the per-access index stream: the scheme identity and its parameters,
    the set count, and the block granularity.  Trainable schemes
    (Givargis) fold in the profiling-run identity instead of the fitted
    table — exact because families never mix workloads and the profiling
    trace is a pure function of (workload, config).
    """
    if cell.policy != "lru":
        return None
    g = config.geometry
    geo_sig = (g.num_sets, g.offset_bits, g.address_bits)
    if cell.kind == "baseline":
        style = "direct" if g.ways == 1 else "setassoc"
        return KernelSpec(("modulo",) + geo_sig, g.ways, style)
    if cell.kind == "indexing":
        style = "direct" if g.ways == 1 else "setassoc"
        if cell.label == "XOR":
            return KernelSpec(("xor",) + geo_sig, g.ways, style)
        if cell.label == "Odd_Multiplier":
            return KernelSpec(
                ("odd_multiplier", config.odd_multiplier) + geo_sig, g.ways, style
            )
        if cell.label == "Prime_Modulo":
            return KernelSpec(("prime_modulo",) + geo_sig, g.ways, style)
        if cell.label in _TRAINABLE_LABELS:
            return KernelSpec(
                (cell.label.lower(), config.profile_seed_offset) + geo_sig,
                g.ways,
                style,
            )
        return None
    if cell.kind == "assocsweep":
        # with_fixed_sets keeps num_sets (hence the mapping) equal to the
        # base geometry's: every sweep point shares the base signature.
        return KernelSpec(("modulo",) + geo_sig, cell.ways, "setassoc")
    if cell.kind in ("setassoc", "bounds") and cell.label in _WAYS_LABELS:
        # Equal-capacity k-way points: with_ways *changes* num_sets, so the
        # signature differs per k — such cells never share a pass (they can
        # still join the decode axis), but classifying them keeps the
        # partition property total and uniformly tested.
        gk = g.with_ways(_WAYS_LABELS[cell.label])
        return KernelSpec(
            ("modulo", gk.num_sets, gk.offset_bits, gk.address_bits),
            gk.ways,
            "setassoc",
        )
    return None


def build_kernel_scheme(cell: SimCell, config: PaperConfig, profile_path=None):
    """Build the (scheme, geometry) a kernel cell's per-cell path would use.

    The family executor calls this on *one* representative member; equal
    :class:`KernelSpec` signatures guarantee any member yields the same
    index stream (and the scheme ``name``s that label the results are
    geometry-independent class attributes, so model strings match too).
    """
    g = config.geometry
    if cell.kind == "baseline":
        return ModuloIndexing(g), g
    if cell.kind == "indexing":
        return _build_indexing_scheme(cell, config, profile_path), g
    if cell.kind == "assocsweep":
        gk = g.with_fixed_sets(cell.ways)
        return ModuloIndexing(gk), gk
    if cell.kind in ("setassoc", "bounds") and cell.label in _WAYS_LABELS:
        gk = g.with_ways(_WAYS_LABELS[cell.label])
        return ModuloIndexing(gk), gk
    raise ValueError(f"cell ({cell.workload}, {cell.label}) is not a kernel cell")


@dataclass(frozen=True)
class PolicySpec:
    """How one cell maps onto the shared policy-sweep decomposition.

    ``signature`` names everything *but* the policy that shapes the cell's
    outcome: the scheme identity and parameters, the geometry's mapping
    and associativity, and the random-policy seed.  Two same-workload
    cells with equal signatures see byte-identical grouped access streams,
    so one set-decomposition pass feeds every member's policy kernel — the
    exactness condition of the "policy" batching axis.
    """

    signature: tuple
    policy: str


def policy_cell_spec(cell: SimCell, config: PaperConfig) -> PolicySpec | None:
    """Classify a cell for the shared policy-sweep path; ``None`` = not one.

    Only ``policysweep`` cells qualify (their label pins an untrainable
    scheme, so the index stream is a pure function of (workload, config));
    the LRU member of a policy grid batches here too — the replay kernel
    is exact for LRU as well, and keeping the grid together is the point.
    """
    if cell.kind != "policysweep":
        return None
    g = config.geometry
    scheme_name = cell.label.partition(":")[0]
    sig: list = [scheme_name]
    if scheme_name == "odd_multiplier":
        sig.append(config.odd_multiplier)
    sig += [g.num_sets, g.offset_bits, g.address_bits, g.ways, config.policy_seed]
    return PolicySpec(tuple(sig), cell.policy)


def _untrainable_scheme(scheme_name: str, config: PaperConfig):
    """Build one of the profiling-free schemes a sweep label may name."""
    g = config.geometry
    if scheme_name == "modulo":
        return ModuloIndexing(g)
    if scheme_name == "xor":
        return XorIndexing(g)
    if scheme_name == "odd_multiplier":
        return OddMultiplierIndexing(g, config.odd_multiplier)
    if scheme_name == "prime_modulo":
        return PrimeModuloIndexing(g)
    return None


def build_policy_scheme(cell: SimCell, config: PaperConfig):
    """Build the (scheme, geometry) a ``policysweep`` cell simulates under."""
    scheme = _untrainable_scheme(cell.label.partition(":")[0], config)
    if scheme is None:
        raise ValueError(f"cell ({cell.workload}, {cell.label}) is not a policy cell")
    return scheme, config.geometry


def build_aux_scheme(cell: SimCell, config: PaperConfig):
    """Build the (scheme, combo, depth, geometry) an ``auxsweep`` cell
    simulates under."""
    scheme_name, combo, depth = _parse_aux_label(cell.label)
    scheme = _untrainable_scheme(scheme_name, config)
    if scheme is None:
        raise ValueError(f"cell ({cell.workload}, {cell.label}) is not an aux cell")
    return scheme, combo, depth, config.geometry
