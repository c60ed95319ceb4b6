"""Experiment configuration (the paper's Section IV setup).

One dataclass carries everything the figure reproductions need: the cache
geometry (32 KiB direct-mapped L1, 32 B lines, 1024 sets), the timing model,
adaptive-cache table fractions, the B-cache operating point, trace lengths
and the on-disk trace cache location.  ``PaperConfig()`` is the paper's
configuration; tests and benches construct smaller variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from ..core.address import PAPER_L1_GEOMETRY, PAPER_L2_GEOMETRY, CacheGeometry
from ..core.amat import TimingModel

__all__ = ["PaperConfig", "MULTITHREAD_MIXES_FIG13", "MULTITHREAD_MIXES_FIG14"]

#: Thread mixes of the paper's Figure 13 (names joined by underscores there).
MULTITHREAD_MIXES_FIG13: list[tuple[str, ...]] = [
    ("bitcount", "adpcm"),
    ("bzip2", "libquantum"),
    ("fft", "susan"),
    ("gromacs", "namd"),
    ("milc", "namd"),
    ("qsort", "basicmath"),
    ("qsort", "patricia"),
    ("fft", "basicmath", "patricia", "susan"),
    ("susan", "bitcount", "adpcm", "patricia"),
]

#: Thread mixes of the paper's Figure 14.
MULTITHREAD_MIXES_FIG14: list[tuple[str, ...]] = [
    ("bitcount", "adpcm"),
    ("fft", "susan"),
    ("qsort", "basicmath"),
    ("qsort", "fft"),
    ("qsort", "patricia"),
    ("libquantum", "milc"),
    ("milc", "namd"),
    ("gromacs", "namd"),
    ("bzip2", "libquantum"),
    ("fft", "basicmath", "patricia", "susan"),
    ("susan", "bitcount", "adpcm", "patricia"),
]


@dataclass(frozen=True)
class PaperConfig:
    """All knobs of the reproduction, defaulted to the paper's values."""

    geometry: CacheGeometry = PAPER_L1_GEOMETRY
    l2_geometry: CacheGeometry = PAPER_L2_GEOMETRY
    timing: TimingModel = field(default_factory=TimingModel)

    # Adaptive cache (Section IV: SHT 3/8, OUT 4/16 of the sets).
    sht_fraction: float = 3 / 8
    out_fraction: float = 4 / 16

    # B-cache operating point (see DESIGN.md §5.1).
    bcache_mapping_factor: int = 2
    bcache_bas: int = 2

    # Victim-cache comparator.
    victim_lines: int = 8

    #: Stream-buffer shape for aux-structure cells (``auxsweep`` /
    #: ``ext-aux``): number of prefetch queues and the allocate-on-miss
    #: policy (``"miss"`` = allocate only on misses no structure serviced,
    #: ``"always"`` = on every main-array miss).  Outcome-changing, so
    #: ``make_cell`` folds both into the params (hence result-cache keys)
    #: of every sb-containing aux cell; vc/mc-only cells ignore them.
    aux_streams: int = 4
    aux_allocate: str = "miss"

    #: Column-associative swap policy (Agarwal & Pudar): when ``True`` a
    #: conventional-location block is never displaced into its rehash
    #: position by an incoming rehash miss.  Changes outcomes, so it is
    #: part of every result-cache key that simulates a colassoc cache.
    protect_conventional: bool = True

    # Odd multipliers: the recommended set; SMT threads take them in order.
    odd_multiplier: int = 9
    smt_multipliers: tuple[int, ...] = (9, 31, 21, 61)

    # Trace generation.
    ref_limit: int = 120_000
    seed: int = 2011  # the venue year; any fixed seed reproduces bit-for-bit
    workload_scale: float = 1.0
    #: Trainable schemes (Givargis/Patel) are fitted on a *profiling run*
    #: with this seed offset — the paper's Figure-5 flow profiles off-line
    #: on a sample input, then runs the chosen index on the real input.
    #: Set to 0 to train on the evaluation trace itself.
    profile_seed_offset: int = 77

    #: Seed of the ``random`` replacement policy's generator (the policy
    #: axis of ``ext-policy`` and ``policysweep`` cells).  Changes outcomes
    #: for random-policy cells, so ``make_cell`` folds it into those cells'
    #: params (hence their result-cache keys); cells of every other policy
    #: ignore it.
    policy_seed: int = 0

    # On-disk trace cache (regeneration is the slow part of a sweep).
    trace_cache_dir: Path = field(default_factory=lambda: Path(".trace_cache"))
    #: Byte budget of the process-wide trace arena (the bounded LRU of
    #: opened/mapped traces every trace-path consumer shares — see
    #: :mod:`repro.trace.arena`).  Bounds how much mapped trace data a
    #: long-lived process (``repro serve``, cluster workers, pool
    #: workers) retains; raw-format entries are mapped zero-copy, so the
    #: budget is address-space/worst-case-residency, not guaranteed RSS.
    #: Execution knob only (like ``jobs``/``engine``): results are
    #: bit-identical at any budget, so it is *not* part of cache keys.
    trace_arena_bytes: int = 1 << 30

    # -- parallel experiment engine ------------------------------------------------
    #: Worker processes for experiment grids: 1 = deterministic in-process
    #: sequential fallback (the default for tests), 0 = all cores
    #: (``os.cpu_count()``), N = exactly N.  Parallel runs are bit-identical
    #: to sequential ones.
    jobs: int = 1
    #: Memoize per-cell SimulationResults on disk (content-addressed by
    #: trace fingerprint + geometry + scheme params + engine version).
    use_result_cache: bool = True
    #: Result-cache root; ``None`` → ``<trace_cache_dir>/results`` so tests
    #: pointing the trace cache at a tmp dir stay hermetic automatically.
    result_cache_dir: Path | None = None
    #: Result-store backend: ``"local"`` (today's private on-disk cache) or
    #: ``"shared"`` (two-tier read-through/write-behind store rooted at
    #: ``shared_store_dir``, so warm results are cluster-visible — see
    #: :mod:`repro.experiments.engine.store`).  Execution-location knob
    #: only: keys and stored payloads are identical across backends, so it
    #: is *not* part of result-cache keys.
    result_store: str = "local"
    #: Cluster-visible results directory for ``result_store="shared"``
    #: (every node of one cluster points here; ``None`` elsewhere).
    shared_store_dir: Path | None = None
    #: Simulation-engine selection (one of ``repro.core.simulator.ENGINES``):
    #: ``"auto"`` takes the exact fast kernels where they apply;
    #: ``"sequential"`` forces the per-access reference loop for the
    #: ``progassoc``, ``colassoc``, ``bounds``, ``policysweep``, ``auxsweep``,
    #: ``smt``, ``partitioned`` and ``threec`` cells and limits sweep
    #: families to the ``decode`` axis, where each member runs its own
    #: per-cell path (see :mod:`repro.experiments.engine.families`).
    #: ``baseline``, ``indexing``, ``setassoc`` and ``assocsweep`` cells
    #: (and the k-way and ``FullAssoc`` ``bounds`` columns) stay on the
    #: vectorised kernels: their results are stored under the same keys
    #: either way.  Results are bit-identical either way, so this knob is
    #: *not* part of cache keys.
    engine: str = "auto"
    #: Per-cell wall-clock budget in seconds (``None`` = unlimited).  A cell
    #: exceeding it fails the run with a :class:`CellExecutionError` naming
    #: the (workload, scheme) pair instead of blocking forever — see
    #: ``run_cells``.  Execution knob only (like ``jobs``/``engine``): it
    #: never changes results, so it is *not* part of result-cache keys.
    #: Surfaced as ``--cell-timeout`` on the CLI and reused by the job
    #: server as its default per-request deadline.
    cell_timeout: float | None = None
    #: Load-generator knob: artificial per-cell service time in seconds,
    #: slept inside ``timed_execute_cell`` *before* simulating.  Makes a
    #: worker's capacity deterministic (capacity = slots / delay) so the
    #: cluster scaling bench and the kill-mid-burst smoke are
    #: machine-independent.  ``None``/0 (the default, and the only sane
    #: production value) is free.  Execution knob only — results are
    #: unchanged, so it is *not* part of result-cache keys.  Surfaced as
    #: ``serve --cell-delay``.
    cell_delay: float | None = None

    @property
    def result_cache_path(self) -> Path:
        if self.result_cache_dir is not None:
            return Path(self.result_cache_dir)
        return Path(self.trace_cache_dir) / "results"

    def scaled_down(self, ref_limit: int, scale: float | None = None) -> "PaperConfig":
        """A cheaper configuration for tests/benches (same semantics)."""
        return replace(
            self,
            ref_limit=ref_limit,
            workload_scale=scale if scale is not None else self.workload_scale,
        )
