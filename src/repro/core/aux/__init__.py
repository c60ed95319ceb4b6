"""Auxiliary cache structures (Jouppi 1990) as a composable subsystem.

Small fully-associative helpers that sit beside a main cache array and
absorb its conflict misses: the *victim cache* (holds evicted lines, swaps
on hit), the *miss cache* (holds recently missed lines, duplicated with
the main array) and *stream buffers* (N-deep sequential prefetch queues).
Any base :class:`~repro.core.caches.base.CacheModel` is composed with one
or more structures through :class:`AugmentedCache`, which attributes every
hit to its servicing structure (``direct`` / ``victim`` / ``miss_cache`` /
``stream``).

Direct-mapped compositions take an exact replay fast path
(:func:`replay_aux`, the ``fast:aux-replay`` kernel of
:func:`repro.core.dispatch.dispatch`) that vectorises the main array and
replays only the miss events — see :mod:`repro.core.aux.fast` for the
exactness argument.
"""

from ..._lazy import attach

#: Composition specs with first-class support (probe priority in order);
#: defined here so that cell labels validate without loading the replay.
AUX_COMBOS = ("vc", "mc", "sb", "vc+sb", "mc+sb")

__all__ = [
    "AuxStructure",
    "VictimBuffer",
    "MissCache",
    "StreamBuffer",
    "AugmentedCache",
    "AUX_COMBOS",
    "make_aux_structures",
    "replay_aux",
    "simulate_aux",
    "simulate_aux_sweep",
]

__getattr__, __dir__ = attach(
    __name__,
    {
        "augmented": ("AugmentedCache",),
        "fast": ("make_aux_structures", "replay_aux", "simulate_aux", "simulate_aux_sweep"),
        "structures": ("AuxStructure", "MissCache", "StreamBuffer", "VictimBuffer"),
    },
)
