"""MiBench ``adpcm`` — IMA ADPCM speech encoder.

Streams 16-bit PCM samples through the real IMA ADPCM compression loop:
sequential input reads, half-rate output writes, a hot 89-entry step-size
table, a 16-entry index-adjust table and a coder state struct that is
loaded/stored every sample.  Streaming with a tiny pinned working set —
uniform accesses, minimal conflict misses (the paper's Figure 4 shows 0%
change for most indexing schemes on adpcm).
"""

from __future__ import annotations

import math

from ...trace.recorder import Recorder
from ..base import Workload, register_workload

__all__ = ["AdpcmWorkload", "STEP_SIZES", "INDEX_ADJUST"]

STEP_SIZES = [
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37, 41, 45,
    50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173, 190, 209, 230,
    253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658, 724, 796, 876, 963,
    1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066, 2272, 2499, 2749, 3024, 3327,
    3660, 4026, 4428, 4871, 5358, 5894, 6484, 7132, 7845, 8630, 9493, 10442,
    11487, 12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794,
    32767,
]

INDEX_ADJUST = [-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8]


def encode_samples(samples: list[int]) -> list[int]:
    """Reference IMA ADPCM encoder (the kernel's arithmetic, trace-free)."""
    valprev, index = 0, 0
    out = []
    for s in samples:
        step = STEP_SIZES[index]
        diff = s - valprev
        sign = 8 if diff < 0 else 0
        if sign:
            diff = -diff
        delta = 0
        vpdiff = step >> 3
        if diff >= step:
            delta = 4
            diff -= step
            vpdiff += step
        if diff >= step >> 1:
            delta |= 2
            diff -= step >> 1
            vpdiff += step >> 1
        if diff >= step >> 2:
            delta |= 1
            vpdiff += step >> 2
        valprev = valprev - vpdiff if sign else valprev + vpdiff
        valprev = max(-32768, min(32767, valprev))
        delta |= sign
        index = max(0, min(len(STEP_SIZES) - 1, index + INDEX_ADJUST[delta]))
        out.append(delta)
    return out


def decode_samples(deltas: list[int]) -> list[int]:
    """Reference IMA ADPCM decoder, for the round-trip correctness test."""
    valprev, index = 0, 0
    out = []
    for delta in deltas:
        step = STEP_SIZES[index]
        sign = delta & 8
        mag = delta & 7
        vpdiff = step >> 3
        if mag & 4:
            vpdiff += step
        if mag & 2:
            vpdiff += step >> 1
        if mag & 1:
            vpdiff += step >> 2
        valprev = valprev - vpdiff if sign else valprev + vpdiff
        valprev = max(-32768, min(32767, valprev))
        index = max(0, min(len(STEP_SIZES) - 1, index + INDEX_ADJUST[delta]))
        out.append(valprev)
    return out


@register_workload
class AdpcmWorkload(Workload):
    name = "adpcm"
    suite = "mibench"
    description = "IMA ADPCM encoding of a synthesised speech-like signal"
    access_pattern = "input/output streaming + hot step tables + coder state"

    def kernel(self, m: Recorder, scale: float) -> None:
        n = self.scaled(40_000, scale, minimum=64)
        pcm = m.space.heap_array(2, n, "pcm_in")
        out = m.space.heap_array(1, (n + 1) // 2, "adpcm_out")
        step_tbl = m.space.static_array(2, len(STEP_SIZES), "step_sizes")
        adj_tbl = m.space.static_array(1, 16, "index_adjust")
        state = m.space.static_array(4, 2, "coder_state")  # valprev, index

        valprev, index = 0, 0
        nibble_hi = 0
        normal = m.rng.normal
        for i in range(n):
            # Speech-ish signal: a few modulated tones plus noise, drawn as
            # the encoder reads it, so a cut trace draws only what it keeps.
            sample = int(8000 * math.sin(0.03 * i) * math.sin(0.0011 * i) + normal(0, 300))
            m.load_elem(pcm, i)
            m.load_elem(state, 0)
            m.load_elem(state, 1)
            m.load_elem(step_tbl, index)
            step = STEP_SIZES[index]
            diff = sample - valprev
            sign = 8 if diff < 0 else 0
            if sign:
                diff = -diff
            # Real IMA quantisation (3-bit magnitude via successive halves).
            delta = 0
            vpdiff = step >> 3
            if diff >= step:
                delta = 4
                diff -= step
                vpdiff += step
            if diff >= step >> 1:
                delta |= 2
                diff -= step >> 1
                vpdiff += step >> 1
            if diff >= step >> 2:
                delta |= 1
                vpdiff += step >> 2
            valprev = valprev - vpdiff if sign else valprev + vpdiff
            valprev = max(-32768, min(32767, valprev))
            delta |= sign
            m.load_elem(adj_tbl, delta)
            index = max(0, min(len(STEP_SIZES) - 1, index + INDEX_ADJUST[delta]))
            m.store_elem(state, 0)
            m.store_elem(state, 1)
            if i & 1:
                m.store_elem(out, i // 2)  # pack two nibbles per byte
            else:
                nibble_hi = delta
        m.builder.meta["final_index"] = index
        m.builder.meta["final_valprev"] = valprev
        del nibble_hi
