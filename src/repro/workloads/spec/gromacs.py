"""SPEC-like ``gromacs`` — molecular-dynamics nonbonded force kernel.

Mechanistic stand-in for 435.gromacs' ``inl1100``-style inner loop:
particles in a periodic box, a Verlet neighbour list, Lennard-Jones force
accumulation.  Per pair: two position gathers (scattered), force
read-modify-writes, neighbour-list streaming.  Momentum conservation of
the integrated system (ΣF ≈ 0) is asserted in tests.
"""

from __future__ import annotations

import numpy as np

from ...trace.recorder import Recorder
from ..base import Workload, register_workload

__all__ = ["GromacsWorkload", "build_neighbor_list"]


def build_neighbor_list(pos: np.ndarray, box: float, cutoff: float) -> list[tuple[int, int]]:
    """All pairs within ``cutoff`` under periodic wrap (O(n²) reference)."""
    n = pos.shape[0]
    pairs = []
    for i in range(n):
        d = pos - pos[i]
        d -= box * np.round(d / box)
        dist2 = (d * d).sum(axis=1)
        near = np.flatnonzero(dist2[i + 1 :] < cutoff * cutoff) + (i + 1)
        pairs.extend((i, j) for j in near.tolist())
    return pairs


@register_workload
class GromacsWorkload(Workload):
    name = "gromacs"
    suite = "spec"
    description = "Lennard-Jones force loop over a Verlet neighbour list"
    access_pattern = "neighbour-list streaming + scattered position gathers"

    def kernel(self, m: Recorder, scale: float) -> None:
        n = self.scaled(450, scale, minimum=16)
        steps = self.scaled(12, scale, minimum=2)
        box = 10.0
        pos_arr = m.space.mmap_array(24, n, "positions")  # 3 doubles
        frc_arr = m.space.mmap_array(24, n, "forces")
        nbl_arr = m.space.heap_array(8, 64 * n, "neighbor_list")

        pos = m.rng.uniform(0, box, size=(n, 3))
        vel = m.rng.normal(0, 0.1, size=(n, 3))
        cutoff = 2.2
        dt = 1e-4
        total_f = np.zeros(3)
        for step in range(steps):
            pairs = build_neighbor_list(pos, box, cutoff)
            forces = np.zeros((n, 3))
            for k, (i, j) in enumerate(pairs):
                m.load_elem(nbl_arr, k % nbl_arr.length)
                m.load_elem(pos_arr, i)
                m.load_elem(pos_arr, j)
                d = pos[j] - pos[i]
                d -= box * np.round(d / box)
                r2 = float(d @ d)
                if r2 < 1e-12:
                    continue
                inv6 = (1.0 / r2) ** 3
                fmag = 24.0 * inv6 * (2.0 * inv6 - 1.0) / r2
                f = fmag * d
                forces[i] -= f
                forces[j] += f
                m.load_elem(frc_arr, i)
                m.store_elem(frc_arr, i)
                m.load_elem(frc_arr, j)
                m.store_elem(frc_arr, j)
            # Leapfrog update (sequential sweep).
            vel += dt * np.clip(forces, -1e4, 1e4)
            pos = (pos + dt * vel) % box
            for i in range(n):
                m.load_elem(frc_arr, i)
                m.store_elem(pos_arr, i)
            total_f = forces.sum(axis=0)
        m.builder.meta["net_force"] = [float(v) for v in total_f]
        m.builder.meta["n_atoms"] = n
