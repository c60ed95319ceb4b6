"""HPC ``spmv`` — sparse matrix-vector product over a random CSR matrix.

Unlike calculix's banded grid Laplacian, this matrix has *uniformly random*
column positions, so the ``x[col]`` gathers scatter across the whole source
vector — the irregular-gather pattern of graph/ML sparse kernels.  The
product is verified against ``scipy.sparse`` in the tests.
"""

from __future__ import annotations

import numpy as np

from ...trace.recorder import Recorder
from ..base import Workload, register_workload

__all__ = ["SpmvWorkload", "random_csr"]


def random_csr(n: int, nnz_per_row: int, rng: np.random.Generator):
    """(row_ptr, col_idx, values) with sorted random columns per row."""
    k = min(nnz_per_row, n)
    cols = np.empty(n * k, dtype=np.int64)
    for i in range(n):
        cols[i * k : (i + 1) * k] = np.sort(rng.choice(n, size=k, replace=False))
    values = rng.normal(0, 1, size=cols.size)
    return np.arange(n + 1, dtype=np.int64) * k, cols, values


@register_workload
class SpmvWorkload(Workload):
    name = "spmv"
    suite = "hpc"
    description = "CSR sparse matrix-vector product, random sparsity"
    access_pattern = "CSR streaming + random x[col] gathers"

    def kernel(self, m: Recorder, scale: float) -> None:
        n = self.scaled(2048, scale, minimum=32)
        nnz_per_row = self.scaled(16, scale, minimum=2)
        iters = self.scaled(3, scale, minimum=1)
        row_ptr, col_idx, values = random_csr(n, nnz_per_row, m.rng)
        rp_arr = m.space.heap_array(8, n + 1, "row_ptr")
        ci_arr = m.space.heap_array(4, col_idx.size, "col_idx")
        va_arr = m.space.heap_array(8, values.size, "values")
        x_arr = m.space.heap_array(8, n, "x")
        y_arr = m.space.heap_array(8, n, "y")

        x = m.rng.normal(0, 1, size=n)
        y = np.zeros(n)
        for _ in range(iters):
            for i in range(n):
                m.load_elem(rp_arr, i)
                m.load_elem(rp_arr, i + 1)
                acc = 0.0
                for k in range(int(row_ptr[i]), int(row_ptr[i + 1])):
                    m.load_elem(ci_arr, k)
                    m.load_elem(va_arr, k)
                    j = int(col_idx[k])
                    m.load_elem(x_arr, j)
                    acc += float(values[k]) * x[j]
                y[i] = acc
                m.store_elem(y_arr, i)
        m.builder.meta["checksum"] = float(y.sum())
        m.builder.meta["n"] = n
        m.builder.meta["nnz"] = int(col_idx.size)
