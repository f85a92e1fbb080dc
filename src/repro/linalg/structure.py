"""Sparsity-pattern caching for repeated triplet assemblies.

The MNA and FE assemblers produce COO triplets ``(row, col, value)`` by
replaying every device/element stamp.  The *pattern* of those triplets --
which (row, col) pairs appear, in which order -- is a property of the
topology, not of the values: on the next Newton iteration or time point the
same stamps land on the same coordinates with different numbers.  Rebuilding
the CSR matrix from scratch (sort, deduplicate, sum) on every assembly
therefore repeats work whose answer never changes.

:class:`StructureCache` computes the COO->CSR reduction once and keeps the
triplet->slot mapping.  Subsequent assemblies with an unchanged pattern
reduce to one ``np.bincount`` (summing duplicate stamps into their CSR slot)
and a copy-free CSR construction.  The pattern check is an exact array
comparison, so a changed topology -- a device added or removed, a stamp that
vanished because a derivative became exactly zero -- transparently falls
back to a rebuild and bumps :attr:`generation`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .. import telemetry
from ..errors import LinAlgError

__all__ = ["StructureCache"]


class StructureCache:
    """Cache of one triplet stream's COO->CSR reduction.

    Attributes
    ----------
    generation:
        Incremented on every pattern rebuild; callers can use it as a cheap
        structure tag (e.g. in factorization-cache keys).
    rebuilds / reuses:
        Diagnostic counters of pattern rebuilds versus cached assemblies.
    """

    def __init__(self) -> None:
        self.generation = 0
        self.rebuilds = 0
        self.reuses = 0
        self._n = 0
        self._rows: np.ndarray | None = None
        self._cols: np.ndarray | None = None
        self._mapping: np.ndarray | None = None
        self._indices: np.ndarray | None = None
        self._indptr: np.ndarray | None = None
        self._nnz = 0

    # ------------------------------------------------------------------ build
    def assemble(self, rows, cols, values, n: int) -> sp.csr_matrix:
        """CSR matrix of the triplet stream, summing duplicate coordinates.

        ``rows``/``cols``/``values`` are equal-length sequences; ``n`` is the
        system size.  Duplicates are summed in triplet order, identically on
        the cached and rebuild paths, so the result does not depend on
        whether the pattern was reused.
        """
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        values = np.asarray(values, dtype=float)
        if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
            raise LinAlgError("triplet arrays must be equal-length 1-D sequences")
        if rows.size and (rows.min() < 0 or cols.min() < 0
                          or rows.max() >= n or cols.max() >= n):
            raise LinAlgError(f"triplet coordinates out of range for size {n}")
        if not self._matches(rows, cols, n):
            self._rebuild(rows, cols, n)
        else:
            self.reuses += 1
            telemetry.registry.inc("linalg.structure_reuses", 1)
        data = np.bincount(self._mapping, weights=values,
                           minlength=self._nnz) if values.size else \
            np.zeros(self._nnz)
        return sp.csr_matrix((data, self._indices, self._indptr),
                             shape=(n, n), copy=False)

    def assemble_batch(self, rows, cols, values, n: int) -> list[sp.csr_matrix]:
        """Per-lane CSR matrices of a ``(T, B)`` batched value array.

        The pattern reduction (sort, deduplicate, slot mapping) runs once
        for the whole batch; each of the B lanes then costs one
        ``np.bincount`` value reduction -- the batched analogue of
        :meth:`assemble` for campaign points that share a topology.  Lane b
        of the result equals ``assemble(rows, cols, values[:, b], n)``
        exactly (identical summation order).
        """
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        values = np.asarray(values, dtype=float)
        if rows.ndim != 1 or rows.shape != cols.shape:
            raise LinAlgError("triplet arrays must be equal-length 1-D sequences")
        if values.ndim != 2 or values.shape[0] != rows.size:
            raise LinAlgError(
                f"batched values must have shape ({rows.size}, B), got "
                f"{values.shape}")
        if rows.size and (rows.min() < 0 or cols.min() < 0
                          or rows.max() >= n or cols.max() >= n):
            raise LinAlgError(f"triplet coordinates out of range for size {n}")
        if not self._matches(rows, cols, n):
            self._rebuild(rows, cols, n)
        else:
            self.reuses += 1
            telemetry.registry.inc("linalg.structure_reuses", 1)
        lanes = []
        for b in range(values.shape[1]):
            data = np.bincount(self._mapping, weights=values[:, b],
                               minlength=self._nnz) if rows.size else \
                np.zeros(self._nnz)
            lanes.append(sp.csr_matrix((data, self._indices, self._indptr),
                                       shape=(n, n), copy=False))
        return lanes

    # ---------------------------------------------------------------- helpers
    def _matches(self, rows: np.ndarray, cols: np.ndarray, n: int) -> bool:
        return (self._rows is not None and n == self._n
                and rows.size == self._rows.size
                and np.array_equal(rows, self._rows)
                and np.array_equal(cols, self._cols))

    def _rebuild(self, rows: np.ndarray, cols: np.ndarray, n: int) -> None:
        if rows.size:
            order = np.lexsort((cols, rows))
            sorted_rows = rows[order]
            sorted_cols = cols[order]
            first = np.ones(order.size, dtype=bool)
            first[1:] = ((sorted_rows[1:] != sorted_rows[:-1])
                         | (sorted_cols[1:] != sorted_cols[:-1]))
            slot_of_sorted = np.cumsum(first) - 1
            mapping = np.empty(order.size, dtype=np.intp)
            mapping[order] = slot_of_sorted
            unique_rows = sorted_rows[first]
            unique_cols = sorted_cols[first]
        else:
            mapping = np.zeros(0, dtype=np.intp)
            unique_rows = np.zeros(0, dtype=np.intp)
            unique_cols = np.zeros(0, dtype=np.intp)
        self._rows = rows
        self._cols = cols
        self._n = n
        self._mapping = mapping
        self._nnz = unique_rows.size
        self._indices = unique_cols.astype(np.int32, copy=False)
        self._indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(unique_rows, minlength=n)))
        ).astype(np.int32, copy=False)
        self.generation += 1
        self.rebuilds += 1
        telemetry.registry.inc("linalg.structure_rebuilds", 1)

    def __repr__(self) -> str:
        return (f"StructureCache(n={self._n}, nnz={self._nnz}, "
                f"{self.rebuilds} rebuilds / {self.reuses} reuses)")
