"""Batched factorizations: factor and back-substitute B systems at once.

A parameter campaign solves the *same* structure B times with different
values.  Serially that is B independent LU factor/solve round trips through
Python; batched, the dense backend holds the ``(B, n, n)`` stack and solves
it with one NumPy ``np.linalg.solve`` gufunc call (LAPACK ``gesv`` looped
over the lanes in compiled code), and the sparse backend performs the
SuperLU symbolic analysis (column ordering) once and reuses it for every
numeric factorization.

Failure stays per-lane: a singular or non-finite lane never raises -- it is
flagged in :attr:`BatchedFactorization.failed` and its solutions come back
as NaN rows, so the batched Newton driver can convert exactly that point to
the serial error path while the rest of the batch continues.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .. import telemetry
from ..errors import LinAlgError

__all__ = ["BatchedFactorization", "BatchedDenseLU", "BatchedSparseLU",
           "batched_factorize", "BATCH_BACKENDS"]

BATCH_BACKENDS = ("auto", "dense", "superlu")


class BatchedFactorization:
    """Handle to B factored systems sharing one structure.

    Attributes
    ----------
    batch, n:
        Number of lanes and system size.
    failed:
        Boolean ``(B,)`` mask of lanes whose system is singular or
        non-finite.  Failed lanes produce NaN solution rows instead of
        raising; the caller decides how to retire them.  The mask is final
        only after the first :meth:`solve` returns: a non-finite lane is
        flagged when the handle is built, but the dense backend finds an
        exactly singular lane only while solving, so callers read the mask
        after each solve.
    """

    backend = "abstract"

    def __init__(self, batch: int, n: int) -> None:
        self.batch = int(batch)
        self.n = int(n)
        self.failed = np.zeros(self.batch, dtype=bool)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Back-substitute a ``(B, n)`` right-hand-side block."""
        raise NotImplementedError

    def solve_transposed(self, rhs: np.ndarray) -> np.ndarray:
        """Back-substitute ``A_b^T x_b = rhs_b`` per lane (same factors)."""
        raise NotImplementedError

    def take(self, lanes: np.ndarray) -> "BatchedFactorization":
        """A handle over ``lanes`` only, sharing their factors (nothing is
        factored again)."""
        raise NotImplementedError

    def put(self, lanes: np.ndarray,
            part: "BatchedFactorization") -> "BatchedFactorization":
        """A handle equal to this one with ``lanes`` replaced by the lanes
        of ``part`` (a handle of ``len(lanes)`` lanes); nothing is factored
        again and this handle is left as it was."""
        raise NotImplementedError

    def _check_rhs(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.batch, self.n):
            raise LinAlgError(
                f"batched right-hand side has shape {rhs.shape}, expected "
                f"({self.batch}, {self.n})")
        return rhs


class BatchedDenseLU(BatchedFactorization):
    """A held ``(B, n, n)`` matrix stack solved by NumPy's stacked ``gesv``.

    Every :meth:`solve` hands the healthy lanes to one
    ``np.linalg.solve`` gufunc call, which runs LAPACK ``getrf``/``getrs``
    per lane in compiled code.  Re-solving the same held stack is
    deterministic, so chord and reuse callers get identical bits every time.

    Lanes with non-finite entries are flagged when the handle is built.  An
    exactly singular lane makes the stacked call raise; the healthy lanes
    are then solved one gufunc call per lane, and each lane that raises on
    its own is flagged (and counted in ``linalg.batch.singular_lanes``) and
    skipped by every later solve.
    """

    backend = "dense"

    def __init__(self, matrices: np.ndarray) -> None:
        matrices = np.asarray(matrices, dtype=float)
        if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
            raise LinAlgError(
                f"batched dense input must have shape (B, n, n), got "
                f"{matrices.shape}")
        super().__init__(matrices.shape[0], matrices.shape[1])
        # Held by reference (no copy), like the serial dense handle: batched
        # Newton assembles a fresh stack per Jacobian and never mutates it.
        self._matrices = matrices
        self.failed = ~np.isfinite(matrices).all(axis=(1, 2))

    def _solve(self, matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        rhs = self._check_rhs(rhs)
        ok = ~self.failed
        solutions = np.full((self.batch, self.n), np.nan)
        try:
            if ok.all():
                return _gesv(matrices, rhs)
            solutions[ok] = _gesv(matrices[ok], rhs[ok])
        except np.linalg.LinAlgError:
            # Some lane is exactly singular: solve the healthy lanes one by
            # one and flag each lane that raises on its own.
            for b in np.flatnonzero(ok):
                try:
                    solutions[b] = _gesv(matrices[b:b + 1], rhs[b:b + 1])
                except np.linalg.LinAlgError:
                    self.failed[b] = True
                    telemetry.registry.inc("linalg.batch.singular_lanes")
        return solutions

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._solve(self._matrices, rhs)

    def take(self, lanes: np.ndarray) -> "BatchedDenseLU":
        handle = BatchedDenseLU(self._matrices[lanes])
        handle.failed = self.failed[lanes]
        return handle

    def put(self, lanes: np.ndarray, part: "BatchedDenseLU") -> "BatchedDenseLU":
        matrices = self._matrices.copy()
        matrices[lanes] = part._matrices
        handle = BatchedDenseLU(matrices)
        handle.failed = self.failed.copy()
        handle.failed[lanes] = part.failed
        return handle

    def solve_transposed(self, rhs: np.ndarray) -> np.ndarray:
        telemetry.registry.inc("linalg.transpose_solves", self.batch)
        return self._solve(self._matrices.swapaxes(1, 2), rhs)


def _gesv(matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrices[b] @ x[b] = rhs[b]`` for every lane in one call."""
    return np.linalg.solve(matrices, rhs[:, :, None])[:, :, 0]


class BatchedSparseLU(BatchedFactorization):
    """B SuperLU numeric factorizations sharing one symbolic analysis.

    The first healthy lane runs the full ``splu`` (COLAMD column ordering +
    numeric factorization); its column permutation is then applied to every
    later lane, which is factored with ``permc_spec="NATURAL"`` -- the
    numeric work on the identically permuted matrix, without re-running the
    ordering.  The pattern is shared across lanes by construction (the
    campaign batches points with one :class:`~repro.linalg.StructureCache`
    pattern), so the reused ordering is the one COLAMD would have produced.
    """

    backend = "superlu"

    def __init__(self, matrices: Sequence) -> None:
        lanes = [sp.csc_matrix(m) for m in matrices]
        if not lanes:
            raise LinAlgError("batched sparse input must contain >= 1 matrix")
        n = lanes[0].shape[0]
        super().__init__(len(lanes), n)
        perm_c: np.ndarray | None = None
        #: Per lane: None (failed), or ``(lu, perm)`` with ``perm`` the
        #: column permutation ``lu`` was factored under (None: its own).
        self._lus: list[tuple[object, np.ndarray | None] | None] = []
        for b, lane in enumerate(lanes):
            if lane.shape != (n, n):
                raise LinAlgError("batched sparse lanes must share one shape")
            try:
                if perm_c is None:
                    lu = spla.splu(lane)
                    perm_c = np.asarray(lu.perm_c)
                    self._lus.append((lu, None))
                else:
                    lu = spla.splu(lane[:, perm_c], permc_spec="NATURAL")
                    self._lus.append((lu, perm_c))
            except RuntimeError:
                self._lus.append(None)
                self.failed[b] = True

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = self._check_rhs(rhs)
        solutions = np.full((self.batch, self.n), np.nan)
        for b, entry in enumerate(self._lus):
            if entry is None:
                continue
            lu, perm = entry
            if perm is not None:
                # lu factors A[:, perm]; its solution y satisfies
                # A x = b with x[perm] = y.
                y = lu.solve(rhs[b])
                solutions[b, perm] = y
            else:
                solutions[b] = lu.solve(rhs[b])
        return solutions

    def solve_transposed(self, rhs: np.ndarray) -> np.ndarray:
        rhs = self._check_rhs(rhs)
        telemetry.registry.inc("linalg.transpose_solves", self.batch)
        solutions = np.full((self.batch, self.n), np.nan)
        for b, entry in enumerate(self._lus):
            if entry is None:
                continue
            lu, perm = entry
            if perm is not None:
                # (A[:, perm])^T z = b[perm]  <=>  A^T z = b.
                solutions[b] = lu.solve(rhs[b][perm], trans="T")
            else:
                solutions[b] = lu.solve(rhs[b], trans="T")
        return solutions

    def _with(self, lus: list) -> "BatchedSparseLU":
        handle = object.__new__(BatchedSparseLU)
        BatchedFactorization.__init__(handle, len(lus), self.n)
        handle._lus = lus
        handle.failed = np.array([entry is None for entry in lus], dtype=bool)
        return handle

    def take(self, lanes: np.ndarray) -> "BatchedSparseLU":
        return self._with([self._lus[lane] for lane in lanes])

    def put(self, lanes: np.ndarray,
            part: "BatchedSparseLU") -> "BatchedSparseLU":
        lus = list(self._lus)
        for lane, entry in zip(lanes.tolist(), part._lus):
            lus[lane] = entry
        return self._with(lus)


def batched_factorize(matrices, backend: str = "auto") -> BatchedFactorization:
    """Factor a batch of same-structure systems.

    ``matrices`` is either a dense ``(B, n, n)`` array or a sequence of B
    sparse matrices.  ``backend`` mirrors the serial solver names: ``dense``
    (stacked gufunc ``gesv``), ``superlu`` (shared-symbolic SuperLU) or
    ``auto`` (follow the input representation).  Each lane counts as one
    ``linalg.factorizations`` in :mod:`repro.telemetry.registry`, so
    campaign solver stats stay comparable between the serial and batched
    paths.
    """
    dense_input = isinstance(matrices, np.ndarray)
    if backend not in BATCH_BACKENDS:
        raise LinAlgError(
            f"unknown batched backend {backend!r} (use one of {BATCH_BACKENDS})")
    if backend == "auto":
        backend = "dense" if dense_input else "superlu"
    if backend == "dense":
        if not dense_input:
            matrices = np.stack([np.asarray(sp.csr_matrix(m).toarray())
                                 for m in matrices])
        handle: BatchedFactorization = BatchedDenseLU(matrices)
    else:
        if dense_input:
            matrices = [sp.csc_matrix(matrices[b])
                        for b in range(matrices.shape[0])]
        handle = BatchedSparseLU(matrices)
    telemetry.registry.inc("linalg.factorizations", handle.batch)
    return handle
