"""Sparse linear solves and eigensolves for the FE problems.

The plain linear solve is a thin wrapper over :mod:`repro.linalg` -- the
shared solver core -- giving the FE layer one SuperLU direct solve with
:class:`~repro.errors.FEMError` semantics, a forensic report on failure
and one ``fem.solve`` telemetry span per solve.  The parallel-plate
problem solves each geometry once, for the unit drive, and scales that
solution for every drive point, so a geometry costs one factorization
and a drive point none.  FE failures outside a solve (a non-finite drive)
carry the same report through :func:`solve_failure`.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .. import telemetry
from ..errors import FEMError, LinAlgError
from ..linalg import FactorizedSolver

__all__ = ["solve_sparse", "solve_failure", "solve_generalized_eig"]


def solve_sparse(matrix: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` by SuperLU.

    A singular matrix (usually missing boundary conditions, i.e. a
    modelling error) raises :class:`~repro.errors.FEMError` with a
    forensic report.
    """
    rhs = np.asarray(rhs, dtype=float)
    if matrix.shape[0] != matrix.shape[1]:
        raise FEMError("system matrix must be square")
    if rhs.shape != (matrix.shape[0],):
        raise FEMError(
            f"right-hand side has shape {rhs.shape}, expected ({matrix.shape[0]},)")
    try:
        with telemetry.span("fem.solve", size=int(matrix.shape[0])):
            if not isinstance(matrix, sp.csr_matrix):
                matrix = sp.csr_matrix(matrix)
            return FactorizedSolver("superlu").solve(matrix, rhs)
    except LinAlgError as exc:
        raise solve_failure(f"sparse direct solve failed: {exc}",
                            matrix=matrix,
                            size=int(matrix.shape[0])) from exc


def solve_failure(message: str, matrix: sp.spmatrix | None = None,
                  **context) -> FEMError:
    """A :class:`~repro.errors.FEMError` carrying the forensic report of
    a failed FE solve (with the structural diagnosis of ``matrix`` when
    given).  The failure path always captures forensics (no knob: FE
    callers have no SimulationOptions, and the diagnosis only runs on
    failure)."""
    error = FEMError(message)
    error.report = telemetry.forensics.newton_failure(
        kind="fem", analysis="fem.direct", message=message,
        error_type="FEMError", matrix=matrix, context=context)
    return error


def solve_generalized_eig(stiffness, mass, count: int, *,
                          method: str = "auto",
                          sigma: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` eigenpairs of ``K phi = lambda M phi`` nearest ``sigma``.

    With the default ``sigma = 0.0`` (and positive-semidefinite ``K``) these
    are the lowest modes.  The returned eigenvalues are ascending
    (``lambda = omega^2`` for a structural system) and the eigenvectors are
    mass-normalized columns (``phi.T @ M @ phi == I``) with a deterministic
    sign convention (the largest-magnitude component of each mode is
    positive).  Both paths honour ``sigma``, so the selected modes do not
    depend on which algorithm runs.

    ``method`` selects the algorithm: ``"dense"`` (LAPACK ``eigh`` on
    densified matrices), ``"sparse"`` (ARPACK shift-invert about ``sigma``,
    appropriate for large sparse systems where only a few modes are needed)
    or ``"auto"`` which picks the sparse path only when both matrices are
    sparse and the requested mode count is a small fraction of the system.
    """
    n = stiffness.shape[0]
    if stiffness.shape != (n, n) or mass.shape != (n, n):
        raise FEMError(
            f"stiffness and mass must be square and matching, got "
            f"{stiffness.shape} and {mass.shape}")
    if count < 1 or count > n:
        raise FEMError(f"requested {count} modes of a {n}-DOF system")
    if method not in ("auto", "dense", "sparse"):
        raise FEMError(f"unknown eigensolve method {method!r} "
                       "(use 'auto', 'dense' or 'sparse')")
    is_sparse = sp.issparse(stiffness) and sp.issparse(mass)
    if method == "auto":
        # ARPACK needs count < n and only wins when few modes are wanted.
        method = "sparse" if is_sparse and count < max(1, n // 4) else "dense"
    if method == "sparse" and count >= n:
        method = "dense"
    with telemetry.span("fem.eig", method=method, count=int(count), size=int(n)):
        if method == "dense":
            k_dense = stiffness.toarray() if sp.issparse(stiffness) else np.asarray(
                stiffness, dtype=float)
            m_dense = mass.toarray() if sp.issparse(mass) else np.asarray(mass, dtype=float)
            def _nearest_sigma():
                # Full decomposition, then keep the modes nearest the shift
                # (matching the sparse shift-invert selection), re-sorted
                # ascending.
                all_values, all_vectors = la.eigh(k_dense, m_dense)
                nearest = np.argsort(np.abs(all_values - sigma))[:count]
                nearest = nearest[np.argsort(all_values[nearest])]
                return all_values[nearest], all_vectors[:, nearest]

            try:
                if sigma == 0.0:
                    values, vectors = la.eigh(k_dense, m_dense,
                                              subset_by_index=[0, count - 1])
                    if values[0] < 0.0:
                        # Indefinite K (buckling/prestress): "lowest" is not
                        # "nearest zero", so redo with the uniform selection.
                        values, vectors = _nearest_sigma()
                else:
                    values, vectors = _nearest_sigma()
            except la.LinAlgError as exc:
                raise FEMError(f"generalized eigensolve failed: {exc}") from exc
        else:
            k_sparse = sp.csc_matrix(stiffness)
            m_sparse = sp.csc_matrix(mass)
            try:
                values, vectors = spla.eigsh(k_sparse, k=count, M=m_sparse,
                                             sigma=sigma, which="LM",
                                             mode="normal")
            except (spla.ArpackError, RuntimeError) as exc:
                raise FEMError(f"sparse shift-invert eigensolve failed: {exc}") from exc
            order = np.argsort(values)
            values = values[order]
            vectors = vectors[:, order]
    # eigh/eigsh already M-orthonormalize; fix the sign for determinism.
    for j in range(vectors.shape[1]):
        pivot = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[pivot, j] < 0.0:
            vectors[:, j] = -vectors[:, j]
    return np.asarray(values, dtype=float), np.asarray(vectors, dtype=float)
