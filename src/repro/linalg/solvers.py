"""Backend-abstracted factorized linear solvers.

Every layer of the reproduction funnels its ``A x = b`` solves through
:class:`FactorizedSolver`: the MNA Newton loop, the AC sweep, the FE field
and harmonic solves and the reduced-order-model analyses.  The central
abstraction is the :class:`Factorization` handle -- factor once, then
back-substitute as many right-hand sides as the caller can reuse it for.
That split is what makes the solver-reuse optimizations of the analysis
layer possible: a chord-Newton iteration, a fixed-step transient or a
value-updated AC sweep all hold on to one factorization and pay only the
back-substitution per point.

Backends
--------
``dense``
    LAPACK LU (``getrf``/``getrs`` -- the same routines behind
    ``np.linalg.solve``), real or complex.
``superlu``
    SciPy's SuperLU direct factorization of a sparse matrix.
``auto``
    By matrix type: LAPACK banded LU (``gbtrf``/``gbtrs``) for a
    :mod:`scipy.sparse` DIA matrix, ``superlu`` for any other sparse
    matrix, ``dense`` otherwise.  A DIA matrix is how a caller says its
    matrix is narrow-banded (the structured FE mesh's free-node block);
    band storage factors it several times faster than SuperLU, whose
    column ordering dominates at that size.

All failure paths raise :class:`~repro.errors.LinAlgError` so callers can
map them onto their layer's exception type.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .. import telemetry
from ..errors import LinAlgError

__all__ = ["Factorization", "FactorizedSolver", "BACKENDS"]

BACKENDS = ("auto", "dense", "superlu")

#: Iteration cap of the Hager/Higham 1-norm inverse estimator.  Convergence
#: in 2-3 iterations is typical; the cap only bounds pathological cycling.
_CONDEST_MAXITER = 5


def _norm1(matrix) -> float:
    """The matrix 1-norm (max absolute column sum), dense or sparse."""
    if matrix.shape[0] == 0:
        return 0.0
    if sp.issparse(matrix):
        return float(np.abs(matrix).sum(axis=0).max())
    return float(np.abs(matrix).sum(axis=0).max())


def _hager_inverse_norm1(solve, solve_transposed, n: int) -> float:
    """Deterministic Hager/Higham estimate of ``||A^-1||_1``.

    Needs only forward and transposed back-substitutions against an existing
    factorization (no access to ``A^-1`` itself), which is what makes the
    condition estimate cheap: O(a few solves), not O(n^3).  The deliberately
    non-random final safeguard vector keeps repeated estimates bit-identical
    run to run (scipy's ``onenormest`` is randomized and therefore unusable
    for deterministic diagnostics).
    """
    if n == 0:
        return 0.0
    x = np.full(n, 1.0 / n)
    estimate = 0.0
    last_index = -1
    for _ in range(_CONDEST_MAXITER):
        y = np.asarray(solve(x))
        if not np.all(np.isfinite(y)):
            return float("inf")
        estimate = float(np.abs(y).sum())
        if np.iscomplexobj(y):
            magnitude = np.abs(y)
            unit = np.where(magnitude == 0.0, 1.0, magnitude)
            xi = np.where(magnitude == 0.0, 1.0 + 0.0j, y / unit)
        else:
            xi = np.sign(y)
            xi[xi == 0.0] = 1.0
        z = np.asarray(solve_transposed(xi))
        if not np.all(np.isfinite(z)):
            return float("inf")
        magnitude_z = np.abs(z)
        index = int(np.argmax(magnitude_z))
        if magnitude_z[index] <= abs(np.vdot(z, x)) or index == last_index:
            break
        x = np.zeros(n)
        x[index] = 1.0
        last_index = index
    # Higham's alternating safeguard vector catches the unit-vector blind
    # spots of the iteration above; keep the larger of the two bounds.
    safeguard = np.empty(n)
    for i in range(n):
        safeguard[i] = (1.0 + i / (n - 1) if n > 1 else 1.0) * (-1.0) ** i
    y = np.asarray(solve(safeguard))
    if not np.all(np.isfinite(y)):
        return float("inf")
    return max(estimate, 2.0 * float(np.abs(y).sum()) / (3.0 * n))


class Factorization:
    """Handle to a factored system matrix."""

    #: Name of the backend that produced this handle.
    backend: str = "abstract"

    def __init__(self, shape: tuple[int, int]) -> None:
        self.shape = shape
        #: Number of transposed back-substitutions performed (adjoint-solve
        #: instrumentation: the sensitivity layer counts these).
        self.transpose_solves = 0
        self._condition: float | None = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Back-substitute one right-hand side (or a column block)."""
        raise NotImplementedError

    def condition_estimate(self) -> float:
        """Cheap 1-norm condition-number estimate of the factored matrix.

        Dense and banded LU use LAPACK ``gecon``/``gbcon`` on the stored
        factors; SuperLU runs a deterministic Hager/Higham iteration on
        forward/transposed back-substitutions.  Costs a handful of
        back-substitutions, is cached on the handle, and never refactors.
        Returns ``inf`` for a numerically singular matrix.
        """
        if self._condition is None:
            self._condition = float(self._estimate_condition())
        return self._condition

    def _estimate_condition(self) -> float:
        raise LinAlgError(
            f"backend {self.backend!r} does not support condition estimation")

    def solve_transposed(self, rhs: np.ndarray) -> np.ndarray:
        """Back-substitute against ``A^T`` using the *same* factorization.

        This is the primitive behind adjoint sensitivities: the transposed
        system reuses the forward LU (LAPACK ``trans`` flag, SuperLU
        ``trans='T'``), so an adjoint solve never pays a second
        factorization.  The plain (non-conjugated) transpose is used for
        complex matrices -- the form the implicit-function theorem needs.
        """
        raise NotImplementedError

    def _check_rhs(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs)
        if rhs.ndim not in (1, 2) or rhs.shape[0] != self.shape[0]:
            raise LinAlgError(
                f"right-hand side has shape {rhs.shape}, expected "
                f"({self.shape[0]},) or ({self.shape[0]}, k)")
        return rhs


@functools.lru_cache(maxsize=None)
def _lapack(name: str, *dtypes: np.dtype):
    """LAPACK routine ``name`` for operands of ``dtypes``, resolved once.

    Picks the same precision prefix :func:`scipy.linalg.lu_factor` and
    :func:`scipy.linalg.lu_solve` would, without their per-call wrapper
    overhead.
    """
    (routine,) = la.get_lapack_funcs((name,), tuple(np.empty(0, dtype)
                                                    for dtype in dtypes))
    return routine


class _DenseLU(Factorization):
    """LAPACK ``getrf``/``getrs`` LU of a dense real or complex matrix."""

    backend = "dense"

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix)
        super().__init__(matrix.shape)
        # Reference only (no copy): needed lazily for the 1-norm in
        # condition_estimate(); analysis workspaces already retain the
        # assembled matrices, so this costs no extra memory.
        self._matrix = matrix
        if matrix.size == 0:
            self._lu = np.empty_like(matrix)
            self._piv = np.arange(0, dtype=np.int32)
            return
        self._lu, self._piv, info = _lapack("getrf", matrix.dtype)(matrix)
        if info < 0:
            raise LinAlgError(
                f"dense LU factorization failed (illegal argument {-info})")
        # ``info > 0`` is LAPACK's report of an exactly zero pivot.
        if info > 0 or not np.isfinite(np.diagonal(self._lu)).all():
            raise LinAlgError("matrix is singular (zero pivot in LU)")

    def _trs(self, rhs: np.ndarray, trans: int) -> np.ndarray:
        if rhs.size == 0:
            return np.empty_like(rhs, dtype=np.result_type(self._lu, rhs))
        solution, info = _lapack("getrs", self._lu.dtype, rhs.dtype)(
            self._lu, self._piv, rhs, trans=trans)
        if info != 0:
            raise LinAlgError(
                f"dense LU solve failed (illegal argument {-info})")
        return solution

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._trs(self._check_rhs(rhs), trans=0)

    def solve_transposed(self, rhs: np.ndarray) -> np.ndarray:
        rhs = self._check_rhs(rhs)
        self.transpose_solves += 1
        telemetry.registry.inc("linalg.transpose_solves", 1)
        if np.iscomplexobj(rhs) and not np.iscomplexobj(self._lu):
            # Real factorization, complex right-hand side: two real passes.
            return self._trs(np.ascontiguousarray(rhs.real), trans=1) \
                + 1j * self._trs(np.ascontiguousarray(rhs.imag), trans=1)
        # trans=1 is the plain transpose (no conjugation) for complex LUs.
        return self._trs(rhs, trans=1)

    def _estimate_condition(self) -> float:
        anorm = _norm1(self._matrix)
        if anorm == 0.0:
            return float("inf")
        rcond, info = _lapack("gecon", self._lu.dtype)(self._lu, anorm)
        if info < 0:
            raise LinAlgError(f"gecon failed (illegal argument {-info})")
        return float("inf") if rcond == 0.0 else 1.0 / float(rcond)


class _BandedLU(_DenseLU):
    """LAPACK ``gbtrf``/``gbtrs`` LU of a banded matrix given in DIA format.

    The factors live in LAPACK band storage: ``2 kl + ku + 1`` rows of
    ``n`` columns for ``kl`` sub- and ``ku`` super-diagonals, the top
    ``kl`` rows holding the fill-in of partial pivoting.  Only the storage
    and the LAPACK routines differ from :class:`_DenseLU`, whose forward
    and transposed solves this handle shares.
    """

    backend = "banded"

    def __init__(self, matrix) -> None:
        Factorization.__init__(self, matrix.shape)
        self._matrix = matrix
        n = matrix.shape[0]
        offsets = np.asarray(matrix.offsets)
        data = matrix.data
        inside = np.abs(offsets) < n
        offsets, data = offsets[inside], data[inside]
        self._kl = kl = int(max(0, -offsets.min(initial=0)))
        self._ku = ku = int(max(0, offsets.max(initial=0)))
        # Fortran order, so ``gbtrf`` factors this array in place.
        band = np.zeros((2 * kl + ku + 1, n), order="F",
                        dtype=np.result_type(data.dtype, np.float64))
        for offset, diagonal in zip(offsets.tolist(), data):
            # DIA keeps A[j - offset, j] in column j; band storage keeps it
            # in row kl + ku - offset.  Columns outside the matrix stay 0.
            first, last = max(0, offset), min(n, n + offset, diagonal.size)
            band[kl + ku - offset, first:last] += diagonal[first:last]
        self._lu, self._piv, info = _lapack("gbtrf", band.dtype)(
            band, kl, ku, overwrite_ab=1)
        if info < 0:
            raise LinAlgError(
                f"banded LU factorization failed (illegal argument {-info})")
        # ``info > 0`` is LAPACK's report of an exactly zero pivot; a
        # non-finite entry off U's diagonal shows in the solution instead.
        if info > 0 or not np.isfinite(self._lu[kl + ku]).all():
            raise LinAlgError("matrix is singular (zero pivot in banded LU)")

    def _trs(self, rhs: np.ndarray, trans: int) -> np.ndarray:
        if rhs.size == 0:
            return np.empty_like(rhs, dtype=np.result_type(self._lu, rhs))
        solution, info = _lapack("gbtrs", self._lu.dtype, rhs.dtype)(
            self._lu, self._kl, self._ku, rhs, self._piv, trans=trans)
        if info != 0:
            raise LinAlgError(
                f"banded LU solve failed (illegal argument {-info})")
        if not np.isfinite(solution).all():
            raise LinAlgError(
                "banded LU solve produced non-finite values")
        return solution

    def _estimate_condition(self) -> float:
        # Through CSR: DIA arithmetic multiplies the slots outside the
        # matrix by zero, which turns junk there (NaN) into a NaN norm.
        anorm = _norm1(self._matrix.tocsr())
        if anorm == 0.0:
            return float("inf")
        rcond, info = _lapack("gbcon", self._lu.dtype)(
            self._kl, self._ku, self._lu, self._piv, anorm)
        if info < 0:
            raise LinAlgError(f"gbcon failed (illegal argument {-info})")
        return float("inf") if rcond == 0.0 else 1.0 / float(rcond)


class _SparseLU(Factorization):
    """SuperLU factorization of a sparse (real or complex) matrix."""

    backend = "superlu"

    def __init__(self, matrix) -> None:
        matrix = sp.csc_matrix(matrix)
        super().__init__(matrix.shape)
        self._matrix = matrix
        self._complex = np.iscomplexobj(matrix)
        try:
            self._lu = spla.splu(matrix)
        except RuntimeError as exc:
            raise LinAlgError(f"sparse LU factorization failed: {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = self._check_rhs(rhs)
        if self._complex:
            solution = self._lu.solve(np.asarray(rhs, dtype=complex))
        elif np.iscomplexobj(rhs):
            # Real factorization, complex right-hand side: two real
            # back-substitutions instead of silently dropping Im(rhs).
            solution = self._lu.solve(np.ascontiguousarray(rhs.real)) \
                + 1j * self._lu.solve(np.ascontiguousarray(rhs.imag))
        else:
            solution = self._lu.solve(np.asarray(rhs, dtype=float))
        if not np.all(np.isfinite(solution)):
            raise LinAlgError(
                "sparse direct solve produced non-finite values "
                "(singular system; missing boundary conditions?)")
        return solution

    def solve_transposed(self, rhs: np.ndarray) -> np.ndarray:
        rhs = self._check_rhs(rhs)
        self.transpose_solves += 1
        telemetry.registry.inc("linalg.transpose_solves", 1)
        if self._complex:
            solution = self._lu.solve(np.asarray(rhs, dtype=complex), trans="T")
        elif np.iscomplexobj(rhs):
            solution = self._lu.solve(np.ascontiguousarray(rhs.real), trans="T") \
                + 1j * self._lu.solve(np.ascontiguousarray(rhs.imag), trans="T")
        else:
            solution = self._lu.solve(np.asarray(rhs, dtype=float), trans="T")
        if not np.all(np.isfinite(solution)):
            raise LinAlgError(
                "sparse transposed solve produced non-finite values "
                "(singular system; missing boundary conditions?)")
        return solution

    def _estimate_condition(self) -> float:
        anorm = _norm1(self._matrix)
        if anorm == 0.0:
            return float("inf")
        # Raw SuperLU back-substitutions: do not route through
        # solve_transposed(), whose counter feeds adjoint-solve accounting.
        dtype = complex if self._complex else float

        def forward(vec):
            return self._lu.solve(np.asarray(vec, dtype=dtype))

        def transposed(vec):
            return self._lu.solve(np.asarray(vec, dtype=dtype), trans="T")

        return anorm * _hager_inverse_norm1(forward, transposed, self.shape[0])


class FactorizedSolver:
    """Factory for :class:`Factorization` handles with backend selection.

    Parameters
    ----------
    backend:
        One of ``"auto"``, ``"dense"``, ``"superlu"``.
    """

    def __init__(self, backend: str = "auto") -> None:
        if backend not in BACKENDS:
            raise LinAlgError(
                f"unknown linear-solver backend {backend!r} (use one of {BACKENDS})")
        self.backend = backend
        #: Number of factorizations produced (reuse diagnostics).
        self.factorizations = 0

    def resolve_backend(self, matrix) -> str:
        """The concrete backend used for ``matrix``: under ``"auto"``,
        ``"banded"`` for a DIA matrix, ``"superlu"`` for any other sparse
        one and ``"dense"`` otherwise."""
        if self.backend != "auto":
            return self.backend
        if not sp.issparse(matrix):
            return "dense"
        return "banded" if matrix.format == "dia" else "superlu"

    def factorize(self, matrix) -> Factorization:
        """Factor ``matrix`` and return a reusable solve handle."""
        shape = matrix.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise LinAlgError(f"system matrix must be square, got {shape}")
        backend = self.resolve_backend(matrix)
        self.factorizations += 1
        telemetry.registry.inc("linalg.factorizations", 1)
        # Timing is only worth two perf_counter calls while someone collects.
        t0 = time.perf_counter() if telemetry.enabled() else None
        if backend == "dense":
            dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)
            handle = _DenseLU(dense)
        elif backend == "banded":
            handle = _BandedLU(matrix)
        else:
            handle = _SparseLU(matrix)
        if t0 is not None:
            telemetry.registry.observe(f"linalg.factorize.{backend}_s",
                                       time.perf_counter() - t0)
        return handle

    def solve(self, matrix, rhs: np.ndarray) -> np.ndarray:
        """One-shot ``matrix @ x = rhs`` (factor + back-substitute)."""
        return self.factorize(matrix).solve(rhs)
