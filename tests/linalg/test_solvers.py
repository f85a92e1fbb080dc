"""Tests for the backend-abstracted factorized solvers."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from repro.errors import LinAlgError
from repro.linalg import FactorizedSolver
from repro.linalg.solvers import _BandedLU, _DenseLU
from repro.telemetry import registry


def _spd(n: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestDense:
    def test_matches_numpy_solve_bitwise(self):
        rng = np.random.default_rng(3)
        matrix = rng.standard_normal((12, 12))
        rhs = rng.standard_normal(12)
        ours = FactorizedSolver("dense").solve(matrix, rhs)
        reference = np.linalg.solve(matrix, rhs)
        assert np.array_equal(ours, reference)

    @pytest.mark.parametrize("complex_matrix", [False, True])
    @pytest.mark.parametrize("complex_rhs", [False, True])
    @pytest.mark.parametrize("columns", [None, 3])
    def test_matches_scipy_lu_bitwise(self, complex_matrix, complex_rhs,
                                      columns):
        rng = np.random.default_rng(5)
        n = 14
        shape = (n,) if columns is None else (n, columns)
        matrix = rng.standard_normal((n, n))
        rhs = rng.standard_normal(shape)
        if complex_matrix:
            matrix = matrix + 1j * rng.standard_normal((n, n))
        if complex_rhs:
            rhs = rhs + 1j * rng.standard_normal(shape)
        factorization = FactorizedSolver("dense").factorize(matrix)
        lu = la.lu_factor(matrix, check_finite=False)
        assert np.array_equal(factorization.solve(rhs),
                              la.lu_solve(lu, rhs, check_finite=False))
        if complex_rhs and not complex_matrix:
            transposed = la.lu_solve(lu, rhs.real, trans=1) \
                + 1j * la.lu_solve(lu, rhs.imag, trans=1)
        else:
            transposed = la.lu_solve(lu, rhs, trans=1, check_finite=False)
        assert np.array_equal(factorization.solve_transposed(rhs), transposed)

    def test_nonfinite_matrix_raises(self):
        matrix = _spd(4)
        matrix[1, 2] = np.inf
        with pytest.raises(LinAlgError):
            FactorizedSolver("dense").factorize(matrix)

    def test_empty_system(self):
        factorization = FactorizedSolver("dense").factorize(np.zeros((0, 0)))
        assert factorization.solve(np.zeros(0)).shape == (0,)

    def test_complex_matrix(self):
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        rhs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        solution = FactorizedSolver("dense").solve(matrix, rhs)
        np.testing.assert_allclose(matrix @ solution, rhs, atol=1e-12)

    def test_multi_rhs(self):
        matrix = _spd(5)
        rhs = np.eye(5)[:, :3]
        solution = FactorizedSolver("dense").solve(matrix, rhs)
        np.testing.assert_allclose(matrix @ solution, rhs, atol=1e-10)

    def test_singular_raises(self):
        with pytest.raises(LinAlgError):
            FactorizedSolver("dense").solve(np.zeros((3, 3)), np.ones(3))

    def test_factorization_reused_for_many_rhs(self):
        solver = FactorizedSolver("dense")
        factorization = solver.factorize(_spd(4))
        for k in range(3):
            rhs = np.eye(4)[:, k]
            np.testing.assert_allclose(
                factorization.solve(rhs), np.linalg.solve(_spd(4), rhs),
                atol=1e-12)
        assert solver.factorizations == 1

    def test_rhs_shape_checked(self):
        factorization = FactorizedSolver("dense").factorize(_spd(4))
        with pytest.raises(LinAlgError):
            factorization.solve(np.ones(5))


class TestSparse:
    def test_superlu_matches_dense(self):
        matrix = _spd(20)
        rhs = np.arange(20, dtype=float)
        sparse = FactorizedSolver("superlu").solve(sp.csr_matrix(matrix), rhs)
        dense = FactorizedSolver("dense").solve(matrix, rhs)
        np.testing.assert_allclose(sparse, dense, rtol=1e-10)

    def test_auto_resolves_by_matrix_type(self):
        solver = FactorizedSolver("auto")
        assert solver.resolve_backend(np.eye(3)) == "dense"
        assert solver.resolve_backend(sp.eye(3, format="csr")) == "superlu"
        assert solver.resolve_backend(sp.eye_array(3, format="csr")) \
            == "superlu"
        assert solver.resolve_backend(sp.eye(3, format="dia")) == "banded"
        assert solver.resolve_backend(sp.eye_array(3, format="dia")) \
            == "banded"

    def test_exactly_singular_sparse_raises(self):
        singular = sp.csr_matrix(
            np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        with pytest.raises(LinAlgError):
            FactorizedSolver("superlu").solve(singular, np.ones(3))

    def test_complex_sparse_matrix(self):
        matrix = sp.csr_matrix(np.array([[2.0 + 1.0j, 0.0], [0.0, 1.0]]))
        solution = FactorizedSolver("auto").solve(matrix, np.ones(2))
        np.testing.assert_allclose(matrix @ solution, np.ones(2), atol=1e-12)
        assert np.iscomplexobj(solution)

    def test_real_sparse_matrix_complex_rhs(self):
        matrix = sp.csr_matrix(_spd(6))
        rhs = np.arange(6) + 1j * np.arange(6)[::-1]
        solution = FactorizedSolver("superlu").solve(matrix, rhs)
        np.testing.assert_allclose(matrix @ solution, rhs, atol=1e-9)


def _band(seed: int, complex_matrix: bool = False):
    """A seeded DIA matrix with random ``kl``/``ku`` in ``[0, n - 1]`` and
    NaN in the DIA slots outside the matrix (which must stay unread),
    plus its dense copy."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    kl, ku = (int(k) for k in rng.integers(0, n, size=2))
    offsets = np.arange(-kl, ku + 1)
    data = rng.standard_normal((offsets.size, n))
    if complex_matrix:
        data = data + 1j * rng.standard_normal(data.shape)
    data[offsets == 0] += 2.0 * (kl + ku + 1)
    columns = np.arange(n)
    for row, offset in enumerate(offsets):
        data[row, (columns < offset) | (columns >= n + offset)] = np.nan
    matrix = sp.dia_matrix((data, offsets), shape=(n, n))
    return matrix, matrix.toarray()


def _near(got, want, rtol: float = 1e-12) -> bool:
    return np.max(np.abs(got - want), initial=0.0) \
        <= rtol * np.max(np.abs(want), initial=0.0)


class TestBanded:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("complex_matrix", [False, True])
    def test_matches_dense_lu(self, seed, complex_matrix):
        matrix, dense = _band(seed, complex_matrix)
        n = dense.shape[0]
        banded = FactorizedSolver().factorize(matrix)
        reference = _DenseLU(dense)
        assert isinstance(banded, _BandedLU)
        assert banded.backend == "banded"
        rng = np.random.default_rng(100 + seed)
        for shape in ((n,), (n, 3)):
            real = rng.standard_normal(shape)
            for rhs in (real, real + 1j * rng.standard_normal(shape)):
                assert _near(banded.solve(rhs), reference.solve(rhs))
                assert _near(banded.solve_transposed(rhs),
                             reference.solve_transposed(rhs))
        assert banded.transpose_solves == 4
        assert _near(np.array(banded.condition_estimate()),
                     np.array(reference.condition_estimate()))

    def test_exactly_singular_band_raises(self):
        matrix, _ = _band(3)
        data = matrix.data.copy()
        data[:, 0] = 0.0  # column 0 of the matrix is empty
        with pytest.raises(LinAlgError, match="singular"):
            FactorizedSolver().factorize(
                sp.dia_matrix((data, matrix.offsets), shape=matrix.shape))

    @pytest.mark.parametrize("diagonal, column",
                             [(0, 0), ("main", 0), ("main", -1), (-1, -1)])
    def test_nonfinite_band_raises(self, diagonal, column):
        # Seed 6: 9 sub- and 9 super-diagonals; (0, 0) and (-1, -1) are
        # the outermost entries of the band, inside the matrix.
        matrix, _ = _band(6)
        data = matrix.data.copy()
        if diagonal == "main":
            diagonal = int(np.flatnonzero(matrix.offsets == 0)[0])
        data[diagonal, column] = np.inf
        with pytest.raises(LinAlgError):
            FactorizedSolver().solve(
                sp.dia_matrix((data, matrix.offsets), shape=matrix.shape),
                np.ones(matrix.shape[0]))

    def test_a_dia_factorization_counts_once(self):
        matrix, _ = _band(7)
        before = registry.counter_value("linalg.factorizations")
        FactorizedSolver().factorize(matrix)
        assert registry.counter_value("linalg.factorizations") - before == 1

    def test_empty_system(self):
        empty = sp.dia_matrix((0, 0))
        factorization = FactorizedSolver().factorize(empty)
        assert factorization.solve(np.zeros(0)).shape == (0,)


class TestValidation:
    def test_unknown_backend_rejected(self):
        for backend in ("lu", "cg"):
            with pytest.raises(LinAlgError):
                FactorizedSolver(backend)

    def test_nonsquare_rejected(self):
        with pytest.raises(LinAlgError):
            FactorizedSolver().factorize(np.ones((2, 3)))
