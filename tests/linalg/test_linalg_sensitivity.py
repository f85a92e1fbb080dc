"""Transpose solves per backend and the shared sensitivity solver core."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import LinAlgError
from repro.linalg import (FactorizedSolver, SensitivityResult,
                          SpectralSensitivities, solve_sensitivities,
                          sweep_spectral_sensitivities)
from repro.telemetry import registry


def _well_conditioned(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + n * np.eye(n)


class TestTransposeSolves:
    @pytest.mark.parametrize("backend", ["dense", "superlu"])
    def test_real_matrix_real_rhs(self, backend):
        matrix = _well_conditioned(8)
        operand = sp.csr_matrix(matrix) if backend == "superlu" else matrix
        handle = FactorizedSolver(backend).factorize(operand)
        rhs = np.arange(1.0, 9.0)
        solution = handle.solve_transposed(rhs)
        np.testing.assert_allclose(matrix.T @ solution, rhs, atol=1e-10)
        assert handle.transpose_solves == 1

    @pytest.mark.parametrize("backend", ["dense", "superlu"])
    def test_real_matrix_complex_rhs(self, backend):
        matrix = _well_conditioned(6, seed=1)
        operand = sp.csr_matrix(matrix) if backend == "superlu" else matrix
        handle = FactorizedSolver(backend).factorize(operand)
        rhs = np.arange(6.0) + 1j * np.arange(6.0, 0.0, -1.0)
        solution = handle.solve_transposed(rhs)
        np.testing.assert_allclose(matrix.T @ solution, rhs, atol=1e-10)

    @pytest.mark.parametrize("backend", ["dense", "superlu"])
    def test_complex_matrix_plain_transpose(self, backend):
        # The adjoint needs A^T, NOT the conjugate transpose.
        rng = np.random.default_rng(2)
        matrix = _well_conditioned(6, seed=2) \
            + 1j * rng.standard_normal((6, 6))
        operand = sp.csr_matrix(matrix) if backend == "superlu" else matrix
        handle = FactorizedSolver(backend).factorize(operand)
        rhs = rng.standard_normal(6)
        solution = handle.solve_transposed(rhs)
        np.testing.assert_allclose(matrix.T @ solution, rhs, atol=1e-10)
        assert not np.allclose(np.conj(matrix).T @ solution, rhs)

    def test_block_rhs(self):
        matrix = _well_conditioned(5, seed=4)
        handle = FactorizedSolver("dense").factorize(matrix)
        rhs = np.eye(5)[:, :3]
        solution = handle.solve_transposed(rhs)
        np.testing.assert_allclose(matrix.T @ solution, rhs, atol=1e-10)

    def test_transpose_solves_counted_globally(self):
        before = registry.snapshot()
        handle = FactorizedSolver("dense").factorize(_well_conditioned(4))
        handle.solve_transposed(np.ones(4))
        delta = registry.delta(before)["counters"]
        assert delta["linalg.transpose_solves"] == 1
        assert delta["linalg.factorizations"] == 1


class TestSolveSensitivities:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.jacobian = _well_conditioned(6, seed=5)
        self.dres_dp = rng.standard_normal((6, 4))
        self.selectors = np.eye(6)[[1, 3]]
        self.reference = -self.selectors @ np.linalg.solve(self.jacobian,
                                                           self.dres_dp)
        self.factorization = FactorizedSolver("dense").factorize(self.jacobian)

    def test_adjoint_matches_reference(self):
        stats: dict = {}
        result = solve_sensitivities(self.factorization, self.selectors,
                                     self.dres_dp, "adjoint", stats)
        np.testing.assert_allclose(result, self.reference, atol=1e-12)
        assert stats["adjoint_solves"] == 2

    def test_direct_matches_adjoint(self):
        stats: dict = {}
        result = solve_sensitivities(self.factorization, self.selectors,
                                     self.dres_dp, "direct", stats)
        np.testing.assert_allclose(result, self.reference, atol=1e-12)
        assert stats["direct_solves"] == 4

    def test_auto_prefers_fewer_substitutions(self):
        stats: dict = {}
        solve_sensitivities(self.factorization, self.selectors,
                            self.dres_dp, "auto", stats)
        # 2 outputs < 4 params -> adjoint.
        assert stats.get("adjoint_solves") == 2
        stats = {}
        solve_sensitivities(self.factorization, np.eye(6)[:5],
                            self.dres_dp, "auto", stats)
        # 5 outputs > 4 params -> direct.
        assert stats.get("direct_solves") == 4

    def test_complex_dres(self):
        dres = self.dres_dp + 1j * self.dres_dp[::-1]
        result = solve_sensitivities(self.factorization, self.selectors,
                                     dres, "adjoint")
        reference = -self.selectors @ np.linalg.solve(self.jacobian, dres)
        np.testing.assert_allclose(result, reference, atol=1e-12)

    def test_bad_method_rejected(self):
        with pytest.raises(LinAlgError, match="unknown sensitivity method"):
            solve_sensitivities(self.factorization, self.selectors,
                                self.dres_dp, "newton")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(LinAlgError, match="do not match"):
            solve_sensitivities(self.factorization, np.eye(5),
                                self.dres_dp)


class TestSensitivityResult:
    def test_accessors(self):
        result = SensitivityResult(
            outputs=("y1", "y2"), params=("a", "b", "c"),
            values=np.array([1.0, 2.0]),
            matrix=np.arange(6.0).reshape(2, 3), method="adjoint",
            stats={"newton_solves": 1})
        assert result.value("y2") == 2.0
        assert result.gradient("y1") == {"a": 0.0, "b": 1.0, "c": 2.0}
        assert result.derivative("y2", "c") == 5.0
        assert result.as_dict()["y2"]["a"] == 3.0
        assert result.values_dict() == {"y1": 1.0, "y2": 2.0}
        with pytest.raises(KeyError, match="unknown output"):
            result.value("nope")
        with pytest.raises(KeyError, match="unknown parameter"):
            result.derivative("y1", "nope")

    def test_shape_validation(self):
        with pytest.raises(LinAlgError, match="sensitivity matrix"):
            SensitivityResult(("y",), ("a", "b"), np.zeros(1), np.zeros((2, 2)))


class TestSpectralSensitivities:
    def test_magnitude_derivative(self):
        frequencies = np.array([1.0, 2.0])
        values = np.array([[1.0 + 1.0j], [2.0]])
        matrix = np.array([[[0.5 - 0.5j]], [[1.0 + 0.0j]]])
        spectral = SpectralSensitivities(frequencies, ("y",), ("p",),
                                         values, matrix, "adjoint", {})
        # d|y|/dp = Re(conj(y) dy) / |y|.
        expected0 = np.real(np.conj(1 + 1j) * (0.5 - 0.5j)) / abs(1 + 1j)
        np.testing.assert_allclose(
            spectral.magnitude_derivative("y", "p"), [expected0, 1.0])
        single = spectral.at(1)
        assert single.value("y") == 2.0

    def test_shape_validation(self):
        with pytest.raises(LinAlgError, match="spectral sensitivity"):
            SpectralSensitivities(np.array([1.0]), ("y",), ("p",),
                                  np.zeros((1, 1)), np.zeros((2, 1, 1)),
                                  "adjoint", {})


class TestSweepSpectralSensitivities:
    """The shared per-frequency sweep skeleton (circuit AC / FEM / ROM)."""

    def setup_method(self):
        rng = np.random.default_rng(9)
        self.n = 5
        self.G = _well_conditioned(self.n, seed=9)
        self.C = rng.standard_normal((self.n, self.n)) * 1e-3
        self.rhs = rng.standard_normal(self.n)
        self.dG = rng.standard_normal((2, self.n, self.n))
        self.selectors = np.eye(self.n)[[0, 2]]
        self.frequencies = np.array([10.0, 100.0, 1000.0])

    def _system_at(self, f, omega):
        return self.G + 1j * omega * self.C, self.rhs.astype(complex)

    def _dres_at(self, f, omega, solution):
        dres = np.zeros((self.n, 2), dtype=complex)
        for k in range(2):
            dres[:, k] = self.dG[k] @ solution
        return dres

    def test_matches_manual_per_frequency_solves(self):
        stats: dict = {}
        values, matrix, resolved = sweep_spectral_sensitivities(
            self.frequencies, self.selectors, self._system_at, self._dres_at,
            method="adjoint", stats=stats)
        assert resolved == "adjoint"
        assert stats["adjoint_solves"] == 2 * self.frequencies.size
        for f, frequency in enumerate(self.frequencies):
            omega = 2.0 * np.pi * frequency
            system = self.G + 1j * omega * self.C
            solution = np.linalg.solve(system, self.rhs)
            np.testing.assert_allclose(values[f], self.selectors @ solution,
                                       atol=1e-10)
            dres = np.stack([self.dG[k] @ solution for k in range(2)], axis=1)
            reference = -self.selectors @ np.linalg.solve(system, dres)
            np.testing.assert_allclose(matrix[f], reference, atol=1e-10)

    def test_solve_counter_bumped_per_frequency(self):
        stats: dict = {}
        sweep_spectral_sensitivities(
            self.frequencies, self.selectors, self._system_at, self._dres_at,
            stats=stats, solve_counter="field_solves")
        assert stats["field_solves"] == self.frequencies.size

    def test_solve_error_rebrands_failures(self):
        def singular_at(f, omega):
            return np.zeros((self.n, self.n), dtype=complex), \
                self.rhs.astype(complex)

        with pytest.raises(RuntimeError, match="f=10"):
            sweep_spectral_sensitivities(
                self.frequencies, self.selectors, singular_at, self._dres_at,
                solve_error=lambda frequency, exc: RuntimeError(
                    f"bad solve at f={frequency:g} Hz"))
        # Without a factory the original LinAlgError propagates.
        with pytest.raises(LinAlgError):
            sweep_spectral_sensitivities(
                self.frequencies, self.selectors, singular_at, self._dres_at)

    def test_empty_frequencies_rejected(self):
        with pytest.raises(LinAlgError, match="at least one"):
            sweep_spectral_sensitivities(
                np.array([]), self.selectors, self._system_at, self._dres_at)
