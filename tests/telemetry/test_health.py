"""Numerical health monitoring: condition estimates and singularity forensics."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro import telemetry
from repro.circuit import Circuit, SimulationOptions
from repro.circuit.analysis.op import OperatingPointAnalysis
from repro.linalg import FactorizedSolver
from repro.telemetry import health, registry


def _spd(n: int = 6, scale: float = 1.0) -> np.ndarray:
    rng = np.random.default_rng(7)
    a = rng.standard_normal((n, n))
    return a @ a.T + scale * n * np.eye(n)


class TestConditionEstimate:
    def test_dense_matches_true_condition(self):
        matrix = np.diag([1.0, 10.0, 100.0])
        cond = FactorizedSolver("dense").factorize(matrix).condition_estimate()
        assert cond == pytest.approx(100.0, rel=0.1)

    def test_backends_agree_on_the_same_matrix(self):
        matrix = _spd()
        dense = FactorizedSolver("dense").factorize(matrix)
        sparse = FactorizedSolver("superlu").factorize(sp.csr_matrix(matrix))
        reference = dense.condition_estimate()
        assert sparse.condition_estimate() == pytest.approx(reference, rel=0.5)

    def test_estimate_is_cached(self):
        factorization = FactorizedSolver("dense").factorize(_spd())
        assert factorization.condition_estimate() \
            == factorization.condition_estimate()

    def test_near_singular_matrix_yields_huge_estimate(self):
        matrix = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
        cond = FactorizedSolver("dense").factorize(matrix).condition_estimate()
        assert cond > 1e12

    def test_complex_matrix_supported(self):
        matrix = _spd().astype(complex) + 1j * np.eye(6)
        cond = FactorizedSolver("dense").factorize(matrix).condition_estimate()
        assert np.isfinite(cond) and cond >= 1.0

    def test_deterministic(self):
        matrix = _spd()
        values = {FactorizedSolver("superlu").factorize(
            sp.csr_matrix(matrix)).condition_estimate() for _ in range(3)}
        assert len(values) == 1


class TestCheckFactorization:
    def test_healthy_matrix_records_quietly(self):
        factorization = FactorizedSolver("dense").factorize(np.eye(3))
        before = registry.counter_value("health.near_singular")
        record = health.check_factorization(factorization, limit=1e12)
        assert not record.near_singular
        assert record.condition == pytest.approx(1.0, rel=0.1)
        assert registry.counter_value("health.near_singular") == before

    def test_near_singular_warns_and_counts(self):
        matrix = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
        factorization = FactorizedSolver("dense").factorize(matrix)
        before = registry.counter_value("health.near_singular")
        with pytest.warns(telemetry.NumericalHealthWarning,
                          match="condition estimate"):
            record = health.check_factorization(factorization, limit=1e6,
                                                context="unit test")
        assert record.near_singular
        assert registry.counter_value("health.near_singular") == before + 1

    def test_warn_false_stays_silent(self):
        import warnings

        matrix = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
        factorization = FactorizedSolver("dense").factorize(matrix)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = health.check_factorization(factorization, limit=1e6,
                                                warn=False)
        assert record.near_singular

    def test_record_round_trips_to_json(self):
        factorization = FactorizedSolver("dense").factorize(np.eye(2))
        payload = health.check_factorization(factorization).to_json()
        assert payload["size"] == 2 and payload["near_singular"] is False


class TestAttributeResidual:
    def test_ranks_by_magnitude(self):
        ranked = health.attribute_residual(["a", "b", "c"], [1.0, -5.0, 2.0],
                                           top=2)
        assert ranked == [("b", -5.0), ("c", 2.0)]

    def test_non_finite_entries_rank_first(self):
        ranked = health.attribute_residual(["a", "b"], [3.0, np.nan])
        assert ranked[0][0] == "b"

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            health.attribute_residual(["a"], [1.0, 2.0])


class TestSingularDiagnosis:
    def test_names_the_empty_row_and_column(self):
        matrix = np.array([[1.0, 0.0], [0.0, 0.0]])
        diagnosis = health.singular_diagnosis(matrix, ["v(a)", "v(b)"])
        assert diagnosis["zero_rows"] == ["v(b)"]
        assert diagnosis["zero_cols"] == ["v(b)"]
        assert diagnosis["suspects"] == ["v(b)"]
        assert "v(b)" in diagnosis["message"]

    def test_sparse_input_and_default_labels(self):
        matrix = sp.csr_matrix(np.array([[0.0, 0.0], [1.0, 2.0]]))
        diagnosis = health.singular_diagnosis(matrix)
        assert diagnosis["zero_rows"] == ["unknown[0]"]

    def test_clean_matrix_has_no_suspects(self):
        diagnosis = health.singular_diagnosis(np.eye(3))
        assert diagnosis["suspects"] == []


class TestAnalysisIntegration:
    def test_health_check_knob_runs_during_op(self):
        circuit = Circuit()
        circuit.voltage_source("V1", "in", "0", 1.0)
        circuit.resistor("R1", "in", "out", 1e3)
        circuit.resistor("R2", "out", "0", 1e3)
        before = registry.counter_value("health.condition_checks")
        OperatingPointAnalysis(
            circuit, SimulationOptions(health_check=True)).run()
        assert registry.counter_value("health.condition_checks") > before

    def test_off_by_default(self):
        circuit = Circuit()
        circuit.voltage_source("V1", "in", "0", 1.0)
        circuit.resistor("R1", "in", "0", 1e3)
        before = registry.counter_value("health.condition_checks")
        OperatingPointAnalysis(circuit).run()
        assert registry.counter_value("health.condition_checks") == before

    def test_ill_conditioned_circuit_warns(self):
        # A current-driven 1 mΩ / 1 TΩ ladder: the nodal matrix mixes 1e3 S
        # against 1e-12 S, so its condition (~4e15) is far past the limit.
        circuit = Circuit()
        circuit.current_source("I1", "a", "0", 1e-9)
        circuit.resistor("R1", "a", "b", 1e-3)
        circuit.resistor("R2", "b", "0", 1e12)
        options = SimulationOptions(health_check=True, gmin=0.0)
        with pytest.warns(telemetry.NumericalHealthWarning):
            OperatingPointAnalysis(circuit, options).run()
