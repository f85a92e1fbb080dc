"""Tests for the sparse MNA fast path and the linear-solver options."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import (
    Circuit,
    OperatingPointAnalysis,
    Pulse,
    SimulationOptions,
    TransientAnalysis,
)
from repro.circuit.mna import MNASystem
from repro.errors import AnalysisError


def _ladder(n: int) -> Circuit:
    """An n-section resistive ladder (n+1 nodes)."""
    circuit = Circuit(f"ladder-{n}")
    circuit.voltage_source("V1", "n0", "0", 5.0)
    for i in range(n):
        circuit.resistor(f"R{i}", f"n{i}", f"n{i + 1}", 100.0)
        circuit.resistor(f"Rg{i}", f"n{i + 1}", "0", 1e4)
    return circuit


class TestOptions:
    def test_defaults_keep_small_systems_dense(self):
        options = SimulationOptions()
        assert options.linear_solver == "auto"
        assert not options.use_sparse(10)
        assert options.use_sparse(options.sparse_threshold + 1)

    def test_forced_modes(self):
        assert SimulationOptions(linear_solver="sparse").use_sparse(2)
        assert not SimulationOptions(linear_solver="dense").use_sparse(10_000)

    def test_threshold_is_tunable(self):
        options = SimulationOptions(sparse_threshold=5)
        assert options.use_sparse(6) and not options.use_sparse(5)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            SimulationOptions(linear_solver="lu")
        # MNA is not SPD: circuit solves have no conjugate-gradient option.
        with pytest.raises(AnalysisError, match="'auto', 'dense' or 'sparse'"):
            SimulationOptions(linear_solver="cg")
        with pytest.raises(AnalysisError):
            SimulationOptions(sparse_threshold=0)


class TestSparseAssembly:
    def test_sparse_context_matches_dense_jacobian(self):
        circuit = _ladder(5)
        system = MNASystem(circuit)
        x = np.linspace(0.0, 1.0, system.size)
        dense_ctx = system.assemble(x, "op", 0.0, None,
                                    SimulationOptions(linear_solver="dense"))
        sparse_ctx = system.assemble(x, "op", 0.0, None,
                                     SimulationOptions(linear_solver="sparse"))
        assert sparse_ctx.use_sparse and sparse_ctx.jac is None
        np.testing.assert_allclose(sparse_ctx.jacobian().toarray(),
                                   dense_ctx.jacobian())
        np.testing.assert_allclose(sparse_ctx.res, dense_ctx.res)
        assert sparse_ctx.jacobian_is_finite()


class TestSparseSolves:
    def test_forced_sparse_op_matches_dense(self):
        dense = OperatingPointAnalysis(
            _ladder(40), SimulationOptions(linear_solver="dense")).run()
        sparse = OperatingPointAnalysis(
            _ladder(40), SimulationOptions(linear_solver="sparse")).run()
        for i in (0, 20, 40):
            assert sparse.voltage(f"n{i}") == pytest.approx(
                dense.voltage(f"n{i}"), rel=1e-12, abs=1e-15)

    def test_auto_routes_large_system_sparse(self):
        # 301 node unknowns + 1 aux > default threshold of 256.
        circuit = _ladder(300)
        assert SimulationOptions().use_sparse(MNASystem(circuit).size)
        auto = OperatingPointAnalysis(circuit).run()
        dense = OperatingPointAnalysis(
            circuit, SimulationOptions(linear_solver="dense")).run()
        assert auto.voltage("n300") == pytest.approx(dense.voltage("n300"),
                                                     rel=1e-12)

    def test_transient_threads_solver_selection(self):
        def rc(options):
            circuit = Circuit("rc")
            circuit.voltage_source("V1", "in", "0", Pulse(0.0, 5.0, rise=1e-6))
            circuit.resistor("R1", "in", "out", 1e3)
            circuit.capacitor("C1", "out", "0", 1e-6)
            return TransientAnalysis(circuit, t_stop=5e-3, t_step=5e-5,
                                     options=options).run()

        dense = rc(SimulationOptions(linear_solver="dense"))
        sparse = rc(SimulationOptions(linear_solver="sparse"))
        probe = np.linspace(1e-4, 4.9e-3, 20)
        np.testing.assert_allclose(sparse.sample("v(out)", probe),
                                   dense.sample("v(out)", probe),
                                   rtol=1e-9, atol=1e-12)
