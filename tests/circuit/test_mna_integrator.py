"""Tests for the Integrator state bookkeeping and the stamp contexts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ad import Dual, seed
from repro.circuit import Circuit, SimulationOptions
from repro.circuit.mna import ACStampContext, Integrator, MNASystem, StampContext
from repro.errors import AnalysisError


class TestIntegrator:
    def test_requires_positive_step(self):
        integrator = Integrator()
        with pytest.raises(AnalysisError):
            integrator.set_step(0.0)
        with pytest.raises(AnalysisError):
            integrator.coefficient()

    def test_unknown_method_rejected(self):
        with pytest.raises(AnalysisError):
            Integrator("rk4")

    def test_backward_euler_derivative(self):
        integrator = Integrator(Integrator.BACKWARD_EULER)
        integrator.set_step(0.1)
        integrator.set_initial("x", 1.0)
        assert integrator.differentiate("x", 2.0) == pytest.approx(10.0)
        assert integrator.coefficient() == pytest.approx(10.0)

    def test_trapezoidal_derivative_uses_history(self):
        integrator = Integrator(Integrator.TRAPEZOIDAL)
        integrator.set_step(0.1)
        integrator.set_initial("x", 1.0, derivative=4.0)
        # 2/h (x - x_old) - dxdt_old
        assert integrator.differentiate("x", 2.0) == pytest.approx(20.0 - 4.0)

    def test_integral_accumulates_after_commit(self):
        integrator = Integrator(Integrator.BACKWARD_EULER)
        integrator.set_step(0.5)
        value = integrator.integrate("q", 2.0, initial=1.0)
        assert value == pytest.approx(2.0)
        integrator.commit()
        value = integrator.integrate("q", 2.0, initial=1.0)
        assert value == pytest.approx(3.0)

    def test_discard_drops_pending(self):
        integrator = Integrator(Integrator.BACKWARD_EULER)
        integrator.set_step(0.5)
        integrator.integrate("q", 2.0, initial=0.0)
        integrator.discard()
        integrator.commit()
        # Nothing was committed, so the integral restarts from ``initial``.
        assert integrator.integrate("q", 2.0, initial=-1.0) == 0.0

    def test_priming_freezes_dynamics_but_registers_states(self):
        integrator = Integrator(Integrator.TRAPEZOIDAL)
        integrator.priming = True
        integrator.set_step(1e-3)
        assert integrator.coefficient() == 0.0
        assert integrator.differentiate("x", 5.0) == pytest.approx(0.0)
        assert integrator.integrate("q", 7.0, initial=2.0) == pytest.approx(2.0)
        integrator.commit()
        integrator.priming = False
        # After priming, the committed value of x is 5.0 so a repeat gives 0 slope.
        assert integrator.differentiate("x", 5.0) == pytest.approx(0.0)

    def test_dual_values_propagate_through_operators(self):
        integrator = Integrator(Integrator.BACKWARD_EULER)
        integrator.set_step(0.1)
        integrator.set_initial("x", 0.0)
        result = integrator.differentiate("x", seed(1.0))
        assert result.value == pytest.approx(10.0)
        assert result.partial() == pytest.approx(10.0)


def _simple_system():
    circuit = Circuit()
    circuit.voltage_source("V1", "a", "0", 1.0)
    circuit.resistor("R1", "a", "b", 1e3)
    circuit.capacitor("C1", "b", "0", 1e-6)
    return circuit, MNASystem(circuit)


class TestStampContext:
    def test_shape_validation(self):
        circuit, system = _simple_system()
        with pytest.raises(AnalysisError):
            StampContext(system, np.zeros(system.size + 1), "op", 0.0, None,
                         SimulationOptions())

    def test_ground_rows_ignored(self):
        circuit, system = _simple_system()
        ctx = StampContext(system, np.zeros(system.size), "op", 0.0, None,
                           SimulationOptions())
        ctx.add_jac(-1, 0, 5.0)
        ctx.add_res(-1, 5.0)
        assert not np.any(ctx.jac) and not np.any(ctx.res)

    def test_across_and_aux_accessors(self):
        circuit, system = _simple_system()
        x = np.arange(system.size, dtype=float)
        ctx = StampContext(system, x, "op", 0.0, None, SimulationOptions())
        node_a = circuit.node("a")
        assert ctx.across(node_a) == x[system.index_of(node_a)]
        assert ctx.across(circuit.ground) == 0.0
        assert ctx.aux_value("V1", "i") == x[system.aux_index("V1", "i")]

    def test_gmin_applied_to_node_diagonal_only(self):
        circuit, system = _simple_system()
        ctx = StampContext(system, np.ones(system.size), "op", 0.0, None,
                           SimulationOptions())
        ctx.apply_gmin(1e-9)
        for i in range(system.num_nodes):
            assert ctx.jac[i, i] == pytest.approx(1e-9)
        aux_row = system.aux_index("V1", "i")
        assert ctx.jac[aux_row, aux_row] == 0.0

    def test_dc_flags_and_operators(self):
        circuit, system = _simple_system()
        ctx = StampContext(system, np.zeros(system.size), "op", 0.0, None,
                           SimulationOptions())
        assert ctx.is_dc and not ctx.is_transient
        assert ctx.ddt_coefficient() == 0.0
        assert ctx.ddt("key", 3.0) == 0.0
        assert ctx.integ("key", 3.0, initial=1.5) == pytest.approx(1.5)


class TestACStampContext:
    def _context(self):
        circuit, system = _simple_system()
        x = np.arange(1.0, system.size + 1.0)
        return circuit, system, ACStampContext(
            system, x, options=SimulationOptions())

    @staticmethod
    def _powers(*pairs):
        """A derivative of the given ``(s**-2 .. s**2 vector)`` per seed."""
        return np.concatenate(pairs)

    def test_complex_assembly_and_ground_handling(self):
        circuit, system, ctx = self._context()
        assert isinstance(ctx, StampContext) and ctx.limits is None
        ctx.add_jac(-1, 0, 1.0)
        ctx.add_jac(0, -1, 1.0)
        ctx.add_rhs(-1, 1.0)
        assert not np.any(ctx.coefficients) and not np.any(ctx.rhs)
        ctx.add_jac(0, 0, 2.0)
        ctx.add_jac(0, 0, 3.0 * ctx.ddt_coefficient())
        ctx.add_res(0, 5.0)
        assert ctx.coefficient(0)[0, 0] == 2.0
        assert ctx.coefficient(1)[0, 0] == 3.0
        assert ctx.at(4.0)[0, 0] == 2.0 + 12j
        # Accessors read the operating point.
        assert ctx.across(circuit.ground) == 0.0
        b = circuit.node("b")
        assert ctx.across(b) == ctx.x[system.index_of(b)] != 0.0
        assert ctx.aux_value("V1", "i") == ctx.x[system.aux_index("V1", "i")]

    def test_small_signal_operators(self):
        _, _, ctx = self._context()
        assert np.array_equal(ctx.ddt_coefficient(), [0.0, 0.0, 0.0, 1.0, 0.0])
        v = Dual(0.5, self._powers([0.0, 0.0, 1.0, 0.0, 0.0], np.zeros(5)))
        derivative = ctx.ddt("key", 4.0 * v)
        assert derivative.value == 0.0
        assert np.array_equal(derivative.deriv, self._powers(
            [0.0, 0.0, 0.0, 4.0, 0.0], np.zeros(5)))
        assert ctx.ddt("key", 4.0) == 0.0
        # ``integ`` holds its initial value, as at the operating point.
        integral = ctx.integ("s", 6.0 * v, initial=1.5)
        assert integral.value == 1.5
        assert np.array_equal(integral.deriv, self._powers(
            [0.0, 6.0, 0.0, 0.0, 0.0], np.zeros(5)))
        assert ctx.integ("s", 6.0, initial=1.5) == 1.5

    def test_powers_past_the_bound_raise(self):
        _, _, ctx = self._context()
        v = Dual(0.5, self._powers([0.0, 0.0, 1.0, 0.0, 0.0]))
        twice = ctx.ddt("d1", ctx.ddt("d0", v))
        assert np.array_equal(twice.deriv, [0.0, 0.0, 0.0, 0.0, 1.0])
        with pytest.raises(AnalysisError, match="'XN'"):
            ctx.ddt(("XN", "d2"), twice)
        below = ctx.integ("i1", ctx.integ("i0", v))
        with pytest.raises(AnalysisError, match="'XN'"):
            ctx.integ(("XN", "i2"), below)

    def test_rejects_non_positive_frequency(self):
        circuit, system = _simple_system()
        ctx = system.assemble_ac(np.zeros(system.size), SimulationOptions())
        for omega in (0.0, -1.0, float("nan")):
            with pytest.raises(AnalysisError):
                ctx.at(omega)
