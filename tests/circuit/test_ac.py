"""AC small-signal analysis tests against closed-form transfer functions."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.circuit import (
    ACAnalysis,
    Circuit,
    OperatingPointAnalysis,
    SimulationOptions,
    frequency_grid,
    input_admittance,
    input_impedance,
    equivalent_capacitance,
    small_signal_matrices,
)
from repro.circuit import linearize
from repro import telemetry
from repro.circuit.devices.behavioral import BehavioralDevice, Port
from repro.errors import AnalysisError
from repro.natures import ELECTRICAL, MECHANICAL_TRANSLATION
from repro.telemetry import registry


def rc_lowpass(r=1e3, c=1e-6):
    circuit = Circuit()
    circuit.voltage_source("V1", "in", "0", 0.0, ac=1.0)
    circuit.resistor("R1", "in", "out", r)
    circuit.capacitor("C1", "out", "0", c)
    return circuit


class TestFrequencyGrid:
    def test_log_grid_endpoints(self):
        grid = frequency_grid(10.0, 1e4, points_per_decade=10)
        assert grid[0] == pytest.approx(10.0)
        assert grid[-1] == pytest.approx(1e4)
        assert np.all(np.diff(np.log10(grid)) > 0)

    def test_lin_grid(self):
        grid = frequency_grid(1.0, 10.0, points_per_decade=10, spacing="lin")
        assert grid.size == 10

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            frequency_grid(-1.0, 10.0)
        with pytest.raises(AnalysisError):
            frequency_grid(10.0, 1.0)
        with pytest.raises(AnalysisError):
            frequency_grid(1.0, 10.0, spacing="quadratic")


class TestRCLowpass:
    def test_matches_analytic_transfer_function(self):
        circuit = rc_lowpass()
        frequencies = frequency_grid(1.0, 1e6, 10)
        result = ACAnalysis(circuit, frequencies).run()
        response = np.asarray(result["v(out)"], dtype=complex)
        expected = 1.0 / (1.0 + 2j * np.pi * frequencies * 1e3 * 1e-6)
        assert np.allclose(response, expected, rtol=1e-6)

    def test_corner_frequency_minus_3db(self):
        circuit = rc_lowpass()
        f_corner = 1.0 / (2.0 * np.pi * 1e-3)
        result = ACAnalysis(circuit, [f_corner]).run()
        assert abs(result.at("v(out)", f_corner)) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-6)

    def test_phase_at_corner_is_minus_45_degrees(self):
        circuit = rc_lowpass()
        f_corner = 1.0 / (2.0 * np.pi * 1e-3)
        result = ACAnalysis(circuit, [f_corner]).run()
        assert result.phase_deg("v(out)")[0] == pytest.approx(-45.0, abs=1e-3)

    def test_magnitude_db_helper(self):
        circuit = rc_lowpass()
        result = ACAnalysis(circuit, [1.0]).run()
        assert result.magnitude_db("v(in)")[0] == pytest.approx(0.0, abs=1e-6)

    def test_reuses_precomputed_operating_point(self):
        circuit = rc_lowpass()
        op = OperatingPointAnalysis(circuit).run()
        result = ACAnalysis(circuit, [100.0]).run(operating_point=op)
        assert abs(result.at("v(out)", 100.0)) > 0.8


class TestRLCResonance:
    def test_series_rlc_peak_at_resonance(self):
        circuit = Circuit()
        circuit.voltage_source("V1", "in", "0", 0.0, ac=1.0)
        circuit.resistor("R1", "in", "a", 10.0)
        circuit.inductor("L1", "a", "b", 1e-3)
        circuit.capacitor("C1", "b", "0", 1e-6)
        f0 = 1.0 / (2.0 * np.pi * np.sqrt(1e-3 * 1e-6))
        result = ACAnalysis(circuit, frequency_grid(f0 / 10, f0 * 10, 60)).run()
        # Current magnitude peaks at the resonance frequency; the parabolic
        # refinement resolves it well below the coarse log-grid spacing.
        estimate = result.resonance_frequency("i(V1)")
        assert estimate == pytest.approx(f0, rel=5e-3)
        assert estimate not in result.frequencies
        # At resonance the current is limited by R only.
        assert np.max(result.magnitude("i(V1)")) == pytest.approx(1.0 / 10.0, rel=1e-2)

    def test_diode_small_signal_conductance(self):
        circuit = Circuit()
        circuit.voltage_source("V1", "in", "0", 5.0, ac=1.0)
        circuit.resistor("R1", "in", "d", 1e3)
        circuit.diode("D1", "d", "0")
        op = OperatingPointAnalysis(circuit).run()
        result = ACAnalysis(circuit, [1e3]).run(operating_point=op)
        # The diode's small-signal conductance is Id/nVt >> 1/R1, so the AC
        # gain at node d is tiny compared to the input.
        assert abs(result.at("v(d)", 1e3)) < 0.05


class TestAnalysisValidation:
    def test_rejects_empty_or_negative_frequencies(self):
        with pytest.raises(AnalysisError):
            ACAnalysis(rc_lowpass(), [])
        with pytest.raises(AnalysisError):
            ACAnalysis(rc_lowpass(), [-1.0])


class TestLinearization:
    def test_input_impedance_of_resistor(self):
        circuit = Circuit()
        circuit.current_source("I1", "0", "a", 0.0)
        circuit.resistor("R1", "a", "0", 123.0)
        impedance = input_impedance(circuit, "a", 1e3)
        assert impedance.real == pytest.approx(123.0, rel=1e-6)

    def test_equivalent_capacitance_of_parallel_rc(self):
        circuit = Circuit()
        circuit.current_source("I1", "0", "a", 0.0)
        circuit.resistor("R1", "a", "0", 1e6)
        circuit.capacitor("C1", "a", "0", 3.3e-12)
        assert equivalent_capacitance(circuit, "a", 1e4) == pytest.approx(3.3e-12, rel=1e-6)

    def test_admittance_inverse_of_impedance(self):
        circuit = Circuit()
        circuit.current_source("I1", "0", "a", 0.0)
        circuit.resistor("R1", "a", "0", 50.0)
        circuit.capacitor("C1", "a", "0", 1e-9)
        y = input_admittance(circuit, "a", 1e5)
        z = input_impedance(circuit, "a", 1e5)
        assert y * z == pytest.approx(1.0, rel=1e-9)

    def test_small_signal_matrices_of_rc(self):
        circuit = rc_lowpass()
        conductance, capacitance, system = small_signal_matrices(circuit)
        i_out = system.index_of(circuit.node("out"))
        assert conductance[i_out, i_out] == pytest.approx(1e-3, rel=1e-3)
        assert capacitance[i_out, i_out] == pytest.approx(1e-6, rel=1e-6)

    def test_small_signal_matrices_refuse_behavioral_spring(self):
        # A behavioral mass alone is G + jwC; its k * integ(v) spring adds
        # S/(jw), which no (G, C) pair represents.
        circuit = Circuit()
        mech = circuit.mechanical_node("m")
        circuit.force_source("F", "m", "0", 1e-6)
        circuit.damper("D", "m", "0", 1e-3)

        def mass(ctx):
            ctx.contribute("mech", ctx.param("m")
                           * ctx.ddt(ctx.across("mech"), key="p"))

        def spring(ctx):
            ctx.contribute("mech", ctx.param("k")
                           * ctx.integ(ctx.across("mech"), key="x"))

        port = [Port("mech", mech, circuit.ground, MECHANICAL_TRANSLATION)]
        circuit.add(BehavioralDevice("XM", port, mass, params={"m": 1e-9}))
        conductance, capacitance, system = small_signal_matrices(circuit)
        op = OperatingPointAnalysis(circuit).run()
        for frequency in (1.0, 10.0, 1e3):
            omega = 2.0 * np.pi * frequency
            y = system.assemble_ac(op.raw, SimulationOptions()).at(omega)
            assert np.allclose(conductance + 1j * omega * capacitance, y,
                               rtol=1e-9, atol=0.0)
        circuit.add(BehavioralDevice("XK", port, spring, params={"k": 2.0}))
        with pytest.raises(AnalysisError, match=r"v\(m\)"):
            small_signal_matrices(circuit)

    def test_probing_ground_rejected(self):
        circuit = rc_lowpass()
        with pytest.raises(AnalysisError):
            input_admittance(circuit, "0", 1e3)

    @pytest.mark.parametrize("frequency", [0.0, -1.0])
    def test_non_positive_frequency_rejected_before_any_solve(
            self, monkeypatch, frequency):
        def no_solve(*args, **kwargs):
            raise AssertionError("the operating point was solved")

        monkeypatch.setattr(linearize, "OperatingPointAnalysis", no_solve)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AnalysisError, match="frequency"):
                input_admittance(rc_lowpass(), "out", frequency)

    def test_small_signal_matrices_refuse_second_derivative(self):
        # m * ddt(ddt(v)) is an s**2 admittance; folding it into G at some
        # probe frequency would be wrong at every other one.
        with pytest.raises(AnalysisError, match=r"s\*\*2 terms at v\(a\)"):
            small_signal_matrices(double_ddt_divider())


def double_ddt_divider(r=1e3, m=1e-6, behavior=None) -> Circuit:
    """A resistor feeding a behavioral ``m * ddt(ddt(v))`` element:
    ``v(a) / v(in) = 1 / (1 + R m s**2)``."""
    def second_derivative(ctx):
        v = ctx.across("e")
        ctx.contribute("e", ctx.param("m") * ctx.ddt(ctx.ddt(v)))

    circuit = Circuit()
    circuit.voltage_source("V1", "in", "0", 0.0, ac=1.0)
    circuit.resistor("R1", "in", "a", r)
    port = [Port("e", circuit.node("a"), circuit.ground, ELECTRICAL)]
    circuit.add(BehavioralDevice("XN", port, behavior or second_derivative,
                                 params={"m": m}))
    return circuit


def ac_assemblies(analysis: ACAnalysis):
    """Run ``analysis``; return its result and its small-signal assemblies."""
    with telemetry.session(mode="summary"):
        before = registry.snapshot()
        result = analysis.run()
        digest = registry.delta(before)["histograms"].get("mna.assembly.ac_s")
    return result, 0 if digest is None else digest["count"]


class TestPolynomialAssembly:
    """One assembly of exact coefficients of s serves every frequency."""

    @pytest.mark.parametrize("points", [3, 200])
    def test_one_assembly_per_sweep(self, points):
        frequencies = np.logspace(3.0, 6.0, points)
        _, count = ac_assemblies(ACAnalysis(double_ddt_divider(), frequencies))
        assert count == 1

    def test_second_derivative_divider_is_exact(self):
        r, m = 1e3, 1e-6
        frequencies = np.logspace(3.0, 6.0, 200)
        result = ACAnalysis(double_ddt_divider(r, m), frequencies).run()
        s = 2j * np.pi * frequencies
        expected = 1.0 / (1.0 + r * m * s ** 2)
        response = np.asarray(result["v(a)"], dtype=complex)
        assert np.all(np.abs(response - expected) <= 1e-12 * np.abs(expected))

    @pytest.mark.parametrize("operator", ["ddt", "integ"])
    def test_power_past_the_bound_names_its_device(self, operator):
        def nested(ctx):
            apply = getattr(ctx, operator)
            ctx.contribute("e", ctx.param("m")
                           * apply(apply(apply(ctx.across("e")))))

        circuit = double_ddt_divider(behavior=nested)
        with pytest.raises(AnalysisError, match="XN"):
            ACAnalysis(circuit, [1e3]).run()
