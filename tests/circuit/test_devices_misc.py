"""Tests for device construction rules, switches, mechanical elements, results."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import (
    ACAnalysis,
    Circuit,
    OperatingPointAnalysis,
    Sine,
    TransientAnalysis,
)
from repro.circuit.analysis.results import TransientResult
from repro.circuit.devices import Capacitor, Inductor, Mass, Resistor, Spring, Damper, Diode
from repro.errors import AnalysisError, DeviceError


class TestDeviceValidation:
    def test_two_terminal_rejects_same_node(self):
        circuit = Circuit()
        node = circuit.electrical_node("a")
        with pytest.raises(DeviceError):
            Resistor("R1", node, node, 1.0)

    @pytest.mark.parametrize("cls,value", [(Resistor, 0.0), (Capacitor, -1.0), (Inductor, 0.0)])
    def test_non_positive_values_rejected(self, cls, value):
        circuit = Circuit()
        a, gnd = circuit.electrical_node("a"), circuit.ground
        with pytest.raises(DeviceError):
            cls("X1", a, gnd, value)

    def test_empty_device_name_rejected(self):
        circuit = Circuit()
        with pytest.raises(DeviceError):
            Resistor("", circuit.electrical_node("a"), circuit.ground, 1.0)

    def test_mass_requires_ground_reference(self):
        circuit = Circuit()
        m1, m2 = circuit.mechanical_node("m1"), circuit.mechanical_node("m2")
        with pytest.raises(DeviceError):
            Mass("M1", m1, m2, 1e-4)

    def test_mechanical_element_parameter_checks(self):
        circuit = Circuit()
        m, gnd = circuit.mechanical_node("m"), circuit.ground
        with pytest.raises(DeviceError):
            Mass("M1", m, gnd, -1.0)
        with pytest.raises(DeviceError):
            Spring("K1", m, gnd, 0.0)
        with pytest.raises(DeviceError):
            Damper("D1", m, gnd, 0.0)

    def test_diode_parameter_checks(self):
        circuit = Circuit()
        a, gnd = circuit.electrical_node("a"), circuit.ground
        with pytest.raises(DeviceError):
            Diode("D1", a, gnd, saturation_current=0.0)
        with pytest.raises(DeviceError):
            Diode("D1", a, gnd, emission_coefficient=-1.0)

    @pytest.mark.parametrize("vt", [0.0, -0.025])
    def test_diode_rejects_non_positive_temperature_voltage(self, vt):
        # 0 used to divide by zero on the first stamp; a negative value
        # "solved" a forward-biased divider with the diode blocking.
        circuit = Circuit()
        a, gnd = circuit.electrical_node("a"), circuit.ground
        with pytest.raises(DeviceError, match="temperature voltage"):
            Diode("D1", a, gnd, temperature_voltage=vt)

    def test_describe_strings(self):
        circuit = Circuit()
        r = circuit.resistor("R1", "a", "0", 42.0)
        k = circuit.spring("K1", "m", "0", 200.0)
        assert "42" in r.describe()
        assert "200" in k.describe()


class TestSwitch:
    def test_switch_parameter_validation(self):
        circuit = Circuit()
        with pytest.raises(DeviceError):
            circuit.switch("S1", "a", "0", "c", "0", r_on=10.0, r_off=1.0)

    def test_switch_transfers_when_control_high(self):
        circuit = Circuit()
        circuit.voltage_source("VC", "ctl", "0", 5.0)
        circuit.voltage_source("V1", "in", "0", 1.0)
        circuit.switch("S1", "in", "out", "ctl", "0", threshold=2.5, r_on=1.0, r_off=1e9)
        circuit.resistor("RL", "out", "0", 1e3)
        op = OperatingPointAnalysis(circuit).run()
        assert op.voltage("out") == pytest.approx(1.0, rel=1e-3)

    def test_switch_blocks_when_control_low(self):
        circuit = Circuit()
        circuit.voltage_source("VC", "ctl", "0", 0.0)
        circuit.voltage_source("V1", "in", "0", 1.0)
        circuit.switch("S1", "in", "out", "ctl", "0", threshold=2.5, r_on=1.0, r_off=1e9)
        circuit.resistor("RL", "out", "0", 1e3)
        op = OperatingPointAnalysis(circuit).run()
        assert abs(op.voltage("out")) < 1e-3
        assert op["state(S1)"] == 0.0

    def test_switch_ac_uses_bias_state(self):
        circuit = Circuit()
        circuit.voltage_source("VC", "ctl", "0", 5.0)
        circuit.voltage_source("V1", "in", "0", 0.0, ac=1.0)
        circuit.switch("S1", "in", "out", "ctl", "0", threshold=2.5, r_on=1.0, r_off=1e9)
        circuit.resistor("RL", "out", "0", 1e3)
        result = ACAnalysis(circuit, [1e3]).run()
        assert abs(result.at("v(out)", 1e3)) == pytest.approx(1.0, rel=1e-3)


class TestMechanicalElectricalDuality:
    """The same physical resonator gives identical responses when built from
    mechanical elements (FI analogy) or from their electrical equivalents."""

    def test_velocity_response_equals_rlc_voltage_response(self):
        mass, stiffness, damping = 1e-4, 200.0, 0.04
        drive = Sine(amplitude=1e-6, frequency=200.0)

        mechanical = Circuit()
        mechanical.force_source("F1", "m", "0", drive)
        mechanical.mass("M1", "m", mass)
        mechanical.spring("K1", "m", "0", stiffness)
        mechanical.damper("D1", "m", "0", damping)

        electrical = Circuit()
        electrical.current_source("I1", "0", "v", drive)
        electrical.capacitor("C1", "v", "0", mass)
        electrical.inductor("L1", "v", "0", 1.0 / stiffness)
        electrical.resistor("R1", "v", "0", 1.0 / damping)

        res_m = TransientAnalysis(mechanical, t_stop=30e-3, t_step=5e-5).run()
        res_e = TransientAnalysis(electrical, t_stop=30e-3, t_step=5e-5).run()
        times = np.linspace(1e-3, 29e-3, 50)
        vm = res_m.sample("v(m)", times)
        ve = res_e.sample("v(v)", times)
        assert np.allclose(vm, ve, rtol=2e-3, atol=1e-12)


class TestResultContainers:
    def test_unknown_signal_raises_keyerror_with_hint(self):
        result = TransientResult(np.array([0.0, 1.0]), {"v(a)": np.array([0.0, 1.0])})
        with pytest.raises(KeyError, match="v\\(a\\)"):
            result["v(b)"]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            TransientResult(np.array([0.0, 1.0]), {"v(a)": np.array([0.0])})

    def test_signals_listing_and_helpers(self):
        time = np.linspace(0.0, 1.0, 11)
        result = TransientResult(time, {"v(a)": time ** 2})
        assert result.signals() == ["v(a)"]
        assert result.final("v(a)") == 1.0
        assert result.at("v(a)", 0.5) == pytest.approx(0.25, abs=0.01)
        assert result.settled_value("v(a)", fraction=0.2) < 1.0
        t_peak, value = result.peak("v(a)")
        assert t_peak == 1.0 and value == 1.0
        t_trough, value = result.trough("v(a)", after=0.5)
        assert t_trough == 0.5

    def test_peak_after_end_raises(self):
        time = np.linspace(0.0, 1.0, 11)
        result = TransientResult(time, {"v(a)": time})
        with pytest.raises(AnalysisError):
            result.peak("v(a)", after=2.0)
