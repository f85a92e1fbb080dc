"""Tests for the factorization-reuse policies of the Newton/AC solver core."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import (
    ACAnalysis,
    Circuit,
    DCSweepAnalysis,
    OperatingPointAnalysis,
    Pulse,
    SimulationOptions,
    TransientAnalysis,
)
from repro.campaign import CircuitEvaluator
from repro.circuit.analysis.ac import frequency_grid
from repro.circuit.analysis.results import canonical_signal_name
from repro.errors import AnalysisError, CampaignError
from repro.linalg import cache as linalg_cache


def _rc(drive=None) -> Circuit:
    circuit = Circuit("rc")
    circuit.voltage_source("V1", "in", "0",
                           drive if drive is not None else Pulse(0.0, 5.0, rise=1e-6))
    circuit.resistor("R1", "in", "out", 1e3)
    circuit.capacitor("C1", "out", "0", 1e-6)
    return circuit


def _diode_rc() -> Circuit:
    """A mildly nonlinear dynamic circuit (diode + RC)."""
    circuit = Circuit("diode-rc")
    circuit.voltage_source("V1", "in", "0", Pulse(0.0, 2.0, rise=1e-4, width=2e-3))
    circuit.resistor("R1", "in", "mid", 500.0)
    circuit.diode("D1", "mid", "out")
    circuit.resistor("R2", "out", "0", 2e3)
    circuit.capacitor("C1", "out", "0", 2e-7)
    return circuit


def _rc_pulse() -> Circuit:
    """A linear RC low-pass driven by a pulse."""
    circuit = Circuit("rc pulse")
    circuit.voltage_source("VS", "in", "0",
                           Pulse(0.0, 5.0, rise=2e-5, width=4e-4, delay=1e-5))
    circuit.resistor("R1", "in", "out", 1e3)
    circuit.capacitor("C1", "out", "0", 1e-7)
    circuit.resistor("R2", "out", "0", 1e4)
    return circuit


def _diode_c() -> Circuit:
    """A pulse-driven diode clamp across a capacitor."""
    circuit = Circuit("nl")
    circuit.voltage_source("VS", "in", "0",
                           Pulse(0.0, 1.0, rise=5e-5, width=3e-4))
    circuit.resistor("R1", "in", "d", 100.0)
    circuit.diode("D1", "d", "0")
    circuit.capacitor("C1", "d", "0", 1e-8)
    return circuit


def _factor_every_jacobian(monkeypatch) -> None:
    """Reference Newton stage: no held matrix is ever matched for reuse,
    so every assembled Jacobian is factored afresh."""
    monkeypatch.setattr(linalg_cache, "_same_matrix",
                        lambda held, matrix: False)


def _force_direct_ac(monkeypatch) -> None:
    """Reference AC route: the G/C/S decomposition is never built, so every
    frequency is assembled and solved directly."""
    monkeypatch.setattr(ACAnalysis, "_sweep_cached",
                        lambda self, *args: None)


class TestOptionValidation:
    def test_policy_names(self):
        for policy in ("auto", "chord"):
            assert SimulationOptions(jacobian_reuse=policy).jacobian_reuse == policy
        for policy in ("off", "always"):
            with pytest.raises(AnalysisError):
                SimulationOptions(jacobian_reuse=policy)
        # A campaign axis cannot name a removed option either.
        with pytest.raises(CampaignError, match="step_chord_reuse"):
            CircuitEvaluator(_rc)({"options.step_chord_reuse": False})


class TestAutoReuse:
    def test_auto_bit_identical_to_off_nonlinear_transient(self, monkeypatch):
        auto = TransientAnalysis(_diode_rc(), t_stop=4e-3, t_step=4e-5,
                                 options=SimulationOptions()).run()
        _factor_every_jacobian(monkeypatch)
        every = TransientAnalysis(_diode_rc(), t_stop=4e-3, t_step=4e-5,
                                  options=SimulationOptions()).run()
        assert every.statistics["factor_cache_hits"] == 0
        assert set(every.signals()) == set(auto.signals())
        for signal in every.signals():
            assert np.array_equal(every[signal], auto[signal])

    def test_linear_transient_factors_once_per_step_size(self):
        result = TransientAnalysis(
            _rc(), t_stop=5e-3, t_step=5e-5,
            options=SimulationOptions(jacobian_reuse="auto")).run()
        stats = result.statistics
        # Far fewer factorizations than Newton iterations: the fixed-step
        # portions of the run reuse one LU per step size.
        assert stats["factorizations"] < stats["newton_iterations"] / 4
        assert stats["factor_cache_hits"] > 0

    def test_linear_dc_sweep_factors_once(self):
        circuit = Circuit("divider")
        circuit.voltage_source("V1", "in", "0", 1.0)
        circuit.resistor("R1", "in", "out", 1e3)
        circuit.resistor("R2", "out", "0", 1e3)
        sweep = DCSweepAnalysis(circuit, "V1", np.linspace(0.0, 5.0, 21))
        result = sweep.run()
        np.testing.assert_allclose(result["v(out)"], sweep.values / 2.0,
                                   rtol=1e-8)


class TestChord:
    def test_chord_matches_full_newton_closely(self):
        # Chord refactors on every step-size change, so its trajectory
        # follows full Newton's LTE decisions almost exactly.
        full = TransientAnalysis(
            _diode_rc(), t_stop=4e-3, t_step=4e-5,
            options=SimulationOptions()).run()
        chord = TransientAnalysis(
            _diode_rc(), t_stop=4e-3, t_step=4e-5,
            options=SimulationOptions(jacobian_reuse="chord")).run()
        probe = np.linspace(1e-4, 3.9e-3, 25)
        for signal in ("v(out)", "v(mid)"):
            reference = full.sample(signal, probe)
            scale = float(np.max(np.abs(reference)))
            # Chord iterates settle to the same waveform within the Newton
            # tolerance; the switching edge is the worst case.
            assert np.max(np.abs(chord.sample(signal, probe) - reference)) \
                <= 5e-4 * scale

    def test_chord_reuses_factorizations(self):
        chord = TransientAnalysis(
            _diode_rc(), t_stop=4e-3, t_step=4e-5,
            options=SimulationOptions(jacobian_reuse="chord")).run()
        stats = chord.statistics
        assert stats["chord_iterations"] > 0
        assert stats["factorizations"] < stats["newton_iterations"]

    def test_stall_triggers_refactor(self):
        """A pulse edge invalidates the held Jacobian of a nonlinear circuit;
        the stall detector must respond with full-Newton refactors rather
        than burning the iteration cap."""
        circuit = Circuit("hard-diode")
        circuit.voltage_source("V1", "in", "0",
                               Pulse(0.0, 5.0, rise=2e-5, width=1e-3, delay=5e-4))
        circuit.resistor("R1", "in", "mid", 100.0)
        circuit.diode("D1", "mid", "out", saturation_current=1e-14)
        circuit.resistor("R2", "out", "0", 1e4)
        circuit.capacitor("C1", "out", "0", 1e-7)
        chord = TransientAnalysis(
            circuit, t_stop=2e-3, t_step=2e-5,
            options=SimulationOptions(jacobian_reuse="chord")).run()
        assert chord.statistics["stall_refactors"] > 0
        # And the answer still matches full Newton.
        full = TransientAnalysis(
            circuit, t_stop=2e-3, t_step=2e-5,
            options=SimulationOptions()).run()
        probe = np.linspace(1e-4, 1.9e-3, 20)
        reference = full.sample("v(out)", probe)
        assert np.max(np.abs(chord.sample("v(out)", probe) - reference)) \
            <= 1e-5 * float(np.max(np.abs(reference)))

    def test_chord_matches_full_newton_waveform(self):
        def run(reuse):
            return TransientAnalysis(
                _rc_pulse(), t_stop=1e-3, t_step=1e-5,
                options=SimulationOptions(jacobian_reuse=reuse)).run()

        chord, reference = run("chord"), run("auto")
        # Time grids may differ slightly (step control interacts with the
        # Newton path); compare on the common interpolated grid.  Chord
        # accepts residual-stale solutions by design, so the contract is
        # "within a few times reltol", not bit-identical.
        grid = np.linspace(0.0, 1e-3, 200)
        a = np.interp(grid, chord.time, chord.signal("v(out)"))
        b = np.interp(grid, reference.time, reference.signal("v(out)"))
        scale = np.max(np.abs(b))
        assert np.max(np.abs(a - b)) <= 5e-3 * scale

    def test_nonlinear_transient_still_converges_and_matches(self):
        chord = TransientAnalysis(
            _diode_c(), t_stop=5e-4, t_step=5e-6,
            options=SimulationOptions(jacobian_reuse="chord")).run()
        reference = TransientAnalysis(
            _diode_c(), t_stop=5e-4, t_step=5e-6,
            options=SimulationOptions()).run()
        grid = np.linspace(0.0, 5e-4, 150)
        a = np.interp(grid, chord.time, chord.signal("v(d)"))
        b = np.interp(grid, reference.time, reference.signal("v(d)"))
        assert np.max(np.abs(a - b)) <= 1e-2 * max(np.max(np.abs(b)), 1e-12)


class TestACSweepCache:
    def test_cached_sweep_matches_direct(self, monkeypatch):
        circuit = _rc(drive=1.0)
        circuit["V1"].ac = 1.0
        frequencies = frequency_grid(10.0, 1e6, 15)
        cached = ACAnalysis(circuit, frequencies, SimulationOptions())
        fast = cached.run()
        _force_direct_ac(monkeypatch)
        direct = ACAnalysis(circuit, frequencies, SimulationOptions())
        reference = direct.run()
        assert direct.sweep_mode == "direct"
        assert cached.sweep_mode == "cached"
        for signal in reference.signals():
            ref = np.asarray(reference[signal])
            scale = float(np.max(np.abs(ref))) or 1.0
            assert np.max(np.abs(np.asarray(fast[signal]) - ref)) <= 1e-9 * scale

    def test_small_sweeps_stay_direct(self):
        circuit = _rc(drive=1.0)
        circuit["V1"].ac = 1.0
        analysis = ACAnalysis(circuit, [1e3, 2e3], SimulationOptions())
        analysis.run()
        assert analysis.sweep_mode == "direct"

    def test_behavioral_integ_circuit_uses_cache(self, monkeypatch):
        """The transducer's integ term produces the S/(jw) block; the
        decomposition must still verify and accelerate."""
        from repro.system import build_behavioral_system

        circuit = build_behavioral_system()
        frequencies = frequency_grid(10.0, 1e5, 10)
        cached = ACAnalysis(circuit, frequencies, SimulationOptions())
        fast = cached.run()
        _force_direct_ac(monkeypatch)
        direct = ACAnalysis(circuit, frequencies, SimulationOptions())
        reference = direct.run()
        assert cached.sweep_mode == "cached"
        assert direct.sweep_mode == "direct"
        for signal in reference.signals():
            ref = np.asarray(reference[signal])
            scale = float(np.max(np.abs(ref))) or 1.0
            assert np.max(np.abs(np.asarray(fast[signal]) - ref)) <= 1e-8 * scale


class TestSignalNames:
    def test_canonical_rename(self):
        assert canonical_signal_name("V1#i") == "i(V1)"
        assert canonical_signal_name("XDCR#x") == "XDCR.x"
        assert canonical_signal_name("v(out)") == "v(out)"

    def test_op_exposes_aux_unknowns(self):
        circuit = _rc(drive=2.0)
        op = OperatingPointAnalysis(circuit).run()
        assert op["i(V1)"] == pytest.approx(0.0, abs=1e-9)

    def test_ac_and_transient_share_renaming(self):
        circuit = _rc(drive=1.0)
        circuit["V1"].ac = 1.0
        ac_result = ACAnalysis(circuit, frequency_grid(10.0, 1e5, 8),
                               SimulationOptions()).run()
        tran_result = TransientAnalysis(circuit, t_stop=1e-4,
                                        t_step=1e-5).run()
        assert "i(V1)" in ac_result.signals()
        assert "i(V1)" in tran_result.signals()


class TestSingularFailurePaths:
    def test_dense_singular_mna_raises(self):
        """Two current sources in series leave the middle node floating;
        with gmin disabled the Jacobian is exactly singular."""
        from repro.circuit.analysis.op import newton_solve
        from repro.circuit.mna import MNASystem
        from repro.errors import SingularMatrixError

        circuit = Circuit("floating")
        circuit.current_source("I1", "a", "0", 1e-3)
        circuit.current_source("I2", "b", "a", 1e-3)
        options = SimulationOptions(gmin=0.0)
        system = MNASystem(circuit)
        with pytest.raises(SingularMatrixError):
            newton_solve(system, np.zeros(system.size), "op", 0.0, None,
                         options)

    def test_sparse_singular_mna_raises(self):
        from repro.circuit.analysis.op import newton_solve
        from repro.circuit.mna import MNASystem
        from repro.errors import SingularMatrixError

        circuit = Circuit("floating-sparse")
        circuit.current_source("I1", "a", "0", 1e-3)
        circuit.current_source("I2", "b", "a", 1e-3)
        options = SimulationOptions(gmin=0.0, linear_solver="sparse")
        system = MNASystem(circuit)
        with pytest.raises(SingularMatrixError):
            newton_solve(system, np.zeros(system.size), "op", 0.0, None,
                         options)

    def test_op_analysis_gmin_rescues_floating_node(self):
        """The default gmin keeps the same circuit solvable (the historical
        fallback behaviour must survive the linalg rewiring)."""
        circuit = Circuit("floating-gmin")
        circuit.current_source("I1", "a", "0", 1e-3)
        circuit.resistor("R1", "a", "b", 1e3)
        op = OperatingPointAnalysis(circuit).run()
        assert np.isfinite(op.voltage("b"))
