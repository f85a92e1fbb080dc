"""SPICE junction limiting of the built-in diode inside the Newton engine.

:func:`~repro.circuit.devices.nonlinear.pnjlim` is SPICE3's ``DEVpnjlim``
written once on arrays: the serial stamp is its one-element case and a
batch group view limits ``(k, B)`` blocks with the same code.  The Newton
solve owns the limiting state (:class:`~repro.circuit.mna.LimitState`),
advances it once per iteration, never accepts a lane as converged on an
iteration in which it limited, and stops limiting a junction that ideal
sources hold in place.  Limited operating points agree with a
``reltol=1e-12`` reference to the SPICE tolerance they were solved at.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.campaign import CampaignRunner, CircuitEvaluator, MonteCarlo, Normal
from repro.circuit import Circuit, SimulationOptions
from repro.circuit.analysis import op as op_module
from repro.circuit.analysis.batch import ParameterColumns, assemble_batch
from repro.circuit.analysis.dcsweep import DCSweepAnalysis
from repro.circuit.analysis.op import (NewtonWorkspace, OperatingPointAnalysis,
                                       newton_lanes)
from repro.circuit.devices.nonlinear import Diode, pnjlim
from repro.circuit.mna import LimitState, MNASystem
from repro.errors import ConvergenceError, SingularMatrixError
from repro.telemetry import registry

from test_batch_assembly import SEEDS, generate, options_for  # sibling module

VT = 0.025852
VCRIT = VT * math.log(VT / (math.sqrt(2.0) * 1e-14))


def spice3_pnjlim(vnew: float, vold: float, vt: float, vcrit: float):
    """``DEVpnjlim`` of SPICE3 (``devsup.c``), transliterated line by line."""
    if vnew > vcrit and abs(vnew - vold) > vt + vt:
        if vold > 0:
            arg = 1 + (vnew - vold) / vt
            if arg > 0:
                vnew = vold + vt * math.log(arg)
            else:
                vnew = vcrit
        else:
            vnew = vt * math.log(vnew / vt)
        return vnew, True
    return vnew, False


# ------------------------------------------------------- limiting function
@pytest.mark.parametrize("vnew,vold", [
    (0.3, 0.0),             # below v_crit
    (VCRIT + 0.01, VCRIT),  # a step of less than 2 vt
    (-5.0, 0.7),            # reverse steps are not limited
])
def test_inactive_limiting_passes_the_voltage_through(vnew, vold):
    v_lim, limited = pnjlim(vnew, vold, VT, VCRIT)
    assert v_lim is vnew and not limited
    block = np.full((3, 2), vnew)
    v_lim, limited = pnjlim(block, np.full((3, 2), vold), VT, VCRIT)
    assert v_lim is block and not limited.any()


@pytest.mark.parametrize("vnew,vold,branch", [
    (5.0, 0.6, "log step from a forward-biased v_old"),
    (VCRIT + 0.3, VCRIT + 0.01, "log step just above v_crit"),
    (0.8, 1.2, "arg <= 0 lands on v_crit"),
    (5.0, 0.0, "v_old = 0 starts from vt ln(v_new / vt)"),
    (3.0, -2.0, "v_old < 0 likewise"),
])
def test_limiting_matches_spice3_pnjlim(vnew, vold, branch):
    want, limited = spice3_pnjlim(vnew, vold, VT, VCRIT)
    assert limited, branch
    got, hit = pnjlim(vnew, vold, VT, VCRIT)
    assert bool(hit)
    assert float(got) == pytest.approx(want, rel=1e-15, abs=0.0), branch
    if branch.startswith("arg"):
        assert float(got) == VCRIT
    else:
        assert 0.0 < float(got) < vnew


def test_lane_form_equals_a_scalar_loop_bitwise():
    rng = np.random.default_rng(7)
    vnew = rng.uniform(-2.0, 6.0, size=(5, 64))
    vold = np.where(rng.random((5, 64)) < 0.3, 0.0,
                    rng.uniform(-1.0, 1.5, size=(5, 64)))
    vt = rng.uniform(0.02, 0.05, size=(5, 1))
    vcrit = vt * np.log(vt / (math.sqrt(2.0) * 1e-14))
    v_lim, limited = pnjlim(vnew, vold, vt, vcrit)
    assert limited.any() and not limited.all()
    for i in range(5):
        for b in range(64):
            one, hit = pnjlim(vnew[i, b], vold[i, b], vt[i, 0], vcrit[i, 0])
            assert np.float64(one).tobytes() == v_lim[i, b].tobytes()
            assert bool(hit) == limited[i, b]


# ----------------------------------------------------------- Newton engine
class _System:
    num_nodes = size = 1


class LimitedStage:
    """A one-unknown stage whose updates are always within tolerance and
    whose assemblies report the scripted ``limited`` lanes."""

    system = _System()

    def __init__(self, limited_at) -> None:
        self.limited_at = limited_at  # iteration -> (B,) mask or None
        self.iteration = 0

    def assemble(self, x, want_jacobian, limits):
        self.iteration += want_jacobian  # one full assembly per iteration
        return np.zeros_like(x), None, self.limited_at(self.iteration)

    def factor(self, refresh=None):
        return None

    def solve(self, factorization, rhs):
        return np.zeros_like(rhs), None


def run_lanes(stage, batch, options=None):
    options = options or SimulationOptions()
    return newton_lanes(stage, np.zeros((batch, 1)), options,
                        NewtonWorkspace(options), ("op", None, 1.0, 0))


def test_a_limited_iteration_never_converges():
    # |dx| = 0 on every iteration, yet limiting refuses the verdict.
    stage = LimitedStage(lambda it: np.array([True]) if it <= 3 else None)
    lanes = run_lanes(stage, 1)
    assert lanes.converged.all() and list(lanes.iterations) == [4]
    always = LimitedStage(lambda it: np.array([True]))
    lanes = run_lanes(always, 1, SimulationOptions(max_newton_iterations=6))
    assert lanes.reason == ["iteration_cap"]


def test_limiting_holds_back_only_its_own_lane():
    stage = LimitedStage(
        lambda it: np.array([True, False, True]) if it == 1 else
        np.array([False, False, True]) if it == 2 else None)
    lanes = run_lanes(stage, 3)
    assert lanes.converged.all()
    assert list(lanes.iterations) == [2, 1, 3]


def diode_circuit(volts: float = 5.0) -> Circuit:
    circuit = Circuit("diode")
    circuit.voltage_source("V1", "a", "0", volts)
    circuit.resistor("R1", "a", "d", 1.0)
    circuit.diode("D1", "d", "0")
    return circuit


def test_repeated_assembly_of_one_iterate_stamps_identical_values():
    system = MNASystem(diode_circuit())
    options = SimulationOptions()
    limits = LimitState(1)
    x0 = np.zeros(system.size)
    system.assemble(x0, "op", 0.0, None, options, limits=limits)
    assert limits.limited is None  # the first iteration never limits
    limits.advance()
    x1 = np.array([5.0, 5.0, -1e-3])
    residual = system.assemble(x1, "op", 0.0, None, options,
                               want_jacobian=False, limits=limits)
    assert list(limits.limited) == [True]
    full = system.assemble(x1, "op", 0.0, None, options, limits=limits)
    again = system.assemble(x1, "op", 0.0, None, options, limits=limits)
    assert residual.res.tobytes() == full.res.tobytes() == again.res.tobytes()
    assert full.jac.tobytes() == again.jac.tobytes()
    # Outside a Newton solve nothing limits: the exact exponential at x1.
    exact = system.assemble(x1, "op", 0.0, None, options)
    assert exact.res.tobytes() != full.res.tobytes()


def test_batch_group_view_limits_each_lane_like_its_serial_stamp():
    circuit = diode_circuit()
    system = MNASystem(circuit)
    options = SimulationOptions()
    columns = ParameterColumns(circuit, [("V1", "dc", [5.0, 0.5, 2.0])])
    x0 = np.zeros((3, system.size))
    x1 = np.array([[5.0, 5.0, -1e-3], [0.5, 0.4, 0.0], [2.0, 0.9, -1.0]])
    batch_limits = LimitState(3)
    with columns:
        for x in (x0, x1):
            batch_limits.advance()
            ctx = assemble_batch(system, x, "op", options, columns,
                                 limits=batch_limits)
        assert list(batch_limits.limited) == [True, False, True]
        for lane in range(3):
            columns.set_lane(lane)
            limits = LimitState(1)
            for x in (x0, x1):
                limits.advance()
                serial = system.assemble(x[lane], "op", 0.0, None, options,
                                         limits=limits)
            assert np.allclose(serial.res, ctx.res[lane], rtol=1e-13,
                               atol=0.0)
            assert np.allclose(serial.jac, ctx.jac[lane], rtol=1e-13,
                               atol=0.0)


def test_a_junction_held_in_place_is_not_limited():
    limits = LimitState(3)
    key = object()
    pnjlim_at = lambda v, v_old: pnjlim(v, v_old, VT, VCRIT)  # noqa: E731
    limits.limit(key, np.array([0.5, 0.5, 0.5]), pnjlim_at)
    limits.advance()
    # Every lane steps far forward: all limit.
    v = np.array([30.0, 2.1, 5.0])
    v_lim = limits.limit(key, v, pnjlim_at)
    assert list(limits.limited) == [True, True, True]
    assert np.all(v_lim < 1.0)
    limits.advance()
    # Lanes 0 and 1 come back to within rounding of the same voltage (held
    # by ideal sources); lane 2 moved, so it keeps limiting.
    again = np.array([np.nextafter(30.0, 31.0), 2.1, 4.9])
    v_lim2 = limits.limit(key, again, pnjlim_at)
    assert list(limits.limited) == [False, False, True]
    assert v_lim2[0] == again[0] and v_lim2[1] == again[1]
    assert v_lim[2] < v_lim2[2] < 1.5
    # The serial (float) form follows the same rule.
    serial = LimitState(1)
    serial.limit(key, 0.5, pnjlim_at)
    for volts in (2.1, np.nextafter(2.1, 3.0)):
        serial.advance()
        out = serial.limit(key, volts, pnjlim_at)
    assert out == np.nextafter(2.1, 3.0) and serial.limited is None


def test_junction_held_by_an_ideal_source_solves_at_the_source_voltage():
    # 2.1 V straight across a bare diode: limiting cannot steer the
    # junction, so the solve evaluates it at 2.1 V on the third iteration
    # instead of walking G(v_lim) up for ~27 iterations.
    circuit = Circuit("held")
    circuit.voltage_source("V1", "a", "0", 2.1)
    circuit.diode("D1", "a", "0")
    op = OperatingPointAnalysis(circuit).run()
    assert op.iterations <= 4
    current, _ = circuit["D1"]._current_and_conductance(2.1)
    assert op.raw[1] == pytest.approx(-current, rel=1e-12)


def chord_ladder_sweep_events(monkeypatch) -> list:
    """Run a chord DC sweep of a diode ladder, recording every serial
    assembly as ``(x, want_jacobian, res, limited)`` and every factor as
    ``"factor"``."""
    events = []
    assemble = op_module.SerialStage.assemble
    factor = op_module.SerialStage.factor

    def spy_assemble(self, x, want_jacobian, limits):
        res, sick, limited = assemble(self, x, want_jacobian, limits)
        events.append((x.copy(), want_jacobian, res.copy(),
                       None if limited is None else limited.copy()))
        return res, sick, limited

    def spy_factor(self, refresh=None):
        events.append("factor")
        return factor(self, refresh)

    monkeypatch.setattr(op_module.SerialStage, "assemble", spy_assemble)
    monkeypatch.setattr(op_module.SerialStage, "factor", spy_factor)
    circuit = Circuit("ladder")
    circuit.voltage_source("VS", "n0", "0", 0.0)
    for i in range(4):
        circuit.resistor(f"R{i}", f"n{i}", f"n{i + 1}", 100.0)
        circuit.diode(f"D{i}", f"n{i + 1}", "0")
    DCSweepAnalysis(circuit, "VS", np.linspace(0.0, 1.5, 7),
                    SimulationOptions(jacobian_reuse="chord")).run()
    return events


def test_chord_stall_reassembly_repeats_the_limited_values(monkeypatch):
    """A chord iteration that stalls re-assembles the same iterate in full:
    the limiting state has not advanced, so the residual is the same."""
    calls = [event for event in chord_ladder_sweep_events(monkeypatch)
             if event != "factor"]
    repeats = [(first, second) for first, second in zip(calls, calls[1:])
               if not first[1] and second[1]
               and np.array_equal(first[0], second[0])]
    assert any(first[3] is not None for first, _ in repeats)
    for first, second in repeats:
        assert first[2].tobytes() == second[2].tobytes()
        assert (first[3] is None) == (second[3] is None)


def test_chord_never_rides_a_limited_jacobian(monkeypatch):
    events = chord_ladder_sweep_events(monkeypatch)
    limited_factors = 0
    for before, event, after in zip(events, events[1:], events[2:]):
        if event == "factor" and before[3] is not None:
            limited_factors += 1
            assert after[1], "a chord iteration rode a limited Jacobian"
    assert limited_factors


# ---------------------------------------------------------------- accuracy
def rel_error(solution, reference, floor: float = 1e-3) -> float:
    return float(np.max(np.abs(solution - reference)
                        / np.maximum(np.abs(reference), floor)))


def corpus_diode_seeds():
    return [seed for seed in SEEDS
            if any(type(device) is Diode for device in generate(seed)[0])]


@pytest.mark.parametrize("seed", corpus_diode_seeds())
def test_limited_corpus_op_within_reltol_of_a_tight_reference(seed):
    circuit = generate(seed)[0]
    options = options_for(seed)
    try:
        solution = OperatingPointAnalysis(circuit, options).run().raw
    except (ConvergenceError, SingularMatrixError):
        # Then the tight solve cannot succeed either.
        with pytest.raises((ConvergenceError, SingularMatrixError)):
            OperatingPointAnalysis(circuit, options.with_(reltol=1e-12)).run()
        return
    reference = OperatingPointAnalysis(
        circuit, options.with_(reltol=1e-12)).run().raw
    assert rel_error(solution, reference) <= options.reltol


def ladder(params: dict) -> Circuit:
    circuit = Circuit("ladder")
    circuit.voltage_source("VS", "n0", "0", params.get("vdd", 5.0))
    for i in range(12):
        resistance = params.get("rscale", 100.0) if i == 0 else 100.0
        circuit.resistor(f"R{i}", f"n{i}", f"n{i + 1}", resistance)
        circuit.diode(f"D{i}", f"n{i + 1}", "0")
    return circuit


@pytest.mark.parametrize("vdd,rscale", [(5.0, 100.0), (3.7, 121.0),
                                        (6.4, 83.0), (0.9, 100.0)])
def test_limited_ladder_op_within_reltol_and_fast(vdd, rscale):
    circuit = ladder({"vdd": vdd, "rscale": rscale})
    options = SimulationOptions()
    op = OperatingPointAnalysis(circuit, options).run()
    reference = OperatingPointAnalysis(
        circuit, options.with_(reltol=1e-12)).run()
    assert rel_error(op.raw, reference.raw) <= options.reltol
    assert op.iterations <= 16  # 63 without limiting at 5 V


# ------------------------------------------------------- source stepping
def test_source_stepping_is_counted_once_per_entry():
    options = SimulationOptions(max_newton_iterations=8)
    before = registry.snapshot()
    OperatingPointAnalysis(diode_circuit(), options).run()
    counters = registry.delta(before)["counters"]
    assert counters.get("op.source_stepping", 0) == 1


@pytest.mark.parametrize("backend", ["serial", "batch"])
def test_ladder_campaign_never_source_steps(backend):
    spec = MonteCarlo({"vdd": Normal(5.0, 0.5), "rscale": Normal(100.0, 10.0)},
                      samples=256, seed=42)
    evaluator = CircuitEvaluator(
        ladder, param_map={"vdd": "VS.dc", "rscale": "R0.resistance"})
    result = CampaignRunner(backend=backend).run(spec, evaluator)
    assert result.num_failures == 0
    assert result.metrics["counters"].get("op.source_stepping", 0) == 0
    assert result.solver_stats["factorizations"] / len(result) <= 16
