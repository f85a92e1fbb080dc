"""The Newton engine: one loop over a lane axis, serial solve as one lane.

The serial pins below were recorded before the serial and batched Newton
loops were merged into :func:`~repro.circuit.analysis.op.newton_lanes`:
sha256 digests of the solution arrays, the statistics counters, iteration
counts and the failure messages / forensic reports must stay bitwise the
same.  The pins of diode circuits whose Newton solves limit the junction
voltage were re-recorded once, when the diode gained SPICE junction
limiting (with a smaller iteration budget where a pin needs a failure);
the figure-5 and source-stepping pins kept their bits.  A scripted one-unknown system injects the faults (overflowing
update, non-finite sparse solve, non-finite Jacobian at a chord refactor)
that no small netlist produces on demand.  The retirement tests check that
a lane the batch retires carries a reason whose error type is the one the
serial solve of that lane raises.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.circuit import Circuit, SimulationOptions, TransientAnalysis
from repro.circuit.analysis.batch import BatchStage, ParameterColumns
from repro.circuit.analysis.dcsweep import DCSweepAnalysis
from repro.circuit.analysis.op import (RETIREMENT_ERRORS, NewtonWorkspace,
                                       OperatingPointAnalysis, newton_lanes,
                                       newton_solve)
from repro.circuit.devices.behavioral import BehavioralDevice, Port
from repro.circuit.mna import MNASystem
from repro.errors import AnalysisError, ConvergenceError, SingularMatrixError
from repro.natures import MECHANICAL_TRANSLATION
from repro.system import PAPER_PARAMETERS, build_drive_waveform


def digest(*arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array, dtype=float).tobytes())
    return sha.hexdigest()


def figure5_array(cells: int = 2, seed: int = 5) -> Circuit:
    """Closed-form transducer cells loading behavioral resonators, with
    mass, stiffness and damping jittered by up to 2 %."""
    rng = np.random.default_rng(seed)
    circuit = Circuit("figure-5 array")
    drive = build_drive_waveform(10.0, delay=0.5e-3, rise=0.2e-3,
                                 width=3.5e-3, fall=0.2e-3)
    circuit.voltage_source("VS", "a", "0", drive)
    for i in range(cells):
        values = [value * (1.0 + rng.uniform(-0.02, 0.02)) for value in (
            PAPER_PARAMETERS.mass, PAPER_PARAMETERS.stiffness,
            PAPER_PARAMETERS.damping)]
        PAPER_PARAMETERS.transducer().add_to_circuit(
            circuit, f"XDCR{i}", "a", "0", f"m{i}", "0", closed_form=True)
        mech = circuit.mechanical_node(f"m{i}")

        def mass(ctx):
            ctx.contribute("mech", ctx.param("m")
                           * ctx.ddt(ctx.across("mech"), key="p"))

        def spring(ctx):
            x = ctx.integ(ctx.across("mech"), key="x")
            ctx.contribute("mech", ctx.param("k") * x)
            ctx.record("x", x)

        def damper(ctx):
            ctx.contribute("mech", ctx.param("a") * ctx.across("mech"))

        for suffix, behavior, value in zip("mka", (mass, spring, damper),
                                           values):
            circuit.add(BehavioralDevice(
                f"res{i}_{suffix}",
                [Port("mech", mech, circuit.ground, MECHANICAL_TRANSLATION)],
                behavior, params={suffix: value}))
    return circuit


def diode(volts: float = 5.0, ohms: float = 1.0) -> Circuit:
    circuit = Circuit("diode")
    circuit.voltage_source("V1", "a", "0", volts)
    circuit.resistor("R1", "a", "d", ohms)
    circuit.diode("D1", "d", "0")
    return circuit


def floating() -> Circuit:
    """Two current sources in series: with gmin off, singular."""
    circuit = Circuit("floating")
    circuit.current_source("I1", "a", "0", 1e-3)
    circuit.current_source("I2", "b", "a", 1e-3)
    return circuit


def serial_failure(circuit: Circuit, options: SimulationOptions):
    return raised(MNASystem(circuit), options)


def raised(system, options: SimulationOptions):
    """The error serial Newton from zero raises on ``system``."""
    with pytest.raises((ConvergenceError, SingularMatrixError)) as info:
        newton_solve(system, np.zeros(system.size), "op", 0.0, None, options)
    return info.value


# --------------------------------------------------------- serial pins
TRAN_PINS = {
    "auto": ("bedd64d4085268b9a0a621abf25f41fb8ba10288d66f578d7344edae31befbb0",
             {"accepted": 300, "rejected": 0, "newton_iterations": 435,
              "points": 301, "factorizations": 412, "factor_cache_hits": 23,
              "chord_iterations": 0, "stall_refactors": 0}),
    "chord": ("10178d80f834d90396f22164fc4b5b6f5e4bb72f69e47b47ac139797b243088a",
              {"accepted": 300, "rejected": 0, "newton_iterations": 435,
               "points": 301, "factorizations": 10, "factor_cache_hits": 0,
               "chord_iterations": 425, "stall_refactors": 0}),
}


@pytest.mark.parametrize("reuse", sorted(TRAN_PINS))
def test_figure5_transient_pinned(reuse):
    result = TransientAnalysis(
        figure5_array(), t_stop=6e-3, t_step=2e-5,
        options=SimulationOptions(trtol=7.0, jacobian_reuse=reuse)).run()
    names = sorted(result._data)
    statistics = {key: value for key, value in result.statistics.items()
                  if not key.endswith("time_s")}
    sha, pinned = TRAN_PINS[reuse]
    assert statistics == pinned
    assert digest(result.time, *[result._data[name] for name in names]) == sha


def test_source_stepping_op_pinned():
    options = SimulationOptions(max_newton_iterations=8)
    serial_failure(diode(), options)  # plain Newton from zero gives up
    workspace = NewtonWorkspace(options)
    op = OperatingPointAnalysis(diode(), options).run(workspace=workspace)
    assert op.iterations == 78
    assert workspace.statistics() == {
        "factorizations": 82, "factor_cache_hits": 4, "chord_iterations": 0,
        "stall_refactors": 0}
    assert digest(op.raw) == \
        "a4d3aa9f5e4011f2d4b8810268b2bd4ff4b4e527d4298603673a8e2245bb3069"


def test_dc_sweep_continue_on_failure_pinned():
    sweep = DCSweepAnalysis(diode(0.0, 100.0), "V1",
                            [0.0, 0.5, 0.7, 40.0, 0.6, 0.8, 80.0, 0.7, 1.0],
                            SimulationOptions(max_newton_iterations=5),
                            continue_on_failure=True).run()
    names = sorted(sweep.keys())
    assert list(np.flatnonzero(np.isnan(sweep.column("v(d)")))) == \
        [2, 3, 7, 8]
    assert digest(*[sweep.column(name) for name in names]) == \
        "dd9cd46f36d9516b4d4bdde289334b23afa9be22e3769bdc9e725e845affb4e8"


@pytest.mark.parametrize("reuse,sha", [
    ("auto", "ba13c1ddb34d4f4f5347fbe7ee0f9c97592e12739cd0b526ca8acc8c0f5dfac7"),
    ("chord", "2b3ac320ed283d2484b94d34e8fd7cc4925f341b35cfc20be3ae57f1334d3407"),
], ids=["auto", "chord"])
def test_dc_sweep_warm_starts_pinned(reuse, sha):
    sweep = DCSweepAnalysis(diode(), "V1", np.linspace(0.0, 2.0, 9),
                            SimulationOptions(jacobian_reuse=reuse)).run()
    names = sorted(sweep.keys())
    assert digest(*[sweep.column(name) for name in names]) == sha


# ------------------------------------------------------ failure pins
def test_iteration_cap_error_and_report_pinned():
    error = serial_failure(diode(), SimulationOptions(max_newton_iterations=5,
                                                      forensics=True))
    message = "Newton failed to converge in 5 iterations (op, t=0)"
    assert type(error) is ConvergenceError and str(error) == message
    assert error.iterations == 5
    # The trajectory holds the residuals Newton iterated on (the diode
    # linearized at its limited voltage); the error and the report carry
    # the circuit's own residual at the last iterate.
    assert error.residual == 6.333569419133078e+22
    report = error.report
    assert (report.kind, report.error_type, report.message,
            report.iterations) == ("newton", "ConvergenceError", message, 5)
    assert report.residual_norm == error.residual
    assert report.residual_trajectory == [
        5.0, 3.6350867983983714e-10, 6.680666334245069e-08,
        1.192921614681887e-05, 0.0020682467536887903]
    assert [name for name, _ in report.offending] == ["v(d)", "v(a)", "V1#i"]
    assert report.condition_estimate == 5.997218442619061


def test_chord_iteration_cap_trajectory_pinned():
    error = serial_failure(diode(), SimulationOptions(
        max_newton_iterations=8, forensics=True, jacobian_reuse="chord"))
    assert str(error) == "Newton failed to converge in 8 iterations (op, t=0)"
    # Full Newton while the diode limits (iterations 2-5), chord after.
    assert error.report.residual_trajectory == [
        5.0, 3.6350867983983714e-10, 6.680666334245069e-08,
        1.192921614681887e-05, 0.0020682467536887903, 0.34759630270492414,
        48.46941761007626, 33.54309586209926]
    assert error.report.condition_estimate == 153.13152602118524


def test_nonfinite_residual_error_pinned():
    error = serial_failure(diode(float("nan")),
                           SimulationOptions(forensics=True))
    message = "non-finite residual/Jacobian at iteration 1 (t=0)"
    assert type(error) is ConvergenceError and str(error) == message
    assert error.iterations == 1 and error.residual is None
    assert error.report.residual_trajectory == []
    assert error.report.offending[0][0] == "V1#i"


@pytest.mark.parametrize("solver,detail", [
    ("dense", "matrix is singular (zero pivot in LU)"),
    ("sparse", "sparse LU factorization failed: Factor is exactly singular"),
])
def test_singular_error_pinned(solver, detail):
    error = serial_failure(floating(), SimulationOptions(
        gmin=0.0, forensics=True, linear_solver=solver))
    message = f"singular MNA matrix while solving op at t=0: {detail}"
    assert type(error) is SingularMatrixError and str(error) == message
    assert type(error.__cause__).__name__ == "LinAlgError"
    report = error.report
    assert (report.kind, report.iterations, report.residual_trajectory) == \
        ("singular", None, [])
    assert report.diagnosis["suspects"] == ["v(a)", "v(b)"]


class _Generation:
    generation = 0


class ScriptedSystem:
    """A one-unknown stand-in for ``MNASystem`` whose assemblies follow
    ``script(call, want_jacobian) -> (residual, jacobian)``: it injects
    faults no small netlist produces on demand."""

    num_nodes = size = 1
    structure_cache = _Generation()

    def __init__(self, script, sparse: bool = False) -> None:
        self.script, self.sparse, self.calls = script, sparse, 0

    def unknown_labels(self):
        return ["v(a)"]

    def assemble(self, x, analysis, time, integrator, options, source_scale,
                 want_jacobian=True, limits=None):
        self.calls += 1
        res, jac = self.script(self.calls, want_jacobian)
        return _ScriptedContext(np.array([res]), np.array([[jac]]),
                                want_jacobian, self.sparse)


class _ScriptedContext:
    def __init__(self, res, jac, want_jacobian, sparse) -> None:
        self.res, self._jac = res, jac
        self.want_jacobian, self.use_sparse = want_jacobian, sparse

    def jacobian(self):
        return sp.csr_matrix(self._jac) if self.use_sparse else self._jac

    def jacobian_is_finite(self):
        return not self.want_jacobian or bool(np.isfinite(self._jac).all())


def tiny_pivot(call, want_jacobian):
    """A factorable Jacobian whose solve overflows."""
    return 1e10, 1e-308


def chord_blowup(call, want_jacobian):
    """A growing residual (the chord stall test fires) and a Jacobian that
    is finite only on the first assembly."""
    return 10.0 ** call, 1.0 if call == 1 else float("nan")


@pytest.mark.parametrize("script,sparse,reuse,reason,message,trajectory", [
    (tiny_pivot, False, "auto", "nonfinite_update",
     "non-finite Newton update at iteration 1 (t=0)", [1e10]),
    (tiny_pivot, True, "auto", "singular_solve",
     "MNA solve failed for op at t=0: sparse direct solve produced "
     "non-finite values (singular system; missing boundary conditions?)",
     [1e10]),
    (chord_blowup, False, "chord", "nonfinite_jacobian",
     "non-finite Jacobian at iteration 3 (t=0)", [10.0, 100.0, 1000.0]),
], ids=["nonfinite_update", "singular_solve", "nonfinite_jacobian"])
def test_injected_faults_raise_pinned_errors(script, sparse, reuse, reason,
                                            message, trajectory):
    options = SimulationOptions(forensics=True, jacobian_reuse=reuse)
    error = raised(ScriptedSystem(script, sparse), options)
    assert type(error) is RETIREMENT_ERRORS[reason]
    assert str(error) == message
    assert error.report.residual_trajectory == trajectory
    assert error.report.kind == ("singular" if reason == "singular_solve"
                                 else "newton")


# --------------------------------------------------------- retirement
def lane_circuit() -> Circuit:
    """A diode loaded through R1 plus a resistor-grounded node ``b`` fed by
    a current source: a NaN source lane, a hard-driven lane and an
    infinite ``RG`` (floating ``b``) lane each retire differently."""
    circuit = diode(0.5, 100.0)
    circuit.current_source("I1", "0", "b", 1e-3)
    circuit.resistor("RG", "b", "0", 1e3)
    return circuit


def test_retired_lane_reason_matches_serial_error():
    circuit = lane_circuit()
    options = SimulationOptions(gmin=0.0, max_newton_iterations=5)
    columns = ParameterColumns(circuit, [
        ("V1", "dc", [0.5, np.nan, 5.0, 0.5]),
        ("RG", "resistance", [1e3, 1e3, 1e3, np.inf])])
    system = MNASystem(circuit)
    workspace = NewtonWorkspace(options)
    with columns:
        stage = BatchStage(system, "op", options, columns, 1.0, workspace)
        lanes = newton_lanes(stage, np.zeros((4, system.size)), options,
                             workspace, ("op", None, 1.0, 0))
    assert lanes.reason == [None, "nonfinite_residual", "iteration_cap",
                            "singular_factor"]
    assert list(lanes.converged) == [True, False, False, False]
    assert list(lanes.retired_at) == [0, 1, 5, 1]
    for lane in (1, 2, 3):
        columns.set_lane(lane)
        try:
            error = serial_failure(circuit, options)
        finally:
            columns.restore()
        assert type(error) is RETIREMENT_ERRORS[lanes.reason[lane]]
        if isinstance(error, ConvergenceError):
            assert error.iterations == lanes.retired_at[lane]


def test_serial_solve_is_one_lane_of_the_engine():
    circuit = diode(2.0, 50.0)
    options = SimulationOptions()
    system = MNASystem(circuit)
    x, iterations = newton_solve(system, np.zeros(system.size), "op", 0.0,
                                 None, options)
    columns = ParameterColumns(circuit, [("V1", "dc", [2.0, 2.0, 3.0])])
    workspace = NewtonWorkspace(options)
    with columns:
        stage = BatchStage(system, "op", options, columns, 1.0, workspace)
        lanes = newton_lanes(stage, np.zeros((3, system.size)), options,
                             workspace, ("op", None, 1.0, 0))
    assert lanes.reason == [None] * 3
    assert np.array_equal(lanes.x[0], x) and np.array_equal(lanes.x[1], x)
    assert list(lanes.iterations[:2]) == [iterations, iterations]


# ----------------------------------------------------------- options
def test_zero_source_steps_rejected():
    # Zero levels used to return the zero initial guess as a solved point.
    with pytest.raises(AnalysisError, match="max_source_steps"):
        SimulationOptions(max_newton_iterations=2, max_source_steps=0)
