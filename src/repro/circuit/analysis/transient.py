"""Transient analysis: adaptive time stepping with per-step Newton solves.

The integration follows standard SPICE practice:

1. the DC operating point provides the initial condition (unless
   ``use_ic=True`` requests a cold start from zero),
2. the integrator (:class:`~repro.circuit.mna.Integrator`) is *primed* with
   that solution so every dynamic state has a consistent history at ``t0``,
3. time steps are taken with the trapezoidal rule (or backward Euler), each
   step solved by the shared Newton routine,
4. steps are rejected and halved when Newton fails or when the local
   truncation error -- estimated from the deviation of the converged solution
   from the polynomial predictor -- exceeds ``trtol`` times the tolerance,
5. waveform breakpoints (pulse edges, PWL corners) are never stepped over.

The recorded signals are the across value of every node plus everything the
devices' ``record`` methods expose (branch currents, forces, displacements,
transducer internal states), which is how the displacement traces of the
paper's figure 5 come out of the solver directly.
"""

from __future__ import annotations

import dataclasses
import time as _time
from collections import deque

import numpy as np

from ... import telemetry
from ...errors import AnalysisError, ConvergenceError, SingularMatrixError
from ...telemetry import ConvergenceDiagnostics, StepRecord
from ..mna import Integrator, MNASystem, StampContext
from ..netlist import Circuit
from .op import (NewtonWorkspace, OperatingPointAnalysis, base_tolerance,
                 collect_outputs, newton_solve, output_columns)
from .options import SimulationOptions
from .results import OperatingPoint, TransientResult

__all__ = ["TransientAnalysis"]

#: Hard cap on accepted time points, to bound runaway analyses.
_MAX_POINTS = 2_000_000


class TransientAnalysis:
    """Time-domain simulation of a circuit.

    Parameters
    ----------
    circuit:
        The netlist to simulate.
    t_stop:
        Final time [s].
    t_step:
        Suggested (and maximum, unless ``max_step`` is given) time step; also
        the initial step.  Defaults to ``t_stop / 200``.
    t_start:
        Start time (default 0); the result contains a point at ``t_start``.
    max_step:
        Optional hard cap on the step size (defaults to ``t_step``).
    use_ic:
        When True the operating-point solve is skipped and integration starts
        from a zero solution vector (SPICE ``UIC``).
    options:
        Shared numerical options.
    """

    def __init__(self, circuit: Circuit, t_stop: float, t_step: float | None = None,
                 t_start: float = 0.0, max_step: float | None = None,
                 use_ic: bool = False, options: SimulationOptions | None = None,
                 record_trajectory: bool = False) -> None:
        if t_stop <= t_start:
            raise AnalysisError("t_stop must be greater than t_start")
        self.circuit = circuit
        self.t_start = float(t_start)
        self.t_stop = float(t_stop)
        self.t_step = float(t_step) if t_step is not None else (t_stop - t_start) / 200.0
        if self.t_step <= 0.0:
            raise AnalysisError("t_step must be positive")
        self.max_step = float(max_step) if max_step is not None else self.t_step
        if self.max_step <= 0.0:
            raise AnalysisError("max_step must be positive")
        self.use_ic = bool(use_ic)
        self.options = options or SimulationOptions()
        #: Keep the raw unknown vectors of every accepted point on the result
        #: (``TransientResult.trajectory``) so the sensitivity sweep can
        #: replay the exact step sequence.
        self.record_trajectory = bool(record_trajectory)

    # ------------------------------------------------------------------ helpers
    def _breakpoints(self) -> list[float]:
        points: set[float] = set()
        for device in self.circuit:
            waveform = getattr(device, "waveform", None)
            if waveform is None:
                continue
            for t in waveform.breakpoints():
                if self.t_start < t < self.t_stop:
                    points.add(float(t))
        return sorted(points)

    def _tolerances(self, system: MNASystem, x: np.ndarray) -> np.ndarray:
        options = self.options
        base = base_tolerance(system.size, system.num_nodes, options.vntol,
                              options.abstol)
        return base + options.reltol * np.abs(x)

    # ------------------------------------------------------------------ main run
    def run(self, operating_point: OperatingPoint | None = None) -> TransientResult:
        """Integrate the circuit from ``t_start`` to ``t_stop``.

        With ``options.telemetry`` enabled the result carries a
        :class:`~repro.telemetry.TelemetryReport` as ``result.telemetry``:
        phase spans (per-step spans in ``"full"`` mode), timing histograms,
        Newton residual traces and the step-size/LTE/rejection history.
        """
        if self.options.telemetry == "off":
            return self._run(operating_point, None)
        diagnostics = ConvergenceDiagnostics(
            max_records=self.options.telemetry_max_records)
        with telemetry.session(mode=self.options.telemetry) as sess:
            with telemetry.span("transient.run"):
                result = self._run(operating_point, diagnostics)
        sess.report.convergence = diagnostics
        result.telemetry = sess.report
        return result

    def _run(self, operating_point: OperatingPoint | None,
             diagnostics: ConvergenceDiagnostics | None) -> TransientResult:
        wall_start = _time.perf_counter()
        system = MNASystem(self.circuit)
        options = self.options
        integrator = Integrator(
            Integrator.TRAPEZOIDAL if options.integration_method == "trapezoidal"
            else Integrator.BACKWARD_EULER)

        if self.use_ic:
            x = np.zeros(system.size)
        else:
            with telemetry.span("transient.op"):
                if operating_point is None:
                    operating_point = OperatingPointAnalysis(
                        self.circuit, options.with_(telemetry="off")).run()
                if operating_point.raw.shape != (system.size,):
                    raise AnalysisError(
                        "operating point does not match this circuit")
                x = np.array(operating_point.raw, dtype=float, copy=True)

        # Prime the integrator: register the t0 value of every dynamic state.
        with telemetry.span("transient.prime"):
            integrator.priming = True
            integrator.set_step(self.t_step)
            ctx0 = system.assemble(x, "tran", self.t_start, integrator, options,
                                   1.0, want_jacobian=False)
            first_row = collect_outputs(system, ctx0)
            integrator.commit()
            integrator.priming = False

        times: list[float] = [self.t_start]
        rows: list[dict[str, float]] = [first_row]
        history_x: list[np.ndarray] = [x.copy()]
        history_t: list[float] = [self.t_start]
        trajectory: list[np.ndarray] | None = \
            [x.copy()] if self.record_trajectory else None

        breakpoints = self._breakpoints()
        bp_index = 0
        #: One workspace for the whole run: factorizations survive across
        #: time steps, so a linear circuit at a fixed step factors once.
        workspace = NewtonWorkspace(options)
        workspace.convergence = diagnostics
        stats = {"accepted": 0, "rejected": 0, "newton_iterations": 0,
                 "newton_time_s": 0.0}
        t = self.t_start
        h = min(self.t_step, self.max_step)
        min_step = max(self.t_step * options.min_step_ratio, 1e-18)
        track = telemetry.progress.tracker(
            "transient", total=self.t_stop - self.t_start, unit="s")
        # Forensics keep a short tail of step attempts plus the last Newton
        # failure's report so a step-underflow post-mortem can show how the
        # controller ground to a halt and where the last healthy state was.
        recent_steps: deque | None = deque(maxlen=32) if options.forensics \
            else None
        last_newton_report = None

        while t < self.t_stop - 1e-15:
            if self.t_stop - t <= max(min_step, 1e-12 * self.t_stop):
                break
            # Every step attempt (accepted or rejected) lives in one span so
            # a trace accounts for the full integration loop.
            with telemetry.span("transient.step") as step_span:
                while bp_index < len(breakpoints) and breakpoints[bp_index] <= t + 1e-15:
                    bp_index += 1
                h = min(h, self.max_step, self.t_stop - t)
                if bp_index < len(breakpoints):
                    distance = breakpoints[bp_index] - t
                    if distance > 1e-15:
                        h = min(h, distance)
                if h < min_step:
                    message = (f"transient step underflow at t={t:g} "
                               f"(step {h:g} < {min_step:g})")
                    report = None
                    if options.forensics:
                        inner = last_newton_report
                        report = telemetry.forensics.record(
                            telemetry.forensics.FailureReport(
                                kind="step_underflow", analysis="tran",
                                message=message,
                                error_type="ConvergenceError", time=t,
                                residual_trajectory=list(
                                    inner.residual_trajectory) if inner else [],
                                offending=list(inner.offending)
                                if inner else [],
                                condition_estimate=inner.condition_estimate
                                if inner else None,
                                last_good=telemetry.forensics.state_snapshot(
                                    system.unknown_labels(), history_x[-1],
                                    history_t[-1]),
                                step_history=list(recent_steps or ()),
                                options=dataclasses.asdict(options),
                                context={"size": system.size,
                                         "min_step": min_step}))
                    raise ConvergenceError(message, report=report)

                t_new = t + h
                integrator.set_step(h)
                # Predictor: linear extrapolation of the last two accepted points.
                if len(history_x) >= 2 and history_t[-1] > history_t[-2]:
                    slope = (history_x[-1] - history_x[-2]) / (history_t[-1] - history_t[-2])
                    x_guess = history_x[-1] + slope * h
                else:
                    slope = None
                    x_guess = history_x[-1].copy()

                step_span.annotate(t=t_new, h=h)
                newton_start = _time.perf_counter()
                try:
                    x_new, iterations = newton_solve(
                        system, x_guess, "tran", t_new, integrator, options, 1.0,
                        workspace=workspace)
                except (ConvergenceError, SingularMatrixError) as exc:
                    stats["newton_time_s"] += _time.perf_counter() - newton_start
                    integrator.discard()
                    stats["rejected"] += 1
                    step_span.set("accepted", False)
                    if diagnostics is not None:
                        diagnostics.add_step(StepRecord(t_new, h, accepted=False))
                    if recent_steps is not None:
                        recent_steps.append({"time": t_new, "dt": h,
                                             "accepted": False,
                                             "reason": type(exc).__name__})
                        if getattr(exc, "report", None) is not None:
                            last_newton_report = exc.report
                    h *= 0.25
                    continue
                stats["newton_time_s"] += _time.perf_counter() - newton_start

                stats["newton_iterations"] += iterations
                # Local truncation error estimate: converged solution versus the
                # polynomial predictor, scaled by the mixed tolerance.  Only the
                # node across variables are controlled -- auxiliary branch
                # currents are algebraic quantities whose derivative jumps at
                # waveform corners and would otherwise force needless step cuts.
                if slope is not None:
                    n_nodes = system.num_nodes
                    tol = self._tolerances(system, x_new)[:n_nodes]
                    if n_nodes > 0:
                        error = np.abs(x_new[:n_nodes] - x_guess[:n_nodes])
                        error_ratio = float(np.max(error / (options.trtol * tol)))
                    else:
                        error_ratio = 0.0
                else:
                    error_ratio = 0.0
                if error_ratio > 1.0 and h > 4.0 * min_step:
                    integrator.discard()
                    stats["rejected"] += 1
                    step_span.annotate(accepted=False, error_ratio=error_ratio,
                                       newton_iters=iterations)
                    if diagnostics is not None:
                        diagnostics.add_step(StepRecord(
                            t_new, h, accepted=False, error_ratio=error_ratio,
                            newton_iterations=iterations))
                    if recent_steps is not None:
                        recent_steps.append({"time": t_new, "dt": h,
                                             "accepted": False,
                                             "error_ratio": error_ratio,
                                             "reason": "lte"})
                    h = max(h * max(0.2, 0.9 / error_ratio ** 0.5), min_step)
                    continue

                # Accept the step: the record pass at the converged point also
                # refreshes every pending state (Device.record), then commit.
                rows.append(collect_outputs(system, StampContext(
                    system, x_new, "tran", t_new, integrator, options,
                    want_jacobian=False)))
                integrator.commit()
                times.append(t_new)
                history_x.append(x_new.copy())
                history_t.append(t_new)
                if trajectory is not None:
                    trajectory.append(x_new.copy())
                if len(history_x) > 3:
                    history_x.pop(0)
                    history_t.pop(0)
                # A waveform corner invalidates the polynomial predictor history:
                # restart the extrapolation from the breakpoint itself.
                if bp_index < len(breakpoints) and abs(breakpoints[bp_index] - t_new) <= 1e-15:
                    history_x = [x_new.copy()]
                    history_t = [t_new]
                stats["accepted"] += 1
                step_span.annotate(accepted=True, error_ratio=error_ratio,
                                   newton_iters=iterations)
                if diagnostics is not None:
                    diagnostics.add_step(StepRecord(
                        t_new, h, accepted=True, error_ratio=error_ratio,
                        newton_iterations=iterations))
                if recent_steps is not None:
                    recent_steps.append({"time": t_new, "dt": h,
                                         "accepted": True,
                                         "error_ratio": error_ratio})
                    last_newton_report = None  # solve recovered
                t = t_new
                x = x_new
                track.update(t - self.t_start, dt=h)

                if error_ratio < 0.1:
                    h = min(h * options.max_step_growth, self.max_step)
                elif error_ratio > 0.5:
                    h = max(h * 0.8, min_step)
                if len(times) > _MAX_POINTS:
                    raise AnalysisError(
                        f"transient produced more than {_MAX_POINTS} points; "
                        "increase t_step or loosen tolerances")

        with telemetry.span("transient.collect"):
            data = output_columns(rows)
        track.finish(t - self.t_start)
        stats["wall_time_s"] = _time.perf_counter() - wall_start
        stats["points"] = len(times)
        stats.update(workspace.statistics())
        return TransientResult(
            np.asarray(times), data, statistics=stats,
            trajectory=None if trajectory is None else np.asarray(trajectory))

    def sensitivities(self, params, outputs, method: str = "adjoint",
                      result: TransientResult | None = None):
        """Exact final-time output sensitivities (discrete adjoint).

        See :func:`repro.circuit.analysis.adjoint.transient_sensitivities`;
        ``params`` are ``"device.param"`` strings, ``outputs`` canonical
        unknown signal names.  Pass a ``result`` from a
        ``record_trajectory=True`` run to avoid re-integrating.
        """
        from .adjoint import transient_sensitivities

        return transient_sensitivities(self, params, outputs, method=method,
                                       result=result)
