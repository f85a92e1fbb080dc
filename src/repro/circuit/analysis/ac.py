"""AC small-signal analysis.

The circuit is first solved for its DC operating point; the complex system
``Y(j*omega) x = b`` is then solved at each requested frequency.  ``Y`` is
not written per device: :meth:`~repro.circuit.mna.MNASystem.assemble_ac`
runs every device's one ``stamp`` through an
:class:`~repro.circuit.mna.ACStampContext` that reads the operating point,
keeps the Jacobian and drops the residual -- the SPICE2 AC load, which
reuses the conductances linearized at the bias.  The context knows exactly
where ``s = j*omega`` enters (``ddt``, ``integ`` and ``ddt_coefficient()``),
so it keeps every Jacobian entry as real coefficients ``Y_k`` of the powers
of ``s``, and ``Y(j*omega) = sum_k Y_k (j*omega)**k`` exactly.  ``Y_0`` is
the operating-point Jacobian itself, and for behavioral (HDL-A) devices the
linearization is exact through their dual numbers.

A sweep therefore assembles once, with no frequency, and then evaluates
and solves ``Y(j*omega)`` per frequency: devices are never stamped again,
whatever the grid size or the powers of ``s`` the circuit holds.

This is precisely the analysis the paper uses to claim that HDL-A models
"are valid for the dc, ac and transient SPICE analysis domains": a single
nonlinear model provides all three behaviours without being rewritten.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ... import telemetry
from ...errors import AnalysisError, LinAlgError, SingularMatrixError
from ...linalg import FactorizedSolver
from ..mna import MNASystem
from ..netlist import Circuit
from .op import OperatingPointAnalysis
from .options import SimulationOptions
from .results import ACResult, OperatingPoint, canonical_signal_name

__all__ = ["ACAnalysis", "frequency_grid"]


def frequency_grid(start: float, stop: float, points_per_decade: int = 20,
                   spacing: str = "log") -> np.ndarray:
    """Build an AC frequency grid (``"log"``, ``"lin"`` spacing)."""
    if start <= 0.0 or stop <= 0.0:
        raise AnalysisError("AC frequencies must be positive")
    if stop < start:
        raise AnalysisError("stop frequency must not be below start frequency")
    if spacing == "log":
        decades = np.log10(stop / start)
        n = max(2, int(np.ceil(decades * points_per_decade)) + 1)
        return np.logspace(np.log10(start), np.log10(stop), n)
    if spacing == "lin":
        n = max(2, points_per_decade)
        return np.linspace(start, stop, n)
    raise AnalysisError(f"unknown spacing {spacing!r} (use 'log' or 'lin')")


class ACAnalysis:
    """Small-signal frequency sweep around the DC operating point."""

    def __init__(self, circuit: Circuit, frequencies: Iterable[float],
                 options: SimulationOptions | None = None) -> None:
        self.circuit = circuit
        self.frequencies = np.asarray(list(frequencies), dtype=float)
        if self.frequencies.size == 0:
            raise AnalysisError("AC analysis needs at least one frequency")
        if np.any(self.frequencies <= 0.0):
            raise AnalysisError("AC frequencies must be strictly positive")
        self.options = options or SimulationOptions()

    def run(self, operating_point: OperatingPoint | None = None) -> ACResult:
        """Run the sweep; optionally reuse a precomputed operating point.

        With ``options.telemetry`` enabled the result carries a
        :class:`~repro.telemetry.TelemetryReport` as ``result.telemetry``.
        """
        if self.options.telemetry == "off":
            return self._run(operating_point)
        with telemetry.session(mode=self.options.telemetry) as sess:
            with telemetry.span("ac.run"):
                result = self._run(operating_point)
        result.telemetry = sess.report
        return result

    def _run(self, operating_point: OperatingPoint | None) -> ACResult:
        system = MNASystem(self.circuit)
        options = self.options
        if operating_point is None:
            with telemetry.span("ac.op"):
                operating_point = OperatingPointAnalysis(
                    self.circuit, options.with_(telemetry="off")).run()
        op_values = operating_point.raw
        if op_values.shape != (system.size,):
            raise AnalysisError(
                "operating point does not match this circuit (unknown count differs)")
        with telemetry.span("ac.sweep") as sweep_span:
            solutions = self._sweep(system, op_values)
            sweep_span.annotate(points=int(self.frequencies.size))
        with telemetry.span("ac.collect"):
            labels = system.unknown_labels()
            data = {canonical_signal_name(label): solutions[:, i]
                    for i, label in enumerate(labels)}
        return ACResult(self.frequencies, data)

    def sensitivities(self, params, outputs, method: str = "auto",
                      operating_point: OperatingPoint | None = None):
        """Exact-solve sensitivities of the output phasors over the sweep.

        See :func:`repro.circuit.analysis.sensitivity.ac_sensitivities`.
        """
        from .sensitivity import ac_sensitivities

        return ac_sensitivities(self, params, outputs, method=method,
                                operating_point=operating_point)

    # ------------------------------------------------------------------ sweeps
    def _solve_point(self, system: MNASystem, matrix: np.ndarray,
                     rhs: np.ndarray, solver: FactorizedSolver,
                     frequency: float) -> np.ndarray:
        try:
            return solver.solve(matrix, rhs)
        except LinAlgError as exc:
            message = f"singular small-signal matrix at f={frequency:g} Hz: {exc}"
            report = None
            if self.options.forensics:
                report = telemetry.forensics.newton_failure(
                    kind="singular", analysis="ac", message=message,
                    error_type="SingularMatrixError",
                    labels=system.unknown_labels(), matrix=matrix,
                    options=self.options,
                    context={"frequency_hz": frequency})
            raise SingularMatrixError(message, report=report) from exc

    def _sweep(self, system: MNASystem, op_values: np.ndarray) -> np.ndarray:
        """Assemble the small-signal system once and solve every frequency."""
        ctx = system.assemble_ac(op_values, self.options)
        solver = FactorizedSolver("dense")
        solutions = np.zeros((self.frequencies.size, system.size), dtype=complex)
        track = telemetry.progress.tracker("ac", total=self.frequencies.size,
                                           unit="points")
        for k, frequency in enumerate(self.frequencies):
            with telemetry.detail_span("ac.point", f=float(frequency)):
                matrix = ctx.at(2.0 * np.pi * float(frequency))
                solutions[k] = self._solve_point(system, matrix, ctx.rhs,
                                                 solver, float(frequency))
            track.update(k + 1, message=f"f={frequency:g} Hz")
        track.finish(self.frequencies.size)
        return solutions
