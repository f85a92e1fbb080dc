"""DC sweep analysis: repeated operating points over a swept source value.

Used by the examples and the pull-in study: the electrostatic transducer's
displacement-versus-voltage curve is a DC sweep of the drive source.  The
sweep reuses each converged solution as the initial guess of the next point
(continuation), which lets it follow strongly nonlinear characteristics up to
the pull-in fold without source stepping at every point.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ... import telemetry
from ...errors import AnalysisError, ConvergenceError, SingularMatrixError
from ..devices.sources import CurrentSource, VoltageSource
from ..mna import MNASystem, StampContext
from ..netlist import Circuit
from ..waveforms import DC
from .op import NewtonWorkspace, collect_outputs, newton_solve, output_columns
from .options import SimulationOptions
from .results import DCSweepResult

__all__ = ["DCSweepAnalysis"]


class DCSweepAnalysis:
    """Sweep the DC value of an independent source and record all outputs.

    Parameters
    ----------
    circuit:
        The netlist to analyse.
    source_name:
        Name of the independent voltage or current source to sweep.
    values:
        Iterable of source values (need not be uniform or monotonic).
    options:
        Numerical options shared with the other analyses.
    continue_on_failure:
        When True, points that fail to converge are skipped (recorded as NaN)
        instead of aborting the sweep -- useful to map out pull-in folds where
        no stable solution exists beyond the fold point.
    """

    def __init__(self, circuit: Circuit, source_name: str, values: Iterable[float],
                 options: SimulationOptions | None = None,
                 continue_on_failure: bool = False) -> None:
        self.circuit = circuit
        self.source_name = source_name
        self.values = np.asarray(list(values), dtype=float)
        if self.values.size == 0:
            raise AnalysisError("DC sweep needs at least one value")
        self.options = options or SimulationOptions()
        self.continue_on_failure = continue_on_failure
        device = circuit[source_name]
        if not isinstance(device, (VoltageSource, CurrentSource)):
            raise AnalysisError(
                f"{source_name!r} is not an independent source; cannot sweep it")
        self._source = device

    def _sweep_solutions(self, system: MNASystem, workspace: NewtonWorkspace):
        """Yield ``(index, x_or_None)`` per sweep value: the single source of
        truth for the continuation policy (warm starts, failure handling,
        waveform restore) shared by :meth:`run` and the sensitivity sweep."""
        original_waveform = self._source.waveform
        x = np.zeros(system.size)
        try:
            for index, value in enumerate(self.values):
                self._source.waveform = DC(float(value))
                try:
                    with telemetry.detail_span("dcsweep.point",
                                               value=float(value)):
                        x, _ = newton_solve(system, x, "dc", 0.0, None,
                                            self.options, 1.0,
                                            workspace=workspace)
                    yield index, x
                except (ConvergenceError, SingularMatrixError) as exc:
                    if exc.report is not None:
                        exc.report.analysis = "dc"
                        exc.report.context["sweep_value"] = float(value)
                    if not self.continue_on_failure:
                        raise
                    x = np.zeros(system.size)
                    yield index, None
        finally:
            self._source.waveform = original_waveform

    def run(self) -> DCSweepResult:
        """Execute the sweep and return per-signal arrays over the sweep values.

        With ``options.telemetry`` enabled the result carries a
        :class:`~repro.telemetry.TelemetryReport` (including per-point Newton
        residual traces) as ``result.telemetry``.
        """
        if self.options.telemetry == "off":
            return self._run(None)
        diagnostics = telemetry.ConvergenceDiagnostics(
            max_records=self.options.telemetry_max_records)
        with telemetry.session(mode=self.options.telemetry) as sess:
            with telemetry.span("dcsweep.run"):
                result = self._run(diagnostics)
        sess.report.convergence = diagnostics
        result.telemetry = sess.report
        return result

    def _run(self, diagnostics) -> DCSweepResult:
        system = MNASystem(self.circuit)
        options = self.options
        rows: list[dict[str, float]] = []
        # One workspace for the whole sweep: a linear circuit's Jacobian is
        # independent of the swept source value, so every point after the
        # first reuses the same factorization.
        workspace = NewtonWorkspace(options)
        workspace.convergence = diagnostics
        track = telemetry.progress.tracker("dcsweep", total=self.values.size,
                                           unit="points")
        with telemetry.span("dcsweep.sweep"):
            for index, x in self._sweep_solutions(system, workspace):
                if x is None:
                    rows.append({})
                    track.update(index + 1, message="point failed")
                    continue
                rows.append(collect_outputs(system, StampContext(
                    system, x, "dc", 0.0, None, options, want_jacobian=False)))
                track.update(index + 1)
        track.finish(self.values.size)
        with telemetry.span("dcsweep.collect"):
            return DCSweepResult(self.source_name, self.values,
                                 output_columns(rows))

    def sensitivities(self, params, outputs, method: str = "auto"):
        """Per-point exact output sensitivities over the sweep values.

        See :func:`repro.circuit.analysis.sensitivity.dcsweep_sensitivities`.
        """
        from .sensitivity import dcsweep_sensitivities

        return dcsweep_sensitivities(self, params, outputs, method=method)
