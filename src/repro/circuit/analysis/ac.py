"""AC small-signal analysis.

The circuit is first solved for its DC operating point; the complex system
``Y(omega) x = b`` is then solved at each requested frequency.  ``Y`` is
not written per device: :meth:`~repro.circuit.mna.MNASystem.assemble_ac`
runs every device's one ``stamp`` through an
:class:`~repro.circuit.mna.ACStampContext` that reads the operating point,
keeps the Jacobian (complex) and drops the residual, and turns ``ddt`` into
``j*omega`` times the sensitivity -- the SPICE2 AC load, which reuses the
conductances linearized at the bias.  The conductance part of ``Y`` is
therefore the operating-point Jacobian itself, and for behavioral (HDL-A)
devices the linearization is exact through their complex-seeded duals.

Sweep caching
-------------
Re-stamping every device at every frequency repeats work: for the device
classes of this package the small-signal matrix has the exact form
``Y(omega) = G + j*omega*C + S/(j*omega)`` (conductances, ``ddt``
susceptances and ``integ`` terms respectively).  On a grid of at least 4
frequencies the sweep assembles that decomposition once from probe
frequencies, *verifies* it against a direct assembly at an independent
probe, and then walks the grid as pure value updates + dense
refactorizations through :mod:`repro.linalg` -- devices are never stamped
again.  A circuit whose frequency dependence does not fit the decomposition
fails the verification probe and transparently falls back to per-frequency
assembly (``sweep_mode == "direct"``), so the fast path can never change
which circuits are solvable.

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

__all__ = ["ACAnalysis", "frequency_grid", "gcs_decompose", "gcs_predict",
           "probe_omegas"]

#: Relative mismatch above which the G/C/S decomposition is rejected at the
#: verification probe (generous against rounding, far below model errors).
_VERIFY_RTOL = 1e-7


def probe_omegas(f_lo: float, f_hi: float) -> tuple[float, float, float]:
    """Pick extraction probes ``(omega_a, omega_b)`` plus verifier ``omega_c``.

    Shared between the cached AC sweep and the cached AC-sensitivity
    assembly: extract at the sweep edges when they are at least an octave
    apart (frequency dependence outside the G/C/S model grows fastest
    there) and verify in between; for a narrow band, spread synthetic
    probes above the low edge instead.
    """
    omega_lo = 2.0 * np.pi * f_lo
    omega_hi = 2.0 * np.pi * f_hi
    if omega_hi >= 2.0 * omega_lo:
        return omega_lo, omega_hi, float(np.sqrt(omega_lo * omega_hi))
    return omega_lo, 2.0 * omega_lo, 3.0 * omega_lo


def gcs_decompose(y_a: np.ndarray, y_b: np.ndarray, omega_a: float,
                  omega_b: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split probes of ``Y = G + jwC + S/(jw)`` into ``(G, C, S)`` entrywise.

    ``omega * Im(Y) = omega^2 * C - S`` is linear in ``omega^2``, so two
    probes pin both terms.  Entries of ``S`` below the rounding floor of the
    subtraction they came from are extraction noise, not physics; zeroing
    them keeps pure G/C systems on the two-term matrix update.
    """
    im_a, im_b = np.imag(y_a), np.imag(y_b)
    capacitance = (omega_b * im_b - omega_a * im_a) / \
        (omega_b ** 2 - omega_a ** 2)
    integ_map = omega_a ** 2 * capacitance - omega_a * im_a
    conductance = np.real(y_a)
    noise_floor = 1e-12 * np.maximum(np.abs(omega_a ** 2 * capacitance),
                                     np.abs(omega_a * im_a))
    integ_map[np.abs(integ_map) <= noise_floor] = 0.0
    return conductance, capacitance, integ_map


def gcs_predict(conductance: np.ndarray, capacitance: np.ndarray,
                integ_map: np.ndarray, omega: float) -> np.ndarray:
    """Reassemble ``Y(omega)`` from a :func:`gcs_decompose` split."""
    return conductance + omega * (1j * capacitance) + (integ_map / 1j) / omega


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
        #: ``"cached"`` or ``"direct"`` after :meth:`run` -- which sweep
        #: strategy actually executed (diagnostics and tests).
        self.sweep_mode: str | None = None

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
        # Integral states at the bias point: ``integ`` reads them through
        # the AC context's ``state_value`` so that e.g. a transducer biased
        # at displacement x0 keeps that displacement in its small-signal
        # capacitance.
        integrator_states = dict(operating_point.integrator_states)
        solutions = None
        with telemetry.span("ac.sweep") as sweep_span:
            if self.frequencies.size >= 4:
                solutions = self._sweep_cached(system, op_values,
                                               integrator_states)
            if solutions is None:
                self.sweep_mode = "direct"
                solutions = self._sweep_direct(system, op_values,
                                               integrator_states)
            else:
                self.sweep_mode = "cached"
            sweep_span.annotate(mode=self.sweep_mode,
                                points=int(self.frequencies.size))
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

    def _sweep_direct(self, system: MNASystem, op_values: np.ndarray,
                      integrator_states: dict) -> np.ndarray:
        """Reference path: stamp and solve every frequency independently."""
        solver = FactorizedSolver("dense")
        solutions = np.zeros((self.frequencies.size, system.size), dtype=complex)
        track = telemetry.progress.tracker("ac", total=self.frequencies.size,
                                           unit="points")
        for k, frequency in enumerate(self.frequencies):
            with telemetry.detail_span("ac.point", f=float(frequency)):
                omega = 2.0 * np.pi * float(frequency)
                ctx = system.assemble_ac(op_values, omega, integrator_states,
                                         self.options)
                solutions[k] = self._solve_point(system, ctx.matrix, ctx.rhs,
                                                 solver, float(frequency))
            track.update(k + 1, message=f"f={frequency:g} Hz")
        track.finish(self.frequencies.size)
        return solutions

    def _sweep_cached(self, system: MNASystem, op_values: np.ndarray,
                      integrator_states: dict) -> np.ndarray | None:
        """Extract ``Y = G + jwC + S/(jw)`` once and sweep as value updates.

        Returns ``None`` when the verification probe rejects the
        decomposition (frequency dependence outside the model) so the caller
        falls back to the direct sweep.
        """
        omega_a, omega_b, omega_c = probe_omegas(
            float(np.min(self.frequencies)), float(np.max(self.frequencies)))

        def probe(omega: float):
            ctx = system.assemble_ac(op_values, omega, integrator_states,
                                     self.options)
            return ctx.matrix, ctx.rhs

        y_a, rhs = probe(omega_a)
        y_b, rhs_b = probe(omega_b)
        conductance, capacitance, integ_map = gcs_decompose(
            y_a, y_b, omega_a, omega_b)
        has_integ = bool(np.any(integ_map))

        # Verification: the decomposition must reproduce an independent
        # probe (and the real part / excitation must be frequency-flat).
        y_c, rhs_c = probe(omega_c)
        susceptance = 1j * capacitance
        inverse_map = integ_map / 1j
        predicted = gcs_predict(conductance, capacitance, integ_map, omega_c)
        # Tolerances scale per row: an entry only matters relative to its own
        # equation, and a global |Y| scale would let small-magnitude rows
        # (high-impedance nodes) drift through verification unchecked.
        row_scale = np.max(np.abs(y_c), axis=1, keepdims=True)
        row_scale[row_scale == 0.0] = 1.0
        tolerance = _VERIFY_RTOL * row_scale
        if not (np.all(np.abs(predicted - y_c) <= tolerance)
                and np.all(np.abs(np.real(y_b) - conductance) <= tolerance)
                and np.allclose(rhs_b, rhs, rtol=1e-12, atol=0.0)
                and np.allclose(rhs_c, rhs, rtol=1e-12, atol=0.0)):
            return None

        solver = FactorizedSolver("dense")
        solutions = np.zeros((self.frequencies.size, system.size), dtype=complex)
        track = telemetry.progress.tracker("ac", total=self.frequencies.size,
                                           unit="points")
        for k, frequency in enumerate(self.frequencies):
            with telemetry.detail_span("ac.point", f=float(frequency)):
                omega = 2.0 * np.pi * float(frequency)
                matrix = conductance + omega * susceptance
                if has_integ:
                    matrix += inverse_map / omega
                solutions[k] = self._solve_point(system, matrix, rhs, solver,
                                                 float(frequency))
            track.update(k + 1, message=f"f={frequency:g} Hz")
        track.finish(self.frequencies.size)
        return solutions
