"""Reduced state-space macromodels and their analyses.

A :class:`ReducedModel` is the product of every reduction in this package:
a small second-order system

.. math::

    M_r \\ddot q + C_r \\dot q + K_r q = B_r u, \\qquad y = L_r q

obtained by projecting the assembled FE matrices onto a reduction basis
``V`` (``q = V^T``-coordinates).  Modal truncation produces diagonal
``M_r = I, K_r = diag(omega^2)``; Krylov projection produces full (but tiny)
reduced matrices.  Either way the model supports the same analyses as the
full system -- harmonic sweeps, trapezoidal transient integration, DC gain --
at ``r x r`` cost instead of ``n x n``, and can be converted to first-order
descriptor form ``E x' = A x + B u`` for export.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
import scipy.linalg as la

from ..errors import FEMError, LinAlgError
from ..linalg import FactorizationCache, FactorizedSolver

#: The held transient iteration-matrix factorization: a repeated
#: integration of the same reduced model at the same step (campaign points
#: of one model) skips the LU entirely.
_TRANSIENT_FACTOR_CACHE = FactorizationCache(FactorizedSolver("dense"))

__all__ = ["ReducedModel", "harmonic_error"]


@dataclass
class ReducedModel:
    """A second-order reduced macromodel ``Mr q'' + Cr q' + Kr q = B u, y = L q``.

    Attributes
    ----------
    M, C, K:
        Reduced ``(r, r)`` mass, damping and stiffness matrices.
    B:
        ``(r, m)`` input map (full-order force pattern projected onto the
        basis).
    L:
        ``(p, r)`` displacement output map.
    basis:
        Optional ``(n, r)`` projection basis ``V`` (mode shapes or Krylov
        vectors) kept for lifting reduced solutions back to full DOFs.
    method:
        ``"modal"`` or ``"krylov"`` -- which reduction produced the model.
    """

    M: np.ndarray
    C: np.ndarray
    K: np.ndarray
    B: np.ndarray
    L: np.ndarray
    basis: np.ndarray | None = None
    method: str = "modal"

    def __post_init__(self) -> None:
        self.M = np.atleast_2d(np.asarray(self.M, dtype=float))
        self.C = np.atleast_2d(np.asarray(self.C, dtype=float))
        self.K = np.atleast_2d(np.asarray(self.K, dtype=float))
        self.B = np.asarray(self.B, dtype=float)
        if self.B.ndim == 1:
            self.B = self.B[:, None]
        self.L = np.atleast_2d(np.asarray(self.L, dtype=float))
        r = self.M.shape[0]
        for name, matrix in (("M", self.M), ("C", self.C), ("K", self.K)):
            if matrix.shape != (r, r):
                raise FEMError(f"reduced {name} must be {r}x{r}, got {matrix.shape}")
        if self.B.shape[0] != r:
            raise FEMError(f"input map B must have {r} rows, got {self.B.shape}")
        if self.L.shape[1] != r:
            raise FEMError(f"output map L must have {r} columns, got {self.L.shape}")
        if self.basis is not None:
            self.basis = np.asarray(self.basis, dtype=float)
            if self.basis.ndim != 2 or self.basis.shape[1] != r:
                raise FEMError(
                    f"basis must be (n, {r}), got {self.basis.shape}")

    # ------------------------------------------------------------------ shape
    @property
    def order(self) -> int:
        """Number of reduced coordinates ``r``."""
        return self.M.shape[0]

    @property
    def num_inputs(self) -> int:
        """Number of input columns ``m``."""
        return self.B.shape[1]

    @property
    def num_outputs(self) -> int:
        """Number of output rows ``p``."""
        return self.L.shape[0]

    # ------------------------------------------------------------- conversions
    def first_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Descriptor first-order form ``(A, B, C, E)`` with state ``[q, q']``."""
        r = self.order
        eye = np.eye(r)
        a = np.block([[np.zeros((r, r)), eye], [-self.K, -self.C]])
        e = np.block([[eye, np.zeros((r, r))], [np.zeros((r, r)), self.M]])
        b = np.vstack([np.zeros((r, self.num_inputs)), self.B])
        c = np.hstack([self.L, np.zeros((self.num_outputs, r))])
        return a, b, c, e

    def modal_parameters(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonalize the reduced system: ``(omega^2, shapes)``.

        For a modal model this is the identity; for a Krylov model it
        extracts the Ritz approximations of the full modes.  The returned
        ``shapes`` are reduced-mass-normalized columns in reduced
        coordinates.
        """
        try:
            values, vectors = la.eigh(self.K, self.M)
        except la.LinAlgError as exc:
            raise FEMError(f"reduced eigensolve failed: {exc}") from exc
        return np.clip(values, 0.0, None), vectors

    # ------------------------------------------------------------------ analyses
    def dc_gain(self) -> np.ndarray:
        """Static output per unit input ``L K^-1 B`` as a ``(p, m)`` array."""
        try:
            return self.L @ FactorizedSolver("dense").solve(self.K, self.B)
        except LinAlgError as exc:
            raise FEMError(f"reduced stiffness is singular: {exc}") from exc

    def harmonic_states(self, frequencies: Iterable[float],
                        input_index: int = 0) -> np.ndarray:
        """Reduced coordinates ``q(omega)`` over a frequency grid [Hz].

        Returns ``(num_frequencies, order)`` phasors per unit harmonic force
        on input column ``input_index`` -- lift with the stored basis for
        full-DOF responses, or apply ``L`` for the declared outputs.
        """
        frequencies = np.asarray(list(frequencies), dtype=float)
        if frequencies.size == 0:
            raise FEMError("harmonic sweep needs at least one frequency")
        b = self.B[:, input_index].astype(complex)
        states = np.zeros((frequencies.size, self.order), dtype=complex)
        solver = FactorizedSolver("dense")
        for k, frequency in enumerate(frequencies):
            omega = 2.0 * np.pi * frequency
            dynamic = self.K + 1j * omega * self.C - omega * omega * self.M
            try:
                states[k] = solver.solve(dynamic, b)
            except LinAlgError as exc:
                raise FEMError(
                    f"reduced harmonic solve failed at f={frequency:g} Hz: "
                    f"{exc}") from exc
        return states

    def harmonic(self, frequencies: Iterable[float], input_index: int = 0
                 ) -> np.ndarray:
        """Complex output response over a frequency grid [Hz].

        Returns ``(num_frequencies, num_outputs)`` displacement phasors per
        unit harmonic force on input column ``input_index``.
        """
        return self.harmonic_states(frequencies, input_index) @ self.L.T

    def transient(self, t_stop: float, t_step: float,
                  force: Callable[[float], float] | float = 1.0,
                  input_index: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Trapezoidal time integration from rest.

        ``force`` is the scalar input waveform ``u(t)`` (a constant is a
        step).  Returns ``(times, outputs)`` with outputs of shape
        ``(num_times, num_outputs)``.
        """
        if t_stop <= 0.0 or t_step <= 0.0 or t_step > t_stop:
            raise FEMError("transient needs 0 < t_step <= t_stop")
        a, b, c, e = self.first_order()
        b = b[:, input_index]
        u = force if callable(force) else (lambda _t, _f=float(force): _f)
        times = np.arange(0.0, t_stop + 0.5 * t_step, t_step)
        h = t_step
        lhs = e - 0.5 * h * a
        rhs_matrix = e + 0.5 * h * a
        try:
            # Held: re-integrating the same model at the same step
            # (campaign points, parameter studies) reuses the LU.
            factorization = _TRANSIENT_FACTOR_CACHE.factorize(lhs)
        except LinAlgError as exc:
            raise FEMError(f"transient system is singular: {exc}") from exc
        x = np.zeros(2 * self.order)
        outputs = np.zeros((times.size, self.num_outputs))
        outputs[0] = c @ x
        u_prev = u(times[0])
        for k in range(1, times.size):
            u_next = u(times[k])
            rhs = rhs_matrix @ x + 0.5 * h * b * (u_prev + u_next)
            x = factorization.solve(rhs)
            outputs[k] = c @ x
            u_prev = u_next
        return times, outputs

    # ------------------------------------------------------------------ lifting
    def lift(self, reduced_solution: np.ndarray) -> np.ndarray:
        """Lift reduced coordinates back to full DOFs via the stored basis."""
        if self.basis is None:
            raise FEMError("this reduced model kept no projection basis")
        return self.basis @ np.asarray(reduced_solution)

    def describe(self) -> str:
        """One-line summary used by reports and benchmarks."""
        return (f"ReducedModel(method={self.method}, order={self.order}, "
                f"inputs={self.num_inputs}, outputs={self.num_outputs})")


def harmonic_error(rom: ReducedModel, mass: np.ndarray, damping: np.ndarray,
                   stiffness: np.ndarray, frequencies: Iterable[float],
                   drive_dof: int = -1, output_dofs: Iterable[int] | None = None,
                   input_index: int = 0,
                   reference: np.ndarray | None = None) -> np.ndarray:
    """Per-frequency relative error of the ROM against the full harmonic solve.

    The full system is solved on the probe grid with a unit force at
    ``drive_dof``.  When the ROM kept its projection basis (every builder in
    this package does) the reduced solution is lifted through it and
    compared at ``output_dofs`` (default: every DOF) -- independent of the
    model's declared output map, so weighted or subset ``L`` maps cannot
    skew the metric.  A basis-less model falls back to its output rows,
    which are then assumed to be unit DOF selectors: ``output_dofs`` must
    list the observed DOF of each row positionally (required unless the
    model has one row per DOF).  The returned array holds, per frequency,
    the worst relative magnitude error over the compared DOFs -- the
    quantity the acceptance tests and the order-convergence campaign sweep.

    ``reference`` may supply a precomputed full-solve displacement block of
    shape ``(num_frequencies, len(output_dofs))`` so order sweeps over one
    geometry pay the expensive full solve once (see
    :class:`~repro.rom.convert.BeamROMEvaluator`).
    """
    # Local import: fem.harmonic routes method="rom" back into this package.
    from ..fem.harmonic import harmonic_response

    mass = np.asarray(mass, dtype=float)
    damping = np.asarray(damping, dtype=float)
    stiffness = np.asarray(stiffness, dtype=float)
    n = mass.shape[0]
    frequencies = np.asarray(list(frequencies), dtype=float)
    drive = int(np.arange(n)[drive_dof])
    if output_dofs is None:
        if rom.basis is None and rom.num_outputs != n:
            raise FEMError(
                f"this basis-less ROM observes {rom.num_outputs} of {n} "
                "DOFs; pass output_dofs listing the full-model DOF of each "
                "output row (in row order)")
        outputs = list(range(n))
    else:
        outputs = [int(np.arange(n)[dof]) for dof in output_dofs]
    if reference is None:
        reference = harmonic_response(mass, damping, stiffness, frequencies,
                                      drive_dof=drive).displacements[:, outputs]
    else:
        reference = np.asarray(reference, dtype=complex)
        if reference.shape != (frequencies.size, len(outputs)):
            raise FEMError(
                f"precomputed reference has shape {reference.shape}, expected "
                f"({frequencies.size}, {len(outputs)})")
    if rom.basis is not None:
        # Lift the reduced solution to the probed DOFs through the basis;
        # exact regardless of how L weights or selects outputs.
        states = rom.harmonic_states(frequencies, input_index=input_index)
        reduced = states @ rom.basis[outputs, :].T
    elif rom.num_outputs == n:
        # Basis-less full-output model: row index == DOF index.
        reduced = rom.harmonic(frequencies, input_index=input_index)[:, outputs]
    elif len(outputs) == rom.num_outputs:
        # Basis-less reduced outputs: row k observes the k-th probe DOF.
        reduced = rom.harmonic(frequencies, input_index=input_index)
    else:
        raise FEMError(
            f"ROM has {rom.num_outputs} outputs but {len(outputs)} probe DOFs "
            "were requested")
    scale = np.abs(reference)
    scale[scale == 0.0] = 1.0
    return np.max(np.abs(reduced - reference) / scale, axis=1)
