"""Discrete-adjoint (and tangent-linear) sensitivities of transient analyses.

A transient run is a chain of implicit steps: at every accepted time point
``t_k`` the Newton solve enforces ``F_k(x_k, m_{k-1}, p) = 0`` where
``m_{k-1}`` is the committed integrator history (per dynamic state: the
previous value, the previous discrete derivative, the running integral and
the previous integrand -- exactly what :meth:`Integrator.differentiate` /
:meth:`Integrator.integrate` read) and the history itself advances as
``m_k = phi_k(x_k, m_{k-1}, p)``.

Differentiating the chain at the *fixed* accepted step sequence gives the
discrete sensitivity equations.  The implementation replays the stored
solution trajectory once; at each step it

1. re-assembles the step Jacobian ``J_k = dF_k/dx_k`` through the normal
   device stamps and factors it through a held factorization
   (:class:`~repro.linalg.FactorizationCache`), so the consecutive steps of
   a linear (or chord-reused) transient that repeat a Jacobian share one
   LU -- the replay is then mostly cache hits, and
2. performs ONE jointly dual-seeded residual assembly (unknowns, committed
   states and parameters seeded in a single derivative space), which yields
   ``dF_k/dm_{k-1}``, ``dF_k/dp`` *and* -- through the integrator's
   raw-pending capture -- the exact state-update blocks
   ``d m_k / d (x_k, m_{k-1}, p)`` in one pass.

The backward (adjoint) sweep then costs one transposed back-substitution
per step and output; the forward (tangent-linear, ``method="direct"``)
sweep costs one block back-substitution per step.  Both reuse the stored
factorizations -- no additional Newton solve is ever performed, against
``2 P`` full transient re-integrations for a central-difference gradient.

The dependence of the initial condition on the parameters (the DC operating
point solved before time stepping) is chained in exactly through the DC
adjoint of :mod:`repro.circuit.analysis.sensitivity`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ...ad import Dual
from ...errors import LinAlgError, SensitivityError, SingularMatrixError
from ...linalg import FactorizationCache, FactorizedSolver, SensitivityResult
from ..mna import Integrator, MNASystem
from .sensitivity import (SeededStampContext, _run_seeded, output_selectors,
                          parameter_residual_derivatives, resolve_parameters,
                          seeded_parameters)

if TYPE_CHECKING:  # pragma: no cover
    from .results import TransientResult
    from .transient import TransientAnalysis

__all__ = ["transient_sensitivities"]


def _deriv_of(value, nvars: int) -> np.ndarray:
    """Derivative part of a captured pending expression (zeros for floats)."""
    if isinstance(value, Dual):
        deriv = np.real(value.deriv)
        if deriv.shape != (nvars,):
            raise SensitivityError(
                f"captured state derivative has {deriv.shape[0]} slots, "
                f"expected {nvars} (a device mixed AD seed spaces)")
        return deriv
    return np.zeros(nvars)


@dataclass
class _StepData:
    """Everything the backward sweep needs about one accepted step."""

    factorization: object
    #: ``dF_k/dm_{k-1}`` -- residual dependence on the committed history.
    state_coupling: np.ndarray
    #: ``dF_k/dp`` -- residual parameter derivative.
    param_coupling: np.ndarray
    #: ``d m_k/d x_k`` -- state-update dependence on the step solution.
    update_x: np.ndarray
    #: ``d m_k/d m_{k-1}`` -- state-update recursion matrix.
    update_m: np.ndarray
    #: ``d m_k/d p`` -- direct parameter dependence of the state update.
    update_p: np.ndarray


class _Replay:
    """Forward replay of a stored trajectory, producing per-step blocks."""

    def __init__(self, analysis: "TransientAnalysis", trajectory: np.ndarray,
                 times: np.ndarray, refs, stats: dict) -> None:
        self.analysis = analysis
        self.system = MNASystem(analysis.circuit)
        if trajectory.shape != (times.size, self.system.size):
            raise SensitivityError(
                f"stored trajectory has shape {trajectory.shape}, expected "
                f"({times.size}, {self.system.size})")
        self.trajectory = trajectory
        self.times = times
        self.refs = refs
        self.stats = stats
        self.options = analysis.options
        self.integrator = Integrator(
            Integrator.TRAPEZOIDAL
            if self.options.integration_method == "trapezoidal"
            else Integrator.BACKWARD_EULER)
        self.integrator.capture_raw = True
        self.solver = FactorizedSolver("auto")
        self.cache = FactorizationCache(self.solver)
        self.slots: list[tuple[str, object]] = []
        self.num_params = len(refs)
        #: ``d m_0 / d x_0`` and ``d m_0 / d p`` from the priming assembly.
        self.prime_update_x: np.ndarray | None = None
        self.prime_update_p: np.ndarray | None = None
        self._dc_start: tuple | None = None

    def dc_start(self):
        """``(J_dc factorization, dF_dc/dp)`` at the parameter-dependent
        operating point the transient started from (computed once)."""
        if self._dc_start is None:
            x0 = self.trajectory[0]
            ctx = self.system.assemble(x0, "op", 0.0, None, self.options,
                                       1.0, want_jacobian=True)
            try:
                factorization = self.solver.factorize(ctx.jacobian())
            except LinAlgError as exc:
                raise SingularMatrixError(
                    "singular DC Jacobian in the transient sensitivity "
                    f"chain: {exc}") from exc
            self.stats["factorizations"] += 1
            dres_dc = parameter_residual_derivatives(
                self.system, x0, self.refs, "op", 0.0, None, self.options)
            self._dc_start = (factorization, dres_dc)
        return self._dc_start

    # ------------------------------------------------------------------ helpers
    @property
    def num_states(self) -> int:
        return len(self.slots)

    def _seeded_assembly(self, x: np.ndarray, time: float) -> SeededStampContext:
        """One joint (x, states, params) dual-seeded residual assembly."""
        n = self.system.size
        nvars = n + self.num_states + self.num_params
        self.integrator.clear_raw()
        with seeded_parameters(self.refs, nvars=nvars,
                               offset=n + self.num_states):
            ctx = SeededStampContext(self.system, x, "tran", time,
                                     self.integrator, self.options,
                                     nvars=nvars, x_offset=0)
            _run_seeded(self.system, ctx)
        return ctx

    def _capture_updates(self, nvars: int) -> np.ndarray:
        """``(S, nvars)`` derivatives of every pending state update."""
        update = np.zeros((self.num_states, nvars))
        for j, (kind, key) in enumerate(self.slots):
            update[j] = _deriv_of(self.integrator.raw_pending(kind, key), nvars)
        return update

    def _seed_committed(self, committed: list[float]) -> None:
        n = self.system.size
        nvars = n + self.num_states + self.num_params
        for j, (kind, key) in enumerate(self.slots):
            self.integrator.override_state(
                kind, key, Dual.variable(committed[j], index=n + j,
                                         nvars=nvars))

    def _restore_committed(self, committed: list[float]) -> None:
        for j, (kind, key) in enumerate(self.slots):
            self.integrator.override_state(kind, key, committed[j])

    def _read_committed(self) -> list[float]:
        values: list[float] = []
        for kind, key in self.slots:
            value = self.integrator.committed_state(kind, key)
            values.append(float(getattr(value, "value", value)))
        return values

    def _factor(self, x: np.ndarray, time: float):
        """Factor the step Jacobian, reusing the held factorization when
        the Jacobian repeats."""
        ctx = self.system.assemble(x, "tran", time, self.integrator,
                                   self.options, 1.0, want_jacobian=True)
        self.integrator.discard()
        try:
            handle, fresh = self.cache.fetch(ctx.jacobian())
        except LinAlgError as exc:
            raise SingularMatrixError(
                f"singular transient Jacobian at t={time:g} in the "
                f"sensitivity replay: {exc}") from exc
        self.stats["factorizations" if fresh else "factor_cache_hits"] += 1
        return handle

    # ------------------------------------------------------------------ replay
    def prime(self) -> None:
        """Replay the integrator priming at ``t0`` and capture ``d m_0``."""
        x0 = self.trajectory[0]
        self.integrator.priming = True
        self.integrator.set_step(self.analysis.t_step)
        # Probe assembly: enumerate the dynamic-state slots first (their
        # count defines the joint seed space of every later assembly).
        self.integrator.clear_raw()
        probe = SeededStampContext(self.system, x0, "tran", self.times[0],
                                   self.integrator, self.options, nvars=0)
        _run_seeded(self.system, probe)
        self.slots = self.integrator.state_slots()
        self.integrator.discard()
        # Seeded priming assembly: m_0 = phi_0(x_0, p).
        ctx = self._seeded_assembly(x0, self.times[0])
        del ctx
        n = self.system.size
        nvars = n + self.num_states + self.num_params
        update = self._capture_updates(nvars)
        self.prime_update_x = update[:, :n]
        self.prime_update_p = update[:, n + self.num_states:]
        self.integrator.commit()
        self.integrator.priming = False

    def steps(self):
        """Yield ``(index, _StepData)`` for every accepted step, in order."""
        n = self.system.size
        num_states = self.num_states
        nvars = n + num_states + self.num_params
        for k in range(1, self.times.size):
            h = float(self.times[k] - self.times[k - 1])
            if h <= 0.0:
                raise SensitivityError(
                    f"non-increasing trajectory times at index {k}")
            self.integrator.set_step(h)
            x = self.trajectory[k]
            committed = self._read_committed()
            factorization = self._factor(x, self.times[k])
            self._seed_committed(committed)
            ctx = self._seeded_assembly(x, self.times[k])
            update = self._capture_updates(nvars)
            self._restore_committed(committed)
            self.integrator.commit()
            yield k, _StepData(
                factorization=factorization,
                state_coupling=ctx.dres[:, n:n + num_states],
                param_coupling=ctx.dres[:, n + num_states:],
                update_x=update[:, :n],
                update_m=update[:, n:n + num_states],
                update_p=update[:, n + num_states:],
            )


def _initial_condition_chain(replay: _Replay, weights: np.ndarray,
                             stats: dict) -> np.ndarray:
    """``(M, P)`` contribution of the parameter-dependent DC start point.

    ``weights`` is ``d y / d x_0`` as an ``(n, M)`` block (the adjoint of
    the priming state update); the chain resolves ``dx_0/dp`` through one
    transposed solve on the DC Jacobian.
    """
    analysis = replay.analysis
    num_outputs = weights.shape[1]
    if analysis.use_ic or not np.any(weights):
        return np.zeros((num_outputs, replay.num_params))
    dc_factorization, dres_dc = replay.dc_start()
    adjoint = dc_factorization.solve_transposed(weights)
    stats["adjoint_solves"] += num_outputs
    return -(adjoint.T @ dres_dc)


def transient_sensitivities(analysis: "TransientAnalysis", params: Iterable,
                            outputs: Iterable[str], method: str = "adjoint",
                            result: "TransientResult | None" = None
                            ) -> SensitivityResult:
    """Exact final-time sensitivities of a transient analysis.

    Computes ``d y/dp`` for every requested output ``y`` = unknown signal at
    the final accepted time point, with respect to the device parameters --
    at the fixed step sequence the (re-)run produced.  ``method`` is
    ``"adjoint"`` (backward sweep, one transposed back-substitution per step
    and output), ``"direct"`` (tangent-linear forward sweep, one block
    back-substitution per step) or ``"auto"``.

    ``result`` may pass a :class:`TransientResult` carrying a stored
    trajectory (``record_trajectory=True``); otherwise the transient is
    (re)integrated once -- the *only* full nonlinear solve this function
    performs.

    Memory note: the backward sweep stores every step's coupling blocks
    (plus one factorization per *distinct* step Jacobian), so its footprint
    grows with the accepted-step count; for very long transients with few
    parameters prefer ``method="direct"``, which streams the steps with
    O(1) storage.
    """
    if method not in ("auto", "adjoint", "direct"):
        raise SensitivityError(
            f"unknown transient sensitivity method {method!r} "
            "(use 'auto', 'adjoint' or 'direct')")
    stats = {"transient_solves": 0, "newton_solves": 0, "factorizations": 0,
             "factor_cache_hits": 0, "adjoint_solves": 0, "direct_solves": 0}
    if result is None or getattr(result, "trajectory", None) is None:
        previous = analysis.record_trajectory
        analysis.record_trajectory = True
        try:
            result = analysis.run()
        finally:
            analysis.record_trajectory = previous
        stats["transient_solves"] = 1
    trajectory = np.asarray(result.trajectory, dtype=float)
    times = np.asarray(result.time, dtype=float)
    if times.size < 2:
        raise SensitivityError(
            "transient sensitivities need at least one accepted step")

    refs = resolve_parameters(analysis.circuit, params)
    replay = _Replay(analysis, trajectory, times, refs, stats)
    names, selectors = output_selectors(replay.system, outputs)
    num_outputs, num_params = len(names), len(refs)
    if method == "auto":
        method = "adjoint" if num_outputs <= num_params else "direct"
    replay.prime()

    if method == "direct":
        matrix = _forward_sweep(replay, selectors, stats)
    else:
        matrix = _backward_sweep(replay, selectors, stats)
    values = selectors @ trajectory[-1]
    return SensitivityResult(
        outputs=names, params=tuple(ref.label for ref in refs),
        values=values, matrix=matrix, method=method, stats=stats)


def _forward_sweep(replay: _Replay, selectors: np.ndarray,
                   stats: dict) -> np.ndarray:
    """Tangent-linear propagation of ``dx_k/dp`` through the replay."""
    analysis = replay.analysis
    system = replay.system
    num_params = replay.num_params
    if analysis.use_ic:
        dx0 = np.zeros((system.size, num_params))
    else:
        dc_factorization, dres_dc = replay.dc_start()
        dx0 = dc_factorization.solve(-dres_dc)
        stats["direct_solves"] += num_params
    sensitivity = dx0
    state = replay.prime_update_x @ dx0 + replay.prime_update_p
    for _, step in replay.steps():
        rhs = -(step.param_coupling + step.state_coupling @ state)
        try:
            sensitivity = step.factorization.solve(rhs)
        except LinAlgError as exc:
            raise SingularMatrixError(
                f"transient tangent-linear solve failed: {exc}") from exc
        stats["direct_solves"] += num_params
        state = step.update_x @ sensitivity + step.update_m @ state \
            + step.update_p
    return selectors @ sensitivity


def _backward_sweep(replay: _Replay, selectors: np.ndarray,
                    stats: dict) -> np.ndarray:
    """Discrete-adjoint backward recursion over the stored step blocks."""
    steps = [step for _, step in replay.steps()]
    num_outputs = selectors.shape[0]
    num_params = replay.num_params
    gradient = np.zeros((num_outputs, num_params))
    mu = np.zeros((replay.num_states, num_outputs))
    last = len(steps) - 1
    for k in range(last, -1, -1):
        step = steps[k]
        rhs = step.update_x.T @ mu
        if k == last:
            rhs = rhs + selectors.T
        try:
            lam = step.factorization.solve_transposed(rhs)
        except LinAlgError as exc:
            raise SingularMatrixError(
                f"transient adjoint solve failed: {exc}") from exc
        stats["adjoint_solves"] += num_outputs
        gradient += -(lam.T @ step.param_coupling) + mu.T @ step.update_p
        mu = step.update_m.T @ mu - step.state_coupling.T @ lam
    # Initial condition: m_0 = phi_0(x_0(p), p).
    gradient += mu.T @ replay.prime_update_p
    weights = replay.prime_update_x.T @ mu
    gradient += _initial_condition_chain(replay, weights, stats)
    return gradient
