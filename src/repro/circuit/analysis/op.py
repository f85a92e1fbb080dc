"""Operating-point (DC bias) analysis and the shared Newton solver.

``newton_solve`` is the single Newton-Raphson implementation used by the
operating-point, DC-sweep and transient analyses.  Convergence requires every
unknown's update to fall below ``tol_i = (vntol | abstol) + reltol * |x_i|``
-- the SPICE criterion -- with across-type unknowns (node voltages and
velocities) using ``vntol`` and auxiliary through-type unknowns using
``abstol``.

Linear stage
------------
Every Newton update routes through :mod:`repro.linalg`.  A
:class:`NewtonWorkspace` carries the factorization state across iterations
*and* across calls (time steps of a transient, points of a DC sweep), which
is where the ``jacobian_reuse`` policies of
:class:`~repro.circuit.analysis.options.SimulationOptions` live:

* ``"off"`` factors every freshly assembled Jacobian,
* ``"auto"`` matches the assembled Jacobian against recently factored
  matrices (exact array equality) and skips the refactor when the values
  are unchanged -- bit-identical to ``"off"``, and a linear circuit at a
  fixed step factors exactly once for a whole run,
* ``"chord"`` keeps solving with the held factorization while assembling
  the residual only (no derivative propagation at all); a stalling residual
  or a step-size change triggers an automatic full-Newton refactor.

When plain Newton from a zero initial guess fails (strongly nonlinear bias
points such as an electrostatic transducer biased close to pull-in), the
operating-point analysis falls back to **source stepping**: all independent
sources are ramped from zero to their nominal values over a geometric
sequence of levels, each level starting from the previous solution.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable

import numpy as np

import scipy.sparse as sp

from ... import telemetry
from ...errors import ConvergenceError, LinAlgError, SingularMatrixError
from ...linalg import FactorizedSolver
from ...telemetry import NewtonTrace
from ..mna import BatchStampContext, Integrator, MNASystem, StampContext
from ..netlist import Circuit
from .options import SimulationOptions
from .results import OperatingPoint

__all__ = ["newton_solve", "collect_outputs", "NewtonWorkspace",
           "OperatingPointAnalysis"]


class NewtonWorkspace:
    """Linear-stage state shared across the Newton solves of one analysis.

    Holds the backend solver, a short equality-matched list of recently
    factored Jacobians and the chord-Newton bookkeeping (which factorization
    is held, and for which integrator step / source level it was produced).
    Analyses create one workspace per run and thread it through every
    :func:`newton_solve` call so factorizations survive across time steps
    and sweep points.
    """

    #: Recent (matrix, factorization) pairs kept for equality matching.
    _RECENT_LIMIT = 4

    def __init__(self, options: SimulationOptions) -> None:
        self.options = options
        self.solver = FactorizedSolver(options.solver_backend(),
                                       rtol=options.linear_solver_rtol,
                                       cg_fallback=True)
        #: list of (structure generation, matrix, factorization), most
        #: recent first.  Matching is exact array equality -- a memcmp-speed
        #: check, cheap enough to run every Newton iteration (unlike a
        #: content hash, which costs a sizable fraction of the LU it is
        #: trying to skip).
        self._recent: list[tuple[int, object, object]] = []
        self.factorization = None
        #: (analysis, step, source_scale, structure generation) the held
        #: factorization belongs to; chord reuse is only valid within it.
        self.chord_tag: tuple | None = None
        self.factor_reuses = 0
        self.chord_iterations = 0
        self.stall_refactors = 0
        self.step_chord_reuses = 0
        #: Optional :class:`~repro.telemetry.ConvergenceDiagnostics` sink;
        #: analyses install one when ``options.telemetry`` asks for it and
        #: :func:`newton_solve` then records a residual trace per solve.
        self.convergence = None
        #: :class:`~repro.telemetry.ConditionRecord` per fresh factorization
        #: when ``options.health_check`` is on (capped like diagnostics).
        self.health: list = []

    @staticmethod
    def _same_matrix(stored, matrix) -> bool:
        if sp.issparse(matrix):
            return sp.issparse(stored) and stored.shape == matrix.shape \
                and stored.data.size == matrix.data.size \
                and np.array_equal(stored.data, matrix.data)
        return not sp.issparse(stored) and np.array_equal(stored, matrix)

    def factor(self, system: MNASystem, ctx: StampContext):
        """Factor (or fetch) the Jacobian of a fully assembled context."""
        matrix = ctx.jacobian()
        generation = system.structure_cache.generation if ctx.use_sparse else 0
        fresh = False
        if self.options.jacobian_reuse == "off":
            factorization = self.solver.factorize(matrix)
            fresh = True
        else:
            factorization = None
            for index, (stored_gen, stored, handle) in enumerate(self._recent):
                # The generation tag pins the sparsity pattern the stored
                # data array belongs to.
                if stored_gen == generation and self._same_matrix(stored, matrix):
                    factorization = handle
                    if index:
                        self._recent.insert(0, self._recent.pop(index))
                    self.factor_reuses += 1
                    break
            if factorization is None:
                factorization = self.solver.factorize(matrix)
                self._recent.insert(0, (generation, matrix, factorization))
                del self._recent[self._RECENT_LIMIT:]
                fresh = True
        if fresh and self.options.health_check:
            record = telemetry.health.check_factorization(
                factorization, limit=self.options.condition_limit)
            if len(self.health) < self.options.telemetry_max_records:
                self.health.append(record)
        self.factorization = factorization
        return factorization

    def statistics(self) -> dict[str, int]:
        """Counters for result statistics and the reuse benchmarks."""
        return {
            "factorizations": self.solver.factorizations,
            "factor_cache_hits": self.factor_reuses,
            "chord_iterations": self.chord_iterations,
            "stall_refactors": self.stall_refactors,
            "step_chord_reuses": self.step_chord_reuses,
        }


def _chord_tag(system: MNASystem, analysis: str,
               integrator: Integrator | None, source_scale: float) -> tuple:
    step = integrator.h if (integrator is not None
                            and analysis == "tran"
                            and not integrator.priming) else None
    return (analysis, step, source_scale, system.structure_cache.generation)


#: Step ratios outside this window make the chord iteration matrix
#: ``I - A(h_old)^-1 A(h_new)`` expansive in the companion-dominated worst
#: case (the mismatch scales like ``h_old/h_new - 1``), so reuse is pointless
#: -- the stall detector would refactor immediately anyway.
_STEP_REUSE_RATIO = (0.5, 2.0)

#: Tightening factor applied to the convergence tolerance while a solve is
#: riding a step-mismatched factorization: with a contraction of at most 0.5
#: per chord pass the accepted solution then sits within ~1/20 of the normal
#: Newton tolerance of the exact answer, preserving the historical chord
#: accuracy pins at the cost of a few extra residual-only assemblies.
_CONFIRM_TIGHTEN = 0.02


def _step_only_change(old: tuple | None, new: tuple) -> bool:
    """True when two chord tags differ only in a *moderate* step change.

    The LTE controller softly rejects a step (``h * 0.8 .. 0.9``) and grows
    it after smooth stretches (up to ``max_step_growth``, default 2x); the
    Jacobian then changes only through the companion conductances, so the
    held factorization is still a contractive chord operator -- the residual
    is assembled exactly at the new step, a confirming iteration guards the
    convergence test, and the stall detector refactors if the step change
    was too aggressive after all.  Hard rejections (``h * 0.2 .. 0.25``)
    fall outside the ratio window and refactor as before.
    """
    if not (old is not None and old[0] == new[0] == "tran"
            and old[1] is not None and new[1] is not None
            and old[1] != new[1] and old[2:] == new[2:]):
        return False
    ratio = new[1] / old[1]
    return _STEP_REUSE_RATIO[0] <= ratio <= _STEP_REUSE_RATIO[1]


def newton_solve(system: MNASystem, x0: np.ndarray, analysis: str, time: float,
                 integrator: Integrator | None, options: SimulationOptions,
                 source_scale: float = 1.0,
                 workspace: NewtonWorkspace | None = None) -> tuple[np.ndarray, int]:
    """Solve ``F(x) = 0`` by damped Newton-Raphson starting from ``x0``.

    Returns the converged solution and the number of iterations used.
    Raises :class:`~repro.errors.ConvergenceError` when the iteration cap is
    reached and :class:`~repro.errors.SingularMatrixError` when the Jacobian
    cannot be factorised.  ``workspace`` carries factorization reuse across
    calls; a throwaway one is created when omitted.
    """
    ws = NewtonWorkspace(options) if workspace is None else workspace
    x = np.array(x0, dtype=float, copy=True)
    timing = telemetry.enabled()
    trace = NewtonTrace(context=analysis, time=time) \
        if timing and ws.convergence is not None else None
    # Forensics track the residual-norm trajectory (one float/iteration) so
    # a failure report can show how the solve died, not just that it died.
    norms: list[float] | None = [] if options.forensics else None
    n_nodes = system.num_nodes
    base_tol = np.where(np.arange(system.size) < n_nodes,
                        options.vntol, options.abstol)
    tag = _chord_tag(system, analysis, integrator, source_scale)
    chord_allowed = options.jacobian_reuse == "chord"
    chord = (chord_allowed
             and ws.factorization is not None and ws.chord_tag == tag)
    #: While riding a factorization from a *different* step size, a small
    #: Newton update does not prove convergence (the chord operator is only
    #: contractive, not exact): drive the cheap residual-only iteration to a
    #: much tighter update tolerance and require one confirming pass, so the
    #: accepted solution matches a freshly factored solve to well below the
    #: Newton tolerance.  Extra residual assemblies cost a small fraction of
    #: the factorization they replace.
    require_confirm = False
    if (chord_allowed and options.step_chord_reuse and not chord
            and ws.factorization is not None
            and _step_only_change(ws.chord_tag, tag)):
        # A rejected (or re-grown) time step changed only ``h``: ride the
        # accepted-step factorization instead of re-assembling from scratch.
        chord = True
        require_confirm = True
        ws.chord_tag = tag
        ws.step_chord_reuses += 1
    # Past this point a chord solve that is still grinding is assumed to be
    # riding a stale Jacobian; refactor instead of burning the iteration cap.
    chord_limit = max(3, options.max_newton_iterations // 2)
    previous_residual = None
    confirmed_once = False
    for iteration in range(1, options.max_newton_iterations + 1):
        ctx = system.assemble(x, analysis, time, integrator, options,
                              source_scale, want_jacobian=not chord)
        if not np.all(np.isfinite(ctx.res)) or not ctx.jacobian_is_finite():
            message = (f"non-finite residual/Jacobian at iteration "
                       f"{iteration} (t={time:g})")
            raise ConvergenceError(
                message, iterations=iteration,
                report=_newton_report(ws, system, options, analysis, time,
                                      norms, message=message,
                                      error_type="ConvergenceError",
                                      iterations=iteration, vector=ctx.res))
        if trace is not None or norms is not None:
            res_norm = float(np.max(np.abs(ctx.res))) if ctx.res.size else 0.0
            if trace is not None:
                trace.residuals.append(res_norm)
            if norms is not None:
                norms.append(res_norm)
        if chord:
            residual_norm = float(np.max(np.abs(ctx.res))) if ctx.res.size else 0.0
            stalled = (previous_residual is not None
                       and residual_norm >
                       options.refactor_threshold * previous_residual)
            if stalled or iteration >= chord_limit:
                ctx = system.assemble(x, analysis, time, integrator, options,
                                      source_scale, want_jacobian=True)
                if not ctx.jacobian_is_finite():
                    message = (f"non-finite Jacobian at iteration {iteration} "
                               f"(t={time:g})")
                    raise ConvergenceError(
                        message, iterations=iteration,
                        report=_newton_report(ws, system, options, analysis,
                                              time, norms, message=message,
                                              error_type="ConvergenceError",
                                              iterations=iteration,
                                              vector=ctx.res))
                _factorize(ws, system, ctx, analysis, time)
                ws.chord_tag = tag
                ws.stall_refactors += 1
                previous_residual = None
                require_confirm = False  # fresh factorization for this step
                if iteration >= chord_limit:
                    # This solve is grinding: give the rest of it plain full
                    # Newton instead of re-assembling twice per iteration.
                    chord_allowed = False
                    chord = False
            else:
                ws.chord_iterations += 1
                previous_residual = residual_norm
            factorization = ws.factorization
        else:
            factorization = _factorize(ws, system, ctx, analysis, time)
            ws.chord_tag = tag
            if chord_allowed:
                # Ride this factorization from the next iteration on.
                chord = True
        try:
            t0 = perf_counter() if timing else None
            dx = factorization.solve(-ctx.res)
            if t0 is not None:
                telemetry.registry.observe(f"newton.{analysis}.solve_s",
                                           perf_counter() - t0)
        except LinAlgError as exc:
            message = f"MNA solve failed for {analysis} at t={time:g}: {exc}"
            raise SingularMatrixError(
                message,
                report=_newton_report(ws, system, options, analysis, time,
                                      norms, kind="singular", message=message,
                                      error_type="SingularMatrixError",
                                      iterations=iteration,
                                      vector=ctx.res)) from exc
        if not np.all(np.isfinite(dx)):
            message = (f"non-finite Newton update at iteration {iteration} "
                       f"(t={time:g})")
            raise ConvergenceError(
                message, iterations=iteration,
                report=_newton_report(ws, system, options, analysis, time,
                                      norms, message=message,
                                      error_type="ConvergenceError",
                                      iterations=iteration, vector=dx))
        x_new = x + options.newton_damping * dx
        tol = base_tol + options.reltol * np.maximum(np.abs(x), np.abs(x_new))
        if require_confirm:
            tol = _CONFIRM_TIGHTEN * tol
        converged = bool(np.all(np.abs(options.newton_damping * dx) <= tol))
        x = x_new
        if converged and iteration >= 1:
            if require_confirm and not confirmed_once:
                confirmed_once = True  # one more below-tolerance pass, please
                continue
            if trace is not None:
                trace.converged = True
                ws.convergence.add_newton(trace)
            return x, iteration
        confirmed_once = False
    if trace is not None:
        ws.convergence.add_newton(trace)
    message = (f"Newton failed to converge in {options.max_newton_iterations} "
               f"iterations ({analysis}, t={time:g})")
    raise ConvergenceError(
        message,
        iterations=options.max_newton_iterations,
        residual=float(np.max(np.abs(ctx.res))),
        report=_newton_report(ws, system, options, analysis, time, norms,
                              message=message, error_type="ConvergenceError",
                              iterations=options.max_newton_iterations,
                              vector=ctx.res))


def _newton_report(ws: NewtonWorkspace, system: MNASystem,
                   options: SimulationOptions, analysis: str, time: float,
                   norms, *, message: str, error_type: str,
                   kind: str = "newton", iterations: int | None = None,
                   vector=None, matrix=None):
    """Build/record a FailureReport for a dying Newton solve (or None)."""
    if not options.forensics:
        return None
    return telemetry.forensics.newton_failure(
        kind=kind, analysis=analysis, message=message, error_type=error_type,
        time=time, iterations=iterations, labels=system.unknown_labels(),
        residual=vector, trajectory=norms or (),
        factorization=ws.factorization, matrix=matrix, options=options,
        context={"size": system.size})


def _factorize(ws: NewtonWorkspace, system: MNASystem, ctx: StampContext,
               analysis: str, time: float):
    try:
        return ws.factor(system, ctx)
    except LinAlgError as exc:
        message = (f"singular MNA matrix while solving {analysis} "
                   f"at t={time:g}: {exc}")
        report = None
        if ws.options.forensics:
            # The structural diagnosis of the unfactorable matrix is the
            # "which stamp broke the matrix" signal: empty columns name
            # unconstrained unknowns (floating nodes), empty rows name
            # equations that constrain nothing.
            report = telemetry.forensics.newton_failure(
                kind="singular", analysis=analysis, message=message,
                error_type="SingularMatrixError", time=time,
                labels=system.unknown_labels(), matrix=ctx.jacobian(),
                options=ws.options, context={"size": system.size})
        raise SingularMatrixError(message, report=report) from exc


def collect_outputs(system: MNASystem, ctx: StampContext,
                    set_lane: Callable[[int], None] | None = None):
    """Gather node across values and device-recorded outputs at a solution.

    Auxiliary unknowns (branch currents, behavioral extra unknowns) are
    included under their canonical names unless a device already recorded
    the same signal.

    Given a :class:`~repro.circuit.mna.BatchStampContext` the result is one
    dict per lane.  Batch-safe built-in devices record once over the lane
    axis; every other device records per lane on a serial context of that
    lane, after ``set_lane(lane)`` has installed the lane's parameter
    scalars (the lane-axis pass runs first, on the batch's columns).
    """
    if isinstance(ctx, BatchStampContext):
        return _collect_lanes(system, ctx, set_lane)
    x = ctx.x.tolist()
    data: dict[str, float] = {f"v({node.name})": value
                              for node, value in zip(system.nodes, x)}
    system.record_outputs(ctx, data)
    for name, value in zip(system.aux_signal_names(), x[system.num_nodes:]):
        data.setdefault(name, value)
    return data


def _collect_lanes(system: MNASystem, ctx: BatchStampContext,
                   set_lane: Callable[[int], None] | None
                   ) -> list[dict[str, float]]:
    batch, options = ctx.batch, ctx.options
    devices = list(system.circuit)
    # Lane-axis records first, while the batch's parameter columns are in.
    on_axis = {
        position: [(key, np.broadcast_to(np.asarray(value, dtype=float),
                                         (batch,)).tolist())
                   for key, value in device.record(ctx).items()]
        for position, device in enumerate(devices)
        if not device.compiled_stamps and device.batch_safe_for(options)}
    per_lane = {position: [] for position in range(len(devices))
                if position not in on_axis}
    if per_lane:
        for lane in range(batch):
            if set_lane is not None:
                set_lane(lane)
            lane_ctx = StampContext(system, ctx.x[lane], ctx.analysis, 0.0,
                                    None, options, ctx.source_scale,
                                    want_jacobian=False)
            for position, records in per_lane.items():
                records.append(devices[position].record(lane_ctx))
    xs = ctx.x.tolist()
    node_names = [f"v({node.name})" for node in system.nodes]
    rows = [dict(zip(node_names, x)) for x in xs]
    for position in range(len(devices)):
        if position in on_axis:
            for key, values in on_axis[position]:
                for row, value in zip(rows, values):
                    row[key] = value
        else:
            for row, record in zip(rows, per_lane[position]):
                for key, value in record.items():
                    row[key] = float(value)
    aux_names = system.aux_signal_names()
    for row, x in zip(rows, xs):
        for name, value in zip(aux_names, x[system.num_nodes:]):
            row.setdefault(name, value)
    return rows


class OperatingPointAnalysis:
    """Compute the DC operating point of a circuit.

    Parameters
    ----------
    circuit:
        The netlist to solve.
    options:
        Numerical options; a default set is used when omitted.
    """

    def __init__(self, circuit: Circuit, options: SimulationOptions | None = None) -> None:
        self.circuit = circuit
        self.options = options or SimulationOptions()
        self.system = MNASystem(circuit)

    def run(self, initial_guess: np.ndarray | None = None,
            workspace: NewtonWorkspace | None = None) -> OperatingPoint:
        """Solve the operating point, falling back to source stepping if needed.

        ``workspace`` optionally shares the Newton linear-stage state with
        the caller -- the sensitivity path passes its own workspace so the
        converged factorization is reused instead of re-factored.

        With ``options.telemetry`` enabled the returned operating point
        carries a :class:`~repro.telemetry.TelemetryReport` (spans, metric
        deltas, Newton residual traces) as ``result.telemetry``.
        """
        options = self.options
        workspace = workspace or NewtonWorkspace(options)
        if options.telemetry == "off":
            return self._solve(initial_guess, workspace)
        if workspace.convergence is None:
            workspace.convergence = telemetry.ConvergenceDiagnostics(
                max_records=options.telemetry_max_records)
        with telemetry.session(mode=options.telemetry) as sess:
            result = self._solve(initial_guess, workspace)
        sess.report.convergence = workspace.convergence
        result.telemetry = sess.report
        return result

    def _solve(self, initial_guess: np.ndarray | None,
               workspace: NewtonWorkspace) -> OperatingPoint:
        options = self.options
        x0 = np.zeros(self.system.size) if initial_guess is None else \
            np.array(initial_guess, dtype=float, copy=True)
        with telemetry.span("op.run") as op_span:
            try:
                with telemetry.span("op.newton"):
                    solution, iterations = newton_solve(
                        self.system, x0, "op", 0.0, None, options,
                        source_scale=1.0, workspace=workspace)
            except (ConvergenceError, SingularMatrixError):
                with telemetry.span("op.source_stepping"):
                    solution, iterations = self._source_stepping(x0, workspace)
            with telemetry.span("op.collect"):
                ctx = self.system.assemble(solution, "op", 0.0, None, options,
                                           1.0, want_jacobian=False)
                data = collect_outputs(self.system, ctx)
            op_span.set("newton_iters", iterations)
        return OperatingPoint(data, solution, self.system.unknown_labels(), iterations)

    def sensitivities(self, params, outputs, method: str = "auto",
                      operating_point: OperatingPoint | None = None):
        """Exact output/parameter sensitivities at the operating point.

        One forward Newton solve (skipped when ``operating_point`` is
        given), then one transposed back-substitution per output (adjoint)
        or one forward back-substitution per parameter (direct) on the
        already-factored Jacobian -- see
        :func:`repro.circuit.analysis.sensitivity
        .operating_point_sensitivities`.
        """
        from .sensitivity import operating_point_sensitivities

        return operating_point_sensitivities(
            self, params, outputs, method=method,
            operating_point=operating_point)

    def _source_stepping(self, x0: np.ndarray,
                         workspace: NewtonWorkspace | None = None
                         ) -> tuple[np.ndarray, int]:
        """Homotopy on the independent-source amplitudes (0 -> 1)."""
        options = self.options
        levels = np.linspace(0.0, 1.0, min(options.max_source_steps, 32) + 1)[1:]
        x = np.array(x0, dtype=float, copy=True)
        total_iterations = 0
        track = telemetry.progress.tracker("op.source_stepping",
                                           total=len(levels), unit="levels")
        for index, scale in enumerate(levels):
            try:
                x, iterations = newton_solve(
                    self.system, x, "op", 0.0, None, options,
                    source_scale=float(scale), workspace=workspace)
                total_iterations += iterations
            except (ConvergenceError, SingularMatrixError) as exc:
                # The inner failure's forensic report (when captured) rides
                # along on the wrapping error.
                raise ConvergenceError(
                    f"operating point failed even with source stepping at scale "
                    f"{scale:.3f}: {exc}",
                    report=getattr(exc, "report", None)) from exc
            track.update(index + 1, message=f"scale={scale:.3f}")
        track.finish(len(levels))
        return x, max(total_iterations, 1)
