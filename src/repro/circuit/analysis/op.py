"""Operating-point (DC bias) analysis and the Newton engine.

:func:`newton_lanes` is the single Newton-Raphson iteration of the circuit
analyses.  It iterates a ``(B, n)`` block of B lanes sharing one circuit:
the serial solve of the op, DC-sweep and transient analyses is one lane
(:func:`newton_solve`); the batched campaign drivers stack B parameter
points (:func:`~repro.circuit.analysis.batch.batched_newton`).  A lane
converges when every unknown's update falls below ``tol_i = (vntol |
abstol) + reltol * max(|x_i|, |x_new_i|)`` -- the SPICE criterion, with
``vntol`` for across-type unknowns (node voltages and velocities) and
``abstol`` for auxiliary through-type unknowns.  The engine never raises: a
failing lane retires with a :data:`RETIREMENT_ERRORS` reason, which
:func:`newton_solve` turns into the typed error and forensic report.

Junction limiting
-----------------
Each call owns a :class:`~repro.circuit.mna.LimitState` that the stage's
assemblies hand to the stamps: the built-in diode limits its junction
voltage with SPICE's ``pnjlim`` against the voltage it was evaluated at on
the previous iteration (:func:`~repro.circuit.devices.nonlinear.pnjlim`).
The state starts from ``x0``, so the first iteration never limits, and
advances once per iteration.  A lane in which a device limited is not
accepted as converged on that iteration, and its Jacobian is never ridden
by chord iterations.

Linear stage
------------
The engine reaches the circuit through :class:`SerialStage`
(``MNASystem.assemble`` and :meth:`NewtonWorkspace.factor`) or
:class:`~repro.circuit.analysis.batch.BatchStage` (``assemble_batch`` and
:func:`repro.linalg.batched_factorize`).  A :class:`NewtonWorkspace`
carries the factorization state across iterations *and* across calls (time
steps of a transient, points of a DC sweep), which is where the
``jacobian_reuse`` policies of
:class:`~repro.circuit.analysis.options.SimulationOptions` live:

* ``"auto"`` matches the assembled Jacobian against the held one (a
  :class:`~repro.linalg.FactorizationCache`, exact array equality) and
  skips the refactor when the values are unchanged -- bit-identical to
  factoring every Jacobian, and a linear circuit at a fixed step factors
  exactly once for a whole run,
* ``"chord"`` keeps solving with the held factorization while assembling
  the residual only (no derivative propagation at all); a residual that
  stops contracting by :data:`REFACTOR_THRESHOLD` per iteration, or a
  change of step size, source level or analysis, triggers a full-Newton
  refactor.  Each lane keeps its own chord schedule, so a batch lane
  follows the serial solve of that lane.

When plain Newton from a zero initial guess fails (strongly nonlinear bias
points such as an electrostatic transducer biased close to pull-in), the
operating-point analysis falls back to **source stepping**: all independent
sources are ramped from zero to their nominal values over
``max_source_steps`` evenly spaced levels, each starting from the last.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from time import perf_counter
from typing import Callable

import numpy as np

from ... import telemetry
from ...errors import ConvergenceError, LinAlgError, SingularMatrixError
from ...linalg import FactorizationCache, FactorizedSolver
from ...telemetry import NewtonTrace
from ..mna import (BatchStampContext, Integrator, LimitState, MNASystem,
                   StampContext)
from ..netlist import Circuit
from .options import SimulationOptions
from .results import OperatingPoint

__all__ = ["newton_solve", "newton_lanes", "collect_outputs",
           "output_columns", "NewtonWorkspace", "OperatingPointAnalysis"]


@lru_cache(maxsize=64)
def base_tolerance(size: int, num_nodes: int, vntol: float,
                   abstol: float) -> np.ndarray:
    """The absolute part of the convergence tolerance of each of ``size``
    unknowns: ``vntol`` for the ``num_nodes`` node (across) unknowns,
    ``abstol`` for the auxiliary ones.  Built once per layout and tolerance
    pair and shared, read-only, by the Newton engine and the transient
    step control."""
    tol = np.where(np.arange(size) < num_nodes, vntol, abstol)
    tol.flags.writeable = False
    return tol


class NewtonWorkspace:
    """Linear-stage state shared across the Newton solves of one analysis.

    Holds the serial backend solver, the held factorization (a
    :class:`~repro.linalg.FactorizationCache` of the last factored serial
    Jacobian or batched stack) and the chord-Newton bookkeeping (for which
    integrator step / source level the held factorization was produced).
    Analyses create one workspace per run and thread it through every
    Newton call so the factorization survives across time steps and sweep
    points.
    """

    def __init__(self, options: SimulationOptions) -> None:
        self.options = options
        self.solver = FactorizedSolver("auto")
        self.cache = FactorizationCache(self.solver)
        #: (analysis, step, source_scale, structure generation) the held
        #: factorization belongs to; chord reuse is only valid within it.
        self.chord_tag: tuple | None = None
        #: ``(B,)`` mask of the lanes whose held Jacobian chord iterations
        #: may ride (it was not assembled at limited junction voltages).
        self.chord_lanes = np.zeros(0, dtype=bool)
        self.chord_iterations = 0
        self.stall_refactors = 0
        #: Optional :class:`~repro.telemetry.ConvergenceDiagnostics` sink;
        #: analyses install one when ``options.telemetry`` asks for it and
        #: :func:`newton_solve` then records a residual trace per solve.
        self.convergence = None
        #: :class:`~repro.telemetry.ConditionRecord` per fresh factorization
        #: when ``options.health_check`` is on (capped like diagnostics).
        self.health: list = []

    def factor(self, ctx: StampContext):
        """Factor (or fetch) the Jacobian of a fully assembled serial context."""
        factorization, fresh = self.cache.fetch(ctx.jacobian())
        if fresh and self.options.health_check:
            record = telemetry.health.check_factorization(
                factorization, limit=self.options.condition_limit)
            if len(self.health) < self.options.telemetry_max_records:
                self.health.append(record)
        return factorization

    def narrow(self, lanes: np.ndarray) -> tuple:
        """Keep only ``lanes`` of the chord mask and of the held batched
        factorization (when it holds the mask's lanes); returns the state
        they were cut from, for :meth:`widen`."""
        cache = self.cache
        saved = (cache.matrix, cache.handle, self.chord_lanes)
        if getattr(cache.handle, "batch", None) == len(self.chord_lanes):
            matrix = cache.matrix
            cache.matrix = matrix[lanes] if isinstance(matrix, np.ndarray) \
                else [matrix[lane] for lane in lanes]
            cache.handle = cache.handle.take(lanes)
            self.chord_lanes = self.chord_lanes[lanes]
        else:
            self.chord_lanes = np.zeros(len(lanes), dtype=bool)
        return saved

    def widen(self, saved: tuple, lanes: np.ndarray) -> None:
        """Undo :meth:`narrow`: the held lanes go back to their ``lanes``
        of the ``saved`` state, so a later solve of the whole block rides
        each lane's own held Jacobian."""
        matrix, handle, chord_lanes = saved
        cache = self.cache
        if getattr(handle, "batch", None) == len(chord_lanes) and \
                getattr(cache.handle, "batch", None) == len(lanes):
            if isinstance(matrix, np.ndarray):
                matrix = matrix.copy()
                matrix[lanes] = cache.matrix
            else:
                matrix = list(matrix)
                for lane, lane_matrix in zip(lanes.tolist(), cache.matrix):
                    matrix[lane] = lane_matrix
            cache.matrix, cache.handle = matrix, handle.put(lanes,
                                                            cache.handle)
            chord_lanes = chord_lanes.copy()
            chord_lanes[lanes] = self.chord_lanes
        else:
            # The held pair no longer covers the block: nothing to ride.
            chord_lanes = np.zeros(len(chord_lanes), dtype=bool)
        self.chord_lanes = chord_lanes

    def statistics(self) -> dict[str, int]:
        """Counters for result statistics and the reuse benchmarks."""
        return {
            "factorizations": self.solver.factorizations,
            "factor_cache_hits": self.cache.hits,
            "chord_iterations": self.chord_iterations,
            "stall_refactors": self.stall_refactors,
        }


def _chord_tag(system: MNASystem, analysis: str,
               integrator: Integrator | None, source_scale: float) -> tuple:
    step = integrator.h if (integrator is not None
                            and analysis == "tran"
                            and not integrator.priming) else None
    return (analysis, step, source_scale, system.structure_cache.generation)


#: Chord stall criterion: a chord iteration must shrink the residual
#: max-norm below this fraction of the previous iteration's, otherwise the
#: Jacobian is refactored.
REFACTOR_THRESHOLD = 0.5


#: Why a lane retired, and the error :func:`newton_solve` raises for it.
RETIREMENT_ERRORS = {
    "nonfinite_residual": ConvergenceError,  # residual or Jacobian
    "nonfinite_jacobian": ConvergenceError,  # at a chord refactor
    "singular_factor": SingularMatrixError,
    "singular_solve": SingularMatrixError,
    "nonfinite_update": ConvergenceError,
    "iteration_cap": ConvergenceError,
}


class NewtonLanes:
    """Per-lane outcome of :func:`newton_lanes`: last accepted iterates
    ``x``, the ``converged`` mask, the iteration each lane last updated at,
    and for an unsolved lane its ``reason`` and ``retired_at`` iteration.
    ``res`` / ``dx`` are the last residual and update blocks, ``error`` the
    error behind a ``singular_*`` retirement."""

    def __init__(self, x: np.ndarray) -> None:
        self.x = x
        self.converged = np.zeros(len(x), dtype=bool)
        self.iterations = np.zeros(len(x), dtype=int)
        self.reason: list[str | None] = [None] * len(x)
        self.retired_at = [0] * len(x)
        self.res = self.dx = self.error = None

    def retire(self, open_: np.ndarray, mask: np.ndarray, reason: str,
               iteration: int) -> np.ndarray:
        """Retire the open lanes in ``mask``; returns the lanes still open."""
        hit = open_ & mask
        for lane in np.flatnonzero(hit):
            self.reason[lane] = reason
            self.retired_at[lane] = iteration
        return open_ & ~hit

    def take(self, lanes: np.ndarray) -> "NewtonLanes":
        """A block of ``lanes`` only, at their current iterates."""
        return NewtonLanes(self.x[lanes])

    def put(self, lanes: np.ndarray, block: "NewtonLanes") -> None:
        """Record the outcome of ``block``, a :meth:`take` of ``lanes``."""
        self.x[lanes] = block.x
        self.converged[lanes] = block.converged
        self.iterations[lanes] = block.iterations
        for lane, reason, at in zip(lanes.tolist(), block.reason,
                                    block.retired_at):
            self.reason[lane] = reason
            self.retired_at[lane] = at
        self.res, self.dx, self.error = block.res, block.dx, block.error


def newton_lanes(stage, x0: np.ndarray, options: SimulationOptions,
                 workspace: NewtonWorkspace, tag: tuple,
                 norms: list | None = None) -> NewtonLanes:
    """Newton-Raphson over the ``(B, n)`` block ``x0``; never raises.

    The linear ``stage`` has ``system``, ``assemble(x, want_jacobian,
    limits) -> (res, sick, limited)``, ``factor(refresh)`` and
    ``solve(factorization, rhs) -> (dx, singular)`` (``singular``: None or a
    ``(B,)`` mask); the last two raise :class:`~repro.errors.LinAlgError`
    when no lane can be solved.  ``sick`` is None, or the ``(B,)`` mask of
    lanes with a non-finite residual or Jacobian.

    ``limited`` is None when no device limited its junction voltage on this
    iteration -- always so for a circuit without a limiting device, which
    pays nothing for limiting -- else the ``(B,)`` mask of the lanes in
    which one did (:class:`~repro.circuit.mna.LimitState`, created here for
    each call and advanced once per iteration).  A limited lane takes its
    update but is never accepted as converged on that iteration, even when
    ``|dx| <= tol``, and a Jacobian assembled while a lane limited is never
    ridden by that lane's chord iterations: ``G(v_lim)`` contracts too
    slowly to trust the update test.

    ``tag`` scopes chord reuse of the workspace's held factorization;
    ``norms`` (optional) receives each iteration's ``(B,)`` residual
    max-norms.  Converged lanes freeze while stragglers iterate.  Chord
    mode keeps its schedule per lane: a lane refactors when its own
    residual stops contracting, and ``factor(refresh)`` then replaces only
    the ``refresh`` lanes' Jacobians (None: all of them).

    A block never iterates mostly dead lanes.  Once at most half of its
    lanes are still open, and the stage has ``narrow(lanes)``, the solve
    goes on over the open lanes only: the stage narrows its parameter
    columns, and the limiting state, the chord masks and the held stack
    (:meth:`NewtonWorkspace.narrow`) are indexed the same way.  A block
    so makes at most about twice the lane iterations its lanes use, even
    when one lane runs to the iteration cap.  Each lane's arithmetic does
    not depend on the block it is in, so the outcome is the same bits; on
    return the held stack is widened back to the ``B`` lanes of ``x0``.
    The serial ``B = 1`` solve never narrows.
    """
    ws = workspace
    # ``lanes`` is every lane of ``x0``; ``block`` the lanes iterated, which
    # are ``lanes`` itself until a narrowing takes its open ``rows``.
    lanes = block = NewtonLanes(np.array(x0, dtype=float))
    rows = None
    narrow = getattr(stage, "narrow", None)
    cuts: list[tuple] = []  # (workspace state, kept lanes) per narrowing
    x = lanes.x
    batch, size = x.shape
    limits = LimitState(batch)
    open_ = ~lanes.converged  # neither converged nor retired
    # Every lane open: flags and updates apply to the whole block, with no
    # mask bookkeeping (always the case for the serial B = 1 solve).
    whole = True
    base_tol = base_tolerance(size, stage.system.num_nodes, options.vntol,
                              options.abstol)[None]  # one (1, n) row
    chord_allowed = options.jacobian_reuse == "chord"
    if chord_allowed:
        # Chord bookkeeping per lane, as the lane's own serial solve keeps
        # it: whether its held Jacobian may be ridden (``ws.chord_lanes``),
        # whether it may still ride in this solve (``allowed``) and the
        # residual norm of its last chord iteration (``previous``; NaN
        # after a refactor).
        if ws.cache.handle is None or ws.chord_tag != tag \
                or ws.chord_lanes.shape != (batch,):
            ws.chord_lanes = np.zeros(batch, dtype=bool)
        allowed = np.ones(batch, dtype=bool)
        previous = np.full(batch, np.nan)
        # Past this point a chord solve that is still grinding is assumed
        # to be riding a stale Jacobian; refactor instead of burning the
        # iteration cap.
        chord_limit = max(3, options.max_newton_iterations // 2)
    for iteration in range(1, options.max_newton_iterations + 1):
        limits.advance()
        riding = ws.chord_lanes & allowed & open_ if chord_allowed else None
        if riding is not None and not riding.any():
            riding = None
        # Residual-only while every open lane rides.
        full = riding is None or not np.array_equal(riding, open_)
        res, sick, limited = stage.assemble(x, full, limits)
        block.res = res
        if sick is not None:
            open_ = block.retire(open_, sick, "nonfinite_residual", iteration)
            whole = False
            if not open_.any():
                break
        if limited is not None and not whole:
            limited = limited & open_
            if not limited.any():
                limited = None
        if riding is not None or norms is not None:
            res_norm = np.abs(res).max(axis=1, initial=0.0)
            if norms is not None:
                norms.append(res_norm)
        # Open lanes that factor this iteration's Jacobian.
        refresh = open_
        stall = None
        if riding is not None:
            if iteration >= chord_limit:
                stall = riding & open_
            else:
                stall = riding & open_ & (res_norm > REFACTOR_THRESHOLD
                                          * previous)
            if not stall.any():
                stall = None
            elif not full:
                # Same iterate, same limiting state: the same values.
                res, sick, _ = stage.assemble(x, True, limits)
                block.res = res
                if sick is not None:
                    open_ = block.retire(open_, sick, "nonfinite_jacobian",
                                         iteration)
                    whole = False
                    if not open_.any():
                        break
            chorded = riding & open_
            if stall is not None:
                chorded &= ~stall
            if chorded.any():
                ws.chord_iterations += 1
                previous = np.where(chorded, res_norm, previous)
            refresh = open_ & ~chorded
        if riding is not None and not refresh.any():
            factorization = ws.cache.handle
        else:
            try:
                # A chord solve refactors only its refreshing lanes; the
                # others keep the Jacobian they hold.
                factorization = stage.factor(
                    None if not chord_allowed or refresh.all() else refresh)
            except LinAlgError as exc:
                block.error = exc
                block.retire(open_, open_, "singular_factor", iteration)
                break
            ws.chord_tag = tag
            if chord_allowed:
                if stall is not None:
                    ws.stall_refactors += 1
                    previous[stall] = np.nan
                    if iteration >= chord_limit:
                        # This lane is grinding: give the rest of its solve
                        # plain full Newton instead of re-assembling twice
                        # per iteration.
                        allowed &= ~stall
                # A Jacobian assembled at limited voltages is not ridden,
                # in this solve or a later one.
                fresh = refresh if limited is None else refresh & ~limited
                # Ride this factorization from the next iteration on.
                ws.chord_lanes = (ws.chord_lanes & ~refresh) | fresh
        try:
            dx, singular = stage.solve(factorization, -res)
        except LinAlgError as exc:
            block.error = exc
            block.retire(open_, open_, "singular_solve", iteration)
            break
        block.dx = dx
        if singular is not None and singular.any():
            open_ = block.retire(open_, singular, "singular_factor", iteration)
            whole = False
        if not np.isfinite(dx).all():
            open_ = block.retire(open_, ~np.isfinite(dx).all(axis=1),
                                 "nonfinite_update", iteration)
            whole = False
        if not whole and not open_.any():
            break
        x_new = x + dx
        tol = base_tol + options.reltol * np.maximum(np.abs(x), np.abs(x_new))
        done = (np.abs(dx) <= tol).all(axis=1)
        if limited is not None:
            done &= ~limited
        # Open lanes take the update (also on the converging iteration);
        # frozen and retired lanes keep theirs.
        if whole:
            x = block.x = x_new
            block.iterations.fill(iteration)
            finished = np.count_nonzero(done)
            if not finished:
                continue
            if finished == len(done):
                block.converged.fill(True)
                break
        else:
            x[open_] = x_new[open_]
            block.iterations[open_] = iteration
        done = done & open_
        block.converged |= done
        open_ = open_ & ~done
        whole = False
        if not open_.any():
            break
        if narrow is not None and 2 * np.count_nonzero(open_) <= len(open_):
            # At most half the block is open: go on over the open lanes.
            keep = np.flatnonzero(open_)
            if rows is None:
                rows = keep
            else:
                lanes.put(rows, block)
                rows = rows[keep]
            block = block.take(keep)
            x = block.x
            open_ = np.ones(len(keep), dtype=bool)
            whole = True
            limits.narrow(keep)
            narrow(keep)
            if chord_allowed:
                cuts.append((ws.narrow(keep), keep))
                allowed = allowed[keep]
                previous = previous[keep]
    else:
        block.retire(open_, open_, "iteration_cap",
                     options.max_newton_iterations)
    if rows is not None:
        lanes.put(rows, block)
        for state, keep in reversed(cuts):
            ws.widen(state, keep)
    return lanes


class SerialStage:
    """The ``B = 1`` linear stage of :func:`newton_lanes`: one
    :class:`~repro.circuit.mna.StampContext` per assembly and
    :meth:`NewtonWorkspace.factor`."""

    def __init__(self, system: MNASystem, analysis: str, time: float,
                 integrator: Integrator | None, options: SimulationOptions,
                 source_scale: float, workspace: NewtonWorkspace) -> None:
        self.system = system
        self.args = (analysis, time, integrator, options, source_scale)
        self.workspace = workspace
        self.solve_metric = f"newton.{analysis}.solve_s" \
            if telemetry.enabled() else None
        self.ctx: StampContext | None = None
        self.limits: LimitState | None = None

    def assemble(self, x: np.ndarray, want_jacobian: bool,
                 limits: LimitState):
        self.limits = limits
        ctx = self.ctx = self.system.assemble(x[0], *self.args,
                                              want_jacobian=want_jacobian,
                                              limits=limits)
        healthy = np.isfinite(ctx.res).all() and ctx.jacobian_is_finite()
        return (ctx.res[None], None if healthy else np.ones(1, dtype=bool),
                limits.limited)

    def factor(self, refresh=None):
        # One lane: a factoring iteration always refreshes it.
        return self.workspace.factor(self.ctx)

    def solve(self, factorization, rhs: np.ndarray):
        t0 = perf_counter() if self.solve_metric else None
        dx = factorization.solve(rhs[0])
        if t0 is not None:
            telemetry.registry.observe(self.solve_metric, perf_counter() - t0)
        return dx[None], None


def newton_solve(system: MNASystem, x0: np.ndarray, analysis: str, time: float,
                 integrator: Integrator | None, options: SimulationOptions,
                 source_scale: float = 1.0,
                 workspace: NewtonWorkspace | None = None) -> tuple[np.ndarray, int]:
    """Solve ``F(x) = 0`` by Newton-Raphson starting from ``x0``.

    The serial front of :func:`newton_lanes`: returns the converged solution
    and the number of iterations used, or raises the error of the retired
    lane's :data:`RETIREMENT_ERRORS` reason.  ``workspace`` carries
    factorization reuse across calls; a throwaway one is created when
    omitted.
    """
    ws = NewtonWorkspace(options) if workspace is None else workspace
    traced = ws.convergence is not None and telemetry.enabled()
    # Forensics track the residual-norm trajectory (one float/iteration) so
    # a failure report can show how the solve died, not just that it died.
    norms = [] if traced or options.forensics else None
    stage = SerialStage(system, analysis, time, integrator, options,
                        source_scale, ws)
    tag = _chord_tag(system, analysis, integrator, source_scale)
    lanes = newton_lanes(stage, np.asarray(x0)[None], options, ws, tag, norms)
    reason = lanes.reason[0]
    trajectory = None if norms is None else [float(norm[0]) for norm in norms]
    if traced and reason in (None, "iteration_cap"):
        ws.convergence.add_newton(NewtonTrace(
            context=analysis, residuals=trajectory, converged=reason is None,
            time=time))
    if reason is None:
        return lanes.x[0], int(lanes.iterations[0])
    raise _lane_error(lanes, stage, trajectory) from lanes.error


def _lane_error(lanes: NewtonLanes, stage: SerialStage, trajectory):
    """The typed error (with forensic report) of a retired serial lane."""
    analysis, time, _, options, _ = stage.args
    reason, iteration = lanes.reason[0], lanes.retired_at[0]
    error_type = RETIREMENT_ERRORS[reason]
    at = f"at iteration {iteration} (t={time:g})"
    message = {
        "nonfinite_residual": f"non-finite residual/Jacobian {at}",
        "nonfinite_jacobian": f"non-finite Jacobian {at}",
        "nonfinite_update": f"non-finite Newton update {at}",
        "iteration_cap": f"Newton failed to converge in {iteration} "
                         f"iterations ({analysis}, t={time:g})",
        "singular_factor": f"singular MNA matrix while solving {analysis} "
                           f"at t={time:g}: {lanes.error}",
        "singular_solve": f"MNA solve failed for {analysis} at t={time:g}: "
                          f"{lanes.error}",
    }[reason]
    residual = lanes.dx[0] if reason == "nonfinite_update" else lanes.res[0]
    if reason == "iteration_cap" and stage.limits.limited is not None:
        # The last assembly linearized a device at its limited junction
        # voltage: report the circuit's own residual at that iterate.
        residual = stage.system.assemble(stage.ctx.x, *stage.args,
                                         want_jacobian=False).res
    report = None
    if options.forensics:
        # For an unfactorable matrix the structural diagnosis is the "which
        # stamp broke the matrix" signal: empty columns name unconstrained
        # unknowns (floating nodes), empty rows name equations that
        # constrain nothing.
        state = {"matrix": stage.ctx.jacobian()} \
            if reason == "singular_factor" else {
                "iterations": iteration, "trajectory": trajectory or (),
                "residual": residual,
                "factorization": stage.workspace.cache.handle}
        report = telemetry.forensics.newton_failure(
            kind="singular" if error_type is SingularMatrixError else "newton",
            analysis=analysis, message=message,
            error_type=error_type.__name__, time=time,
            labels=stage.system.unknown_labels(), options=options,
            context={"size": stage.system.size}, **state)
    if error_type is SingularMatrixError:
        return SingularMatrixError(message, report=report)
    return ConvergenceError(
        message, iterations=iteration, report=report,
        residual=float(np.max(np.abs(residual)))
        if reason == "iteration_cap" else None)


def collect_outputs(system: MNASystem, ctx: StampContext,
                    set_lane: Callable[[int], None] | None = None):
    """Gather node across values and device-recorded outputs at a solution.

    ``ctx`` need not be assembled; in a transient, recording also refreshes
    the pending integrator states (``Device.record``).

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
    x = ctx.x_list
    data: dict[str, float] = dict(zip(system.node_signal_names(), x))
    system.record_outputs(ctx, data)
    for name, value in zip(system.aux_signal_names(), x[system.num_nodes:]):
        data.setdefault(name, value)
    return data


def output_columns(rows: list[dict[str, float]]) -> dict[str, np.ndarray]:
    """One array per signal of the output ``rows``, in sorted signal order:
    the columns of one table, each row read by one ``itemgetter``.  A row
    that lacks a signal (a failed sweep point's ``{}``) holds NaN there."""
    keys = sorted(set().union(*rows))
    if not keys:
        return {}
    fill, pick = dict.fromkeys(keys, np.nan), itemgetter(*keys)
    table = np.array([pick(row if len(row) == len(keys) else fill | row)
                      for row in rows], dtype=float)
    return dict(zip(keys, table.reshape(len(rows), len(keys)).T))


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
    node_names = system.node_signal_names()
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
                data = collect_outputs(self.system, StampContext(
                    self.system, solution, "op", 0.0, None, options,
                    want_jacobian=False))
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
        """Homotopy on the independent-source amplitudes (0 -> 1); each
        entry counts ``op.source_stepping`` in the metrics registry."""
        telemetry.registry.inc("op.source_stepping")
        options = self.options
        levels = np.linspace(0.0, 1.0, options.max_source_steps + 1)[1:]
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
