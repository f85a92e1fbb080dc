"""Batched DC-class analyses: B campaign points through one Newton loop.

A campaign evaluates the *same* circuit at B parameter points.  The drivers
here stack those points along a lane axis and run one vectorized Newton
iteration over the block:

* devices whose stamps broadcast (``Device.batch_safe``) are stamped once
  with ``(B,)`` parameter/state arrays,
* devices that cannot broadcast (AD-dual behavioral models) are stamped per
  lane through a genuine serial :class:`~repro.circuit.mna.StampContext`
  aliasing the batch arrays,
* the linear stage factors all B Jacobians in one
  :func:`repro.linalg.batched_factorize` call,
* convergence is tested per lane with the exact serial criterion; converged
  lanes freeze while stragglers iterate.

A lane that fails any serial failure condition (non-finite residual /
Jacobian / update, singular matrix, iteration cap) is *retired* from the
batch and reported back as unsolved -- the campaign evaluator re-runs it
through the ordinary serial path, which reproduces the exact serial error
(or rescues it, e.g. via operating-point source stepping).  The batch never
dies because one point does.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Sequence

import numpy as np

from ... import telemetry
from ...errors import AnalysisError, LinAlgError
from ...linalg import batched_factorize
from ..devices.sources import CurrentSource, VoltageSource
from ..mna import BatchStampContext, MNASystem
from ..netlist import Circuit
from ..waveforms import DC
from .op import collect_outputs
from .options import SimulationOptions
from .results import DCSweepResult, OperatingPoint

__all__ = ["ParameterColumns", "batch_supported", "assemble_batch",
           "batched_newton", "batched_operating_points", "batched_dcsweeps"]


class ParameterColumns:
    """Per-lane values of the tunable parameters a batch sweeps.

    Each assignment targets one device parameter (the
    :attr:`~repro.circuit.devices.base.Device._TUNABLE` protocol) with a
    ``(B,)`` value column.  Batch-safe devices take the whole column at once
    (:meth:`set_arrays`) so vectorized stamps broadcast; per-lane passes
    (non-broadcastable stamping, output collection) swap in lane scalars via
    :meth:`set_lane` / :meth:`set_unsafe_lane`.  :meth:`restore` puts the
    original values back; use the instance as a context manager to make that
    unconditional.
    """

    def __init__(self, circuit: Circuit,
                 assignments: Iterable[tuple[str, str, Sequence[float]]]) -> None:
        self.circuit = circuit
        self.entries: list[tuple[object, str, np.ndarray, object, bool]] = []
        batch: int | None = None
        for device_name, param, values in assignments:
            device = circuit[device_name]
            column = np.asarray(values, dtype=float)
            if column.ndim != 1:
                raise AnalysisError(
                    f"parameter column {device_name}.{param} must be 1-D, got "
                    f"shape {column.shape}")
            if batch is None:
                batch = column.size
            elif column.size != batch:
                raise AnalysisError(
                    f"parameter column {device_name}.{param} has {column.size} "
                    f"lanes, expected {batch}")
            original = device.get_parameter(param)
            safe = bool(getattr(device, "batch_safe", False))
            self.entries.append((device, param, column, original, safe))
        if batch is None:
            raise AnalysisError("a batch needs at least one parameter column")
        self.batch = batch

    def targets(self, device) -> bool:
        """Whether any column writes to ``device``."""
        return any(entry[0] is device for entry in self.entries)

    def set_arrays(self) -> None:
        """Install the full ``(B,)`` columns on every batch-safe device."""
        for device, param, column, _, safe in self.entries:
            if safe:
                device.set_parameter(param, column)

    def set_lane(self, lane: int) -> None:
        """Install lane scalars on *every* device (serial passes)."""
        for device, param, column, _, _ in self.entries:
            device.set_parameter(param, float(column[lane]))

    def set_unsafe_lane(self, lane: int) -> None:
        """Install lane scalars on the non-batch-safe devices only."""
        for device, param, column, _, safe in self.entries:
            if not safe:
                device.set_parameter(param, float(column[lane]))

    def restore(self) -> None:
        """Put every original parameter value back."""
        for device, param, _, original, _ in self.entries:
            device.set_parameter(param, original)

    def __enter__(self) -> "ParameterColumns":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def batch_supported(options: SimulationOptions) -> bool:
    """Whether the batched drivers can honor these options.

    All ``jacobian_reuse`` policies are supported -- ``"chord"`` holds the
    batched factorization across iterations (and solves) with residual-only
    assemblies, mirroring the serial chord-Newton contract lane-wise.  Only
    the CG backend has no batched counterpart and falls back to the serial
    path.
    """
    return options.solver_backend() != "cg"


def assemble_batch(system: MNASystem, x: np.ndarray, analysis: str,
                   options: SimulationOptions, columns: ParameterColumns,
                   source_scale: float = 1.0,
                   want_jacobian: bool = True) -> BatchStampContext:
    """Assemble residuals (and Jacobians) for all B lanes at once.

    Batch-safe devices stamp once over the lane axis; the rest stamp per
    lane with their lane-scalar parameters installed.  Mixed circuits force
    dense assembly -- per-lane triplet streams may diverge (behavioral
    stamps skip exact-zero derivatives), so only all-safe circuits share a
    triplet pattern.
    """
    unsafe = [device for device in system.circuit
              if not getattr(device, "batch_safe", False)]
    ctx = BatchStampContext(system, x, analysis=analysis, options=options,
                            source_scale=source_scale,
                            want_jacobian=want_jacobian,
                            force_dense=bool(unsafe))
    for device in system.circuit:
        if getattr(device, "batch_safe", False):
            device.stamp(ctx)
    if unsafe:
        for lane in range(ctx.batch):
            columns.set_unsafe_lane(lane)
            lane_ctx = ctx.lane_context(lane)
            for device in unsafe:
                device.stamp(lane_ctx)
    ctx.apply_gmin(options.gmin)
    return ctx


def _same_batch_matrix(stored, matrix) -> bool:
    if stored is None:
        return False
    if isinstance(matrix, np.ndarray):
        return isinstance(stored, np.ndarray) and np.array_equal(stored, matrix)
    if isinstance(stored, np.ndarray) or len(stored) != len(matrix):
        return False
    return all(lane_a.data.size == lane_b.data.size
               and np.array_equal(lane_a.data, lane_b.data)
               for lane_a, lane_b in zip(stored, matrix))


class BatchWorkspace:
    """Linear-stage carry-over between batched Newton calls (sweep points).

    Mirrors the serial ``jacobian_reuse="auto"`` behaviour: when the whole
    assembled batch matches the previously factored one exactly (linear
    circuits between sweep points, final iterations of a converged batch),
    the factorization is reused instead of redone.
    """

    def __init__(self) -> None:
        self.matrix = None
        self.factorization = None
        self.factor_reuses = 0
        #: ``(analysis, source_scale, generation)`` the held factorization
        #: belongs to; chord reuse across solves is only valid within it.
        self.chord_tag: tuple | None = None
        self.chord_iterations = 0
        self.stall_refactors = 0


def batched_newton(system: MNASystem, x0: np.ndarray, analysis: str,
                   options: SimulationOptions, columns: ParameterColumns,
                   source_scale: float = 1.0,
                   workspace: BatchWorkspace | None = None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton over B stacked systems with per-lane convergence.

    Returns ``(x, solved, iterations)``: the per-lane solutions, a ``(B,)``
    mask of lanes that converged, and the per-lane iteration counts.  Lanes
    that hit any serial failure condition simply come back unsolved --
    nothing raises, so the caller can retire exactly those lanes to the
    serial path.
    """
    if not batch_supported(options):
        raise AnalysisError(
            "batched Newton supports the dense/superlu backends only")
    ws = workspace if workspace is not None else BatchWorkspace()
    x = np.array(x0, dtype=float, copy=True)
    batch = x.shape[0]
    timing = telemetry.enabled()
    if timing:
        telemetry.registry.observe("batch.size", float(batch))
    columns.set_arrays()
    n_nodes = system.num_nodes
    base_tol = np.where(np.arange(system.size) < n_nodes,
                        options.vntol, options.abstol)
    backend = "superlu" if options.use_sparse(system.size) else "dense"
    alive = np.ones(batch, dtype=bool)
    converged = np.zeros(batch, dtype=bool)
    iterations = np.zeros(batch, dtype=int)
    damping = options.newton_damping
    # Chord mode mirrors the serial contract: ride the held factorization
    # with residual-only assemblies, refactor when any active lane's
    # residual stops contracting (``refactor_threshold``) or the solve
    # grinds past ``chord_limit``, and give the rest of the solve plain
    # full Newton in the latter case.
    tag = (analysis, source_scale, system.structure_cache.generation)
    chord_allowed = options.jacobian_reuse == "chord"
    chord = (chord_allowed
             and ws.factorization is not None and ws.chord_tag == tag)
    chord_limit = max(3, options.max_newton_iterations // 2)
    previous_residual = None
    for iteration in range(1, options.max_newton_iterations + 1):
        ctx = assemble_batch(system, x, analysis, options, columns,
                             source_scale, want_jacobian=not chord)
        healthy = ctx.residual_finite_lanes()
        if not chord:
            healthy &= ctx.jacobian_finite_lanes()
        alive &= healthy | converged
        if not (alive & ~converged).any():
            break
        if chord:
            active = alive & ~converged
            res_norm = np.max(np.abs(ctx.res), axis=1)
            stalled = (previous_residual is not None
                       and bool(np.any(res_norm[active] >
                                       options.refactor_threshold
                                       * previous_residual[active])))
            if stalled or iteration >= chord_limit:
                ctx = assemble_batch(system, x, analysis, options, columns,
                                     source_scale, want_jacobian=True)
                alive &= (ctx.residual_finite_lanes()
                          & ctx.jacobian_finite_lanes()) | converged
                if not (alive & ~converged).any():
                    break
                ws.stall_refactors += 1
                previous_residual = None
                chord = False
                if iteration >= chord_limit:
                    chord_allowed = False
            else:
                ws.chord_iterations += 1
                previous_residual = res_norm
        t0 = perf_counter() if timing else None
        if chord:
            factorization = ws.factorization
        else:
            matrix = ctx.jacobian()
            if options.jacobian_reuse != "off" \
                    and _same_batch_matrix(ws.matrix, matrix):
                factorization = ws.factorization
                ws.factor_reuses += 1
            else:
                try:
                    factorization = batched_factorize(matrix, backend)
                except LinAlgError:
                    # A batch-level factorization failure (not a per-lane
                    # one) retires every unfinished lane to the serial path.
                    alive &= converged
                    break
                ws.matrix = matrix
                ws.factorization = factorization
            ws.chord_tag = tag
            if chord_allowed:
                # Ride this factorization from the next iteration on.
                chord = True
        dx = factorization.solve(-ctx.res)
        # Read after the solve: the dense backend flags singular lanes there.
        alive &= ~factorization.failed | converged
        if t0 is not None:
            telemetry.registry.observe("batch.solve_s", perf_counter() - t0)
        alive &= np.all(np.isfinite(dx), axis=1) | converged
        active = alive & ~converged
        if not active.any():
            break
        x_new = x + damping * dx
        tol = base_tol + options.reltol * np.maximum(np.abs(x), np.abs(x_new))
        lane_converged = np.all(np.abs(damping * dx) <= tol, axis=1)
        # Active lanes take the update (the serial loop assigns x = x_new
        # *before* returning on convergence); frozen lanes keep theirs.
        x[active] = x_new[active]
        iterations[active] = iteration
        converged |= active & lane_converged
        if not (alive & ~converged).any():
            break
    solved = alive & converged
    return x, solved, iterations


def batched_operating_points(circuit: Circuit, options: SimulationOptions,
                             columns: ParameterColumns
                             ) -> list[OperatingPoint | None]:
    """Operating points of B parameter lanes; ``None`` for retired lanes.

    A ``None`` entry means "solve this lane serially" -- the lane may still
    succeed there (source stepping) or produce the exact serial error.
    """
    system = MNASystem(circuit)
    with columns:
        x0 = np.zeros((columns.batch, system.size))
        x, solved, iterations = batched_newton(system, x0, "op", options,
                                               columns)
        results: list[OperatingPoint | None] = [None] * columns.batch
        labels = system.unknown_labels()
        for lane in np.flatnonzero(solved):
            columns.set_lane(lane)
            ctx = system.assemble(x[lane], "op", 0.0, None, options, 1.0,
                                  want_jacobian=False)
            data = collect_outputs(system, ctx)
            results[lane] = OperatingPoint(data, x[lane].copy(), labels,
                                           int(iterations[lane]))
    return results


def batched_dcsweeps(circuit: Circuit, source_name: str,
                     values: Sequence[float], options: SimulationOptions,
                     columns: ParameterColumns,
                     continue_on_failure: bool = False
                     ) -> list[DCSweepResult | None]:
    """DC sweeps of B parameter lanes in lockstep over shared sweep values.

    Follows the serial continuation policy per lane: each converged point
    warm-starts the lane's next one; with ``continue_on_failure`` a failed
    point records NaN and the lane restarts from zero.  Without it a failing
    lane is retired (``None``) so the serial path reproduces the exact
    error.  Retired lanes stop consuming batch work.
    """
    sweep_values = np.asarray(list(values), dtype=float)
    if sweep_values.size == 0:
        raise AnalysisError("DC sweep needs at least one value")
    source = circuit[source_name]
    if not isinstance(source, (VoltageSource, CurrentSource)):
        raise AnalysisError(
            f"{source_name!r} is not an independent source; cannot sweep it")
    if columns.targets(source):
        raise AnalysisError(
            f"batched DC sweep cannot also sweep a parameter of the swept "
            f"source {source_name!r}")
    system = MNASystem(circuit)
    batch = columns.batch
    x = np.zeros((batch, system.size))
    alive = np.ones(batch, dtype=bool)
    rows: list[list[dict[str, float]]] = [[] for _ in range(batch)]
    original_waveform = source.waveform
    workspace = BatchWorkspace()
    try:
        with columns:
            for value in sweep_values:
                source.waveform = DC(float(value))
                x_next, solved, _ = batched_newton(
                    system, x, "dc", options, columns, workspace=workspace)
                x[solved] = x_next[solved]
                for lane in range(batch):
                    if not alive[lane]:
                        continue
                    if solved[lane]:
                        columns.set_lane(lane)
                        ctx = system.assemble(x[lane], "dc", 0.0, None,
                                              options, 1.0,
                                              want_jacobian=False)
                        rows[lane].append(collect_outputs(system, ctx))
                    elif continue_on_failure:
                        # Serial policy: NaN row, restart from zero.
                        rows[lane].append({})
                        x[lane] = 0.0
                    else:
                        alive[lane] = False
    finally:
        source.waveform = original_waveform
    results: list[DCSweepResult | None] = [None] * batch
    for lane in range(batch):
        if not alive[lane]:
            continue
        keys: set[str] = set()
        for row in rows[lane]:
            keys.update(row)
        data = {key: np.array([row.get(key, np.nan) for row in rows[lane]],
                              dtype=float)
                for key in sorted(keys)}
        results[lane] = DCSweepResult(source_name, sweep_values, data)
    return results
