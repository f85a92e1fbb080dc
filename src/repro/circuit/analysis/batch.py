"""Batched DC-class analyses: B campaign points through one Newton engine.

A campaign evaluates the *same* circuit at B parameter points.  The drivers
here stack those points along a lane axis and run the serial solve's
Newton engine (:func:`~repro.circuit.analysis.op.newton_lanes`) over it:

* every system gets a group plan (:class:`BatchPlan`, built once per
  system and batch-safety split): the batch-safe devices of one
  ``Device.batch_grouped`` class (R, C, L, diode and the mechanical twins)
  stamp with *one* call of their unchanged ``stamp`` on a group view --
  index-column terminals, stacked ``(k, 1)`` / ``(k, B)`` parameter
  columns -- while the other batch-safe devices (sources holding a
  waveform, behavioral devices with a ``"lanes"`` stamp function) stamp
  alone with ``(B,)`` lanes,
* every ``add_*`` call writes a value buffer at a precomputed slot, and an
  ordered scatter (:class:`~repro.circuit.mna.BatchScatter`) adds each
  entry's contributions in device order -- bitwise equal to stamping
  device by device,
* devices that cannot broadcast (guarded or interpreted behavioral models,
  transducers, controlled sources) are stamped per lane through a genuine
  serial :class:`~repro.circuit.mna.StampContext` aliasing the batch
  arrays -- by their own stamp program, so compiled behavioral models stay
  compiled -- counted as ``mna.batch.lane_stamps`` in the metrics registry,
* the linear stage (:class:`BatchStage`) factors all B Jacobians in one
  :func:`repro.linalg.batched_factorize` call, under the same
  ``jacobian_reuse`` policy and :class:`~repro.circuit.analysis.op.NewtonWorkspace`
  as the serial solve (a batch's chord tag carries no step; a chord
  refactor replaces only the refreshing lanes' Jacobians in the stack),
* the diode's junction limiting runs on the group view's ``(k, B)``
  blocks, keyed by the view in the solve's
  :class:`~repro.circuit.mna.LimitState`,
* outputs are collected once per batch over the lane axis
  (:func:`~repro.circuit.analysis.op.collect_outputs`).

A lane that fails any serial failure condition (non-finite residual /
Jacobian / update, singular matrix, iteration cap) is *retired* from the
batch and reported back as unsolved -- the campaign evaluator re-runs it
through the ordinary serial path, which reproduces the exact serial error
(or rescues it, e.g. via operating-point source stepping).  The batch never
dies because one point does.
"""

from __future__ import annotations

import copy
from time import perf_counter
from typing import Iterable, Sequence

import numpy as np

from ... import telemetry
from ...errors import AnalysisError
from ...linalg import batched_factorize
from ..devices.sources import CurrentSource, VoltageSource
from ..mna import (BatchScatter, BatchStampContext, LimitState, MNASystem,
                   compile_runtime)
from ..netlist import Circuit, Node
from ..waveforms import DC
from .op import (NewtonWorkspace, _chord_tag, collect_outputs, newton_lanes,
                 output_columns)
from .options import SimulationOptions
from .results import DCSweepResult, OperatingPoint

__all__ = ["ParameterColumns", "BatchPlan", "batch_plan", "assemble_batch",
           "BatchStage", "batched_newton", "batched_operating_points",
           "batched_dcsweeps"]


class ParameterColumns:
    """Per-lane values of the tunable parameters a batch sweeps.

    Each assignment targets one device parameter (the
    :attr:`~repro.circuit.devices.base.Device._TUNABLE` protocol) with a
    ``(B,)`` value column.  Devices batch-safe under the run's options take
    the whole column at once (:meth:`set_arrays`) so vectorized stamps
    broadcast; per-lane passes (non-broadcastable stamping, output
    collection) swap in lane scalars via :meth:`set_lane` /
    :meth:`set_unsafe_lane`.  :meth:`restore` puts the original values back;
    use the instance as a context manager to make that unconditional.
    """

    def __init__(self, circuit: Circuit,
                 assignments: Iterable[tuple[str, str, Sequence[float]]]) -> None:
        self.circuit = circuit
        self.entries: list[tuple[object, str, np.ndarray, object]] = []
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
            self.entries.append((device, param, column, original))
        if batch is None:
            raise AnalysisError("a batch needs at least one parameter column")
        self.batch = batch
        #: Per entry: whether its device took the array column in the last
        #: :meth:`set_arrays`.
        self.safe = [False] * len(self.entries)

    def targets(self, device) -> bool:
        """Whether any column writes to ``device``."""
        return any(entry[0] is device for entry in self.entries)

    def set_arrays(self, options: SimulationOptions | None = None,
                   lanes: np.ndarray | None = None) -> None:
        """Install the ``(B,)`` columns -- or their ``lanes`` rows -- on
        every device batch-safe under ``options``."""
        self.safe = [device.batch_safe_for(options)
                     for device, _, _, _ in self.entries]
        for (device, param, column, _), safe in zip(self.entries, self.safe):
            if safe:
                device.set_parameter(
                    param, column if lanes is None else column[lanes])

    def set_lane(self, lane: int) -> None:
        """Install lane scalars on *every* device (serial passes)."""
        for device, param, column, _ in self.entries:
            device.set_parameter(param, float(column[lane]))

    def set_unsafe_lane(self, lane: int) -> None:
        """Install lane scalars on the devices :meth:`set_arrays` left out."""
        for (device, param, column, _), safe in zip(self.entries, self.safe):
            if not safe:
                device.set_parameter(param, float(column[lane]))

    def restore(self) -> None:
        """Put every original parameter value back."""
        for device, param, _, original in self.entries:
            device.set_parameter(param, original)

    def __enter__(self) -> "ParameterColumns":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def _stacked_attributes(cls) -> list[str]:
    """The ``_TUNABLE`` attributes of ``cls`` and its bases -- everything a
    grouped stamp may read besides terminals and auxiliary unknowns."""
    attrs: list[str] = []
    for klass in cls.__mro__:
        for attr in vars(klass).get("_TUNABLE", {}).values():
            if attr not in attrs:
                attrs.append(attr)
    return attrs


class _Group:
    """One device class's members stamped together through a group view.

    The view is a shallow copy of the first member whose terminals are
    ``(k,)`` index columns (ground -> the padding slot ``system.size``),
    whose auxiliary unknowns are ``batch_aux`` index columns, and whose
    tunable attributes hold the members' values stacked by :meth:`stack`.
    Its one ``stamp`` call computes ``(k, B)`` blocks; inside a Newton
    solve the view is the group's key in the solve's
    :class:`~repro.circuit.mna.LimitState`, so a limiting class (the diode)
    limits all members and lanes in one elementwise call.
    """

    def __init__(self, system: MNASystem, members: list, positions: list[int]
                 ) -> None:
        self.members = members
        self.positions = np.array(positions, dtype=np.intp)
        self.attrs = _stacked_attributes(type(members[0]))
        view = self.view = copy.copy(members[0])
        pad = system.size
        for attr, value in vars(members[0]).items():
            if isinstance(value, Node):
                indices = [system.index_of(getattr(member, attr))
                           for member in members]
                setattr(view, attr, np.array(
                    [pad if index < 0 else index for index in indices],
                    dtype=np.intp))
        view.batch_aux = {
            name: np.array([system.aux_index(member, name)
                            for member in members], dtype=np.intp)
            for name in members[0].aux_names()}

    def stack(self) -> None:
        """Stack the members' current tunable values onto the view: a
        ``(k, 1)`` column, or ``(k, B)`` where a member holds a lane array
        (lanes last, like the context's index-column reads)."""
        view, members = self.view, self.members
        for attr in self.attrs:
            values = [getattr(member, attr) for member in members]
            if any(isinstance(value, np.ndarray) for value in values):
                column = np.stack(np.broadcast_arrays(*values))
            else:
                column = np.array(values, dtype=float)[:, None]
            setattr(view, attr, column)


class BatchPlan:
    """How one MNA system stamps a batch under one batch-safety split.

    Built once per system and split (:func:`batch_plan`).  Batch-safe
    devices of a ``batch_grouped`` class stamp as one group view per class
    (:class:`_Group`); the other batch-safe devices -- sources holding a
    waveform, behavioral devices with a ``"lanes"`` stamp function --
    stamp alone, still through the shared value buffers; ``lane_devices``
    stamp per lane, through their stamp programs (``lane_programs``).  The
    :class:`~repro.circuit.mna.BatchScatter` of ``entries`` is probed on
    the first assembly (and again should the stamp calls ever change).
    """

    def __init__(self, system: MNASystem, safe: Sequence[bool]) -> None:
        self.lane_devices: list = []
        #: ``(mode, task) -> StampProgram`` of ``lane_devices``.
        self.lane_programs: dict = {}
        # Grouped classes and single devices, in order of first appearance.
        members: dict[object, list[tuple[int, object]]] = {}
        for position, (device, ok) in enumerate(zip(system.circuit, safe)):
            if not ok:
                self.lane_devices.append(device)
                continue
            key = type(device) if device.batch_grouped else device
            members.setdefault(key, []).append((position, device))
        self.groups: list[_Group] = []
        #: ``(stamper, positions)`` in stamping order.
        self.entries: list = []
        for key, entry in members.items():
            if isinstance(key, type):
                group = _Group(system, [device for _, device in entry],
                               [position for position, _ in entry])
                self.groups.append(group)
                self.entries.append((group.view, group.positions))
            else:
                (position, device), = entry
                self.entries.append((device, position))
        self.stampers = [stamper for stamper, _ in self.entries]
        self.scatter: BatchScatter | None = None

    def stack(self) -> None:
        for group in self.groups:
            group.stack()


def batch_plan(system: MNASystem, options: SimulationOptions,
               columns: ParameterColumns) -> BatchPlan:
    """The system's :class:`BatchPlan` under ``options``, with ``columns``
    installed and the group views' parameter columns stacked from them."""
    safe = tuple(device.batch_safe_for(options) for device in system.circuit)
    plan = system.batch_plans.get(safe)
    if plan is None:
        plan = system.batch_plans[safe] = BatchPlan(system, safe)
    columns.set_arrays(options)
    plan.stack()
    return plan


def assemble_batch(system: MNASystem, x: np.ndarray, analysis: str,
                   options: SimulationOptions, columns: ParameterColumns,
                   source_scale: float = 1.0,
                   want_jacobian: bool = True,
                   plan: BatchPlan | None = None,
                   limits: LimitState | None = None) -> BatchStampContext:
    """Assemble residuals (and Jacobians) for all B lanes at once.

    Runs the system's group plan: one ``stamp`` per group view and per
    ungrouped batch-safe device into the shared value buffers, the ordered
    scatter, then the per-lane stamps of the devices that cannot
    broadcast (``columns`` supplies their lane scalars).  Per-lane stamps
    force dense assembly -- per-lane triplet streams may diverge
    (behavioral stamps skip exact-zero derivatives).  ``plan`` defaults to
    :func:`batch_plan`; :class:`BatchStage` passes the one it prepared,
    and the junction-limiting state of its Newton solve as ``limits``.
    """
    if plan is None:
        plan = batch_plan(system, options, columns)
    probed = plan.scatter is None
    if probed:
        plan.scatter = BatchScatter.probe(system, plan.entries, x, analysis,
                                          options, source_scale)
    ctx = BatchStampContext(system, x, analysis, options, plan.scatter,
                            source_scale=source_scale,
                            want_jacobian=want_jacobian,
                            force_dense=bool(plan.lane_devices),
                            limits=limits)
    if not ctx.stamp_all(plan.stampers):
        if probed:
            raise AnalysisError(
                "batch-safe stamps made different calls at one iterate; a "
                "batch-safe stamp must not branch on values")
        # The stamps changed their calls since the probe: probe again.
        plan.scatter = None
        return assemble_batch(system, x, analysis, options, columns,
                              source_scale, want_jacobian, plan, limits)
    if plan.lane_devices:
        stamp = compile_runtime().stamp_devices
        for lane in range(ctx.batch):
            columns.set_unsafe_lane(lane)
            stamp(plan.lane_programs, plan.lane_devices, ctx.lane_context(lane))
        telemetry.registry.inc("mna.batch.lane_stamps",
                               ctx.batch * len(plan.lane_devices))
    ctx.apply_gmin(options.gmin)
    return ctx


class BatchStage:
    """The lane-axis linear stage of the Newton engine: :func:`assemble_batch`
    and :func:`repro.linalg.batched_factorize`."""

    def __init__(self, system: MNASystem, analysis: str,
                 options: SimulationOptions, columns: ParameterColumns,
                 source_scale: float, workspace: NewtonWorkspace) -> None:
        self.system = system
        self.args = (analysis, options, columns, source_scale)
        self.plan = batch_plan(system, options, columns)
        self.backend = "superlu" if options.use_sparse(system.size) else "dense"
        self.workspace = workspace
        self.timing = telemetry.enabled()
        self.ctx: BatchStampContext | None = None

    def assemble(self, x: np.ndarray, want_jacobian: bool,
                 limits: LimitState):
        ctx = self.ctx = assemble_batch(self.system, x, *self.args,
                                        want_jacobian=want_jacobian,
                                        plan=self.plan, limits=limits)
        healthy = ctx.residual_finite_lanes()
        if want_jacobian:
            healthy &= ctx.jacobian_finite_lanes()
        return ctx.res, None if healthy.all() else ~healthy, limits.limited

    def factor(self, refresh: np.ndarray | None = None):
        """Factor the assembled Jacobian stack; with a ``refresh`` mask,
        the other lanes keep the Jacobian of the held factorization (chord
        lanes ride it exactly as their own serial solves would)."""
        matrix = self.ctx.jacobian()
        held = None if refresh is None else self.workspace.cache.matrix
        if held is not None and len(held) == len(matrix):
            if isinstance(matrix, list):
                matrix = [new if take else old
                          for new, old, take in zip(matrix, held, refresh)]
            else:
                matrix = np.where(refresh[:, None, None], matrix, held)
        return self.workspace.cache.fetch(
            matrix, lambda stack: batched_factorize(stack, self.backend))[0]

    def solve(self, factorization, rhs: np.ndarray):
        t0 = perf_counter() if self.timing else None
        dx = factorization.solve(rhs)
        if t0 is not None:
            telemetry.registry.observe("batch.solve_s", perf_counter() - t0)
        # Read after the solve: the dense backend flags singular lanes there.
        return dx, factorization.failed


def batched_newton(system: MNASystem, x0: np.ndarray, analysis: str,
                   options: SimulationOptions, columns: ParameterColumns,
                   source_scale: float = 1.0,
                   workspace: NewtonWorkspace | None = None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton over B stacked systems with per-lane convergence.

    The batched front of :func:`~repro.circuit.analysis.op.newton_lanes`.
    Returns ``(x, solved, iterations)``: the per-lane solutions, a ``(B,)``
    mask of lanes that converged, and the per-lane iteration counts.  Lanes
    that hit any serial failure condition simply come back unsolved --
    nothing raises, so the caller can retire exactly those lanes to the
    serial path.
    """
    ws = NewtonWorkspace(options) if workspace is None else workspace
    if telemetry.enabled():
        telemetry.registry.observe("batch.size", float(x0.shape[0]))
    stage = BatchStage(system, analysis, options, columns, source_scale, ws)
    lanes = newton_lanes(stage, x0, options, ws,
                         _chord_tag(system, analysis, None, source_scale))
    return lanes.x, lanes.converged, lanes.iterations


def _collect(system: MNASystem, x: np.ndarray, lanes: np.ndarray,
             analysis: str, options: SimulationOptions,
             columns: ParameterColumns) -> list[dict[str, float]]:
    """Output rows of the solved ``lanes`` of ``x``, in one lane-axis pass."""
    columns.set_arrays(options, lanes)
    ctx = BatchStampContext(system, x[lanes], analysis, options,
                            want_jacobian=False)
    return collect_outputs(system, ctx,
                           lambda index: columns.set_lane(lanes[index]))


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
        lanes = np.flatnonzero(solved)
        if lanes.size:
            labels = system.unknown_labels()
            rows = _collect(system, x, lanes, "op", options, columns)
            for lane, data in zip(lanes, rows):
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

    Under ``jacobian_reuse="chord"`` the lanes match serial only to the
    Newton tolerance: each lane keeps its own chord schedule within a
    point, but across points the held stack and its structure tags can
    differ from the serial sweep's, so with ``continue_on_failure`` a point
    near the iteration cap can be marked failed in a different set of lanes
    than the serial sweeps mark.
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
    workspace = NewtonWorkspace(options)
    try:
        with columns:
            for value in sweep_values:
                source.waveform = DC(float(value))
                x_next, solved, _ = batched_newton(
                    system, x, "dc", options, columns, workspace=workspace)
                x[solved] = x_next[solved]
                lanes = np.flatnonzero(alive & solved)
                if lanes.size:
                    point_rows = _collect(system, x, lanes, "dc", options,
                                          columns)
                    for lane, row in zip(lanes, point_rows):
                        rows[lane].append(row)
                for lane in np.flatnonzero(alive & ~solved):
                    if continue_on_failure:
                        # Serial policy: NaN row, restart from zero.
                        rows[lane].append({})
                        x[lane] = 0.0
                    else:
                        alive[lane] = False
    finally:
        source.waveform = original_waveform
    results: list[DCSweepResult | None] = [None] * batch
    for lane in np.flatnonzero(alive):
        results[lane] = DCSweepResult(source_name, sweep_values,
                                      output_columns(rows[lane]))
    return results
