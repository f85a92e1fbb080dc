"""Runtime integration of compiled behavioral kernels into MNA stamping.

This module owns the per-device compile state (traced variants, permanent
fallbacks) and two ways of running the compiled code:

**Stamp programs** (the steady state).  An MNA system holding behavioral
devices assembles through a :class:`StampProgram` per ``(mode, task)``:
a flat list in device order where built-in devices keep ``device.stamp``
and each compiled behavioral device is one process-shared stamp function
(:func:`.codegen.bind_stamp`, generated from the IR with solution indices,
stamp rows, state keys and parameter owners as arguments) plus its bound
argument tuple.  The checks that decide whether compiled code may stamp at
all -- exact :class:`StampContext`, no residual duals or raw-state capture,
compile enabled, dense Jacobian -- run once per assembly in
:func:`run_stamps`; :func:`record_outputs` runs the record functions the
same way for output collection.  Accumulation stays in device order, so
results are bitwise those of device-by-device stamping.

**The per-device path** (``try_stamp``/``try_record``).  It serves first
traces, program fallbacks and the assemblies a program does not take.  It
runs the device's kernels for the current analysis mode; a guard mismatch
tries the next variant, and when every variant misses the model is
re-traced against the live context (bounded by :data:`MAX_VARIANTS`) and
*this* call is stamped by the interpreter -- the trace already wrote the
identical pending dynamic state, so the interpreter's writes are
idempotent.

Kernels differentiate with respect to their *across/unknown leaves*
(circuit-independent, so compiled kernels are shared process-wide); each
MNA dependency index maps to ``leaf * (+/-1)``.  Negation is exact in IEEE
arithmetic, so compiled Jacobian stamps are bitwise what the AD-dual
interpreter produces.  When two leaves land on one index (ports sharing a
non-ground node) Jacobian stamps fall back to the interpreter, whose
in-dual summation order is not reconstructable from per-leaf derivatives.

The batched path (``try_stamp_batch``) evaluates the lane-vectorized kernel
once over ``(B,)`` lanes.  It is only offered for devices whose single
operating-point variant traced without guards (:func:`batch_ready`), which
is what lets behavioral devices skip the per-lane fallback in campaign
batches.

Every silent fallback bumps a registry counter ``hdl.fallback.<reason>``:
``sparse``, ``collide`` and ``param`` leave the program for the per-device
path; ``guard_miss``, ``disabled`` and ``arith`` leave compiled code for
the interpreter.

Escape hatches: ``SimulationOptions(behavioral_compile=False)`` and the
``REPRO_BEHAVIORAL_INTERP`` environment variable (checked once per assembly
context, so tests can flip it between runs) both force the interpreter.
"""

from __future__ import annotations

import numbers
import os
from time import perf_counter

import numpy as np

from ... import telemetry
from ...ad import Dual
from ...circuit.mna import BatchStampContext, Integrator, StampContext
from ...telemetry import registry
from . import codegen, passes
from .trace import trace_behavior

__all__ = ["MAX_VARIANTS", "CompileState", "StampProgram",
           "compilation_enabled", "state_for", "try_stamp", "try_record",
           "run_stamps", "record_outputs", "batch_ready", "try_stamp_batch"]

#: Re-trace budget per (device, mode): after this many traced variants the
#: mode permanently falls back to the interpreter.
MAX_VARIANTS = 8


def _interp_forced() -> bool:
    return bool(os.environ.get("REPRO_BEHAVIORAL_INTERP"))


def compilation_enabled(options) -> bool:
    """Whether kernels may replace the interpreter under these options."""
    if _interp_forced():
        return False
    return bool(getattr(options, "behavioral_compile", True))


def _ctx_enabled(ctx) -> bool:
    """Per-context memo of :func:`compilation_enabled` (contexts are
    per-assembly, so the environment stays responsive between runs while the
    ``os.environ`` lookup leaves the per-stamp path)."""
    on = getattr(ctx, "_hdl_compile_on", None)
    if on is None:
        on = ctx._hdl_compile_on = compilation_enabled(ctx.options)
    return on


class CompileState:
    """Per-device compile bookkeeping (variants per mode, fallbacks)."""

    __slots__ = ("variants", "disabled", "trace_count", "probed")

    def __init__(self) -> None:
        self.variants: dict[str, list[_BoundVariant]] = {}
        self.disabled: set[str] = set()
        self.trace_count: dict[str, int] = {}
        self.probed = False


def state_for(device) -> CompileState:
    state = getattr(device, "_compile_state", None)
    if state is None:
        state = device._compile_state = CompileState()
    return state


#: Arithmetic errors a kernel shares with the interpreter.
_ARITH = (ZeroDivisionError, OverflowError, ValueError)


class _ParamFallback(Exception):
    """A kernel parameter is not a plain number right now (e.g. AD-seeded)."""


class _BoundVariant:
    """A process-shared KernelSet bound to one device.

    ``plan`` pre-resolves every kernel input to its source -- ``("a", p, n)``
    port across, ``("u", name)`` extra unknown, ``("b", owner, attr)``
    parameter binding, ``("d", name)`` params-dict entry, ``("c", value)``
    default constant, ``("t",)`` analysis time -- so gathering is a tag
    dispatch with no per-stamp dict lookups.  ``geometry`` caches the MNA
    index map per system (lazily; systems are long-lived across a run).
    """

    __slots__ = ("kernels", "keys", "plan", "geometry")

    def __init__(self, device, kernels: codegen.KernelSet) -> None:
        self.kernels = kernels
        self.keys = tuple((device.name, suffix)
                          for suffix in kernels.state_suffixes)
        plan = []
        for kind, name in kernels.inputs:
            if kind == "across":
                port = device.port(name)
                plan.append(("a", port.p, port.n))
            elif kind == "unknown":
                plan.append(("u", name, None))
            elif kind == "param":
                binding = device.parameter_bindings.get(name)
                if binding is not None:
                    plan.append(("b", binding[0], binding[1]))
                elif name in device.params:
                    plan.append(("d", name, None))
                else:
                    plan.append(("c", kernels.param_defaults[name], None))
            else:  # time
                plan.append(("t", None, None))
        self.plan = tuple(plan)
        self.geometry: _Geometry | None = None


class _Geometry:
    """Per-(bound variant, MNA system) stamp indices.

    ``dep_map`` is the collision-free scalar fast path: one
    ``(dependency index, leaf position, negate)`` triple per dependency that
    a leaf feeds, in the interpreter's dependency order.  ``entries`` keeps
    the full index -> [(leaf, sign)] map for the batched path, which sums
    colliding leaves explicitly.  ``plan`` is the bound gather plan with
    across/unknown sources resolved to solution-vector indices (-1 =
    ground), so scalar input gathering indexes ``ctx.x`` directly.
    """

    __slots__ = ("system", "size", "deps", "entries", "collide", "dep_map",
                 "contribs", "eqs", "plan")

    def __init__(self, device, bound: _BoundVariant, ctx) -> None:
        kernels = bound.kernels
        self.system = ctx.system
        self.size = ctx.system.size
        plan = []
        for tag, a, b in bound.plan:
            if tag == "a":
                plan.append(("a", ctx.node_index(a), ctx.node_index(b)))
            elif tag == "u":
                plan.append(("u", ctx.aux_index(device, a), None))
            else:
                plan.append((tag, a, b))
        self.plan = tuple(plan)
        self.deps = device._dependency_indices(ctx.node_index, ctx.aux_index)
        entries: dict[int, list[tuple[int, float]]] = {}
        for pos, (kind, name) in enumerate(kernels.diff_inputs):
            if kind == "across":
                port = device.port(name)
                for node, sign in ((port.p, 1.0), (port.n, -1.0)):
                    idx = ctx.node_index(node)
                    if idx >= 0:
                        entries.setdefault(idx, []).append((pos, sign))
            else:
                idx = ctx.aux_index(device, name)
                entries.setdefault(idx, []).append((pos, 1.0))
        self.entries = entries
        self.collide = any(len(pairs) > 1 for pairs in entries.values())
        self.dep_map = tuple(
            (idx, entries[idx][0][0], entries[idx][0][1] < 0.0)
            for idx in self.deps if idx in entries)
        self.contribs = tuple(
            (ctx.node_index(device.port(name).p),
             ctx.node_index(device.port(name).n))
            for name in kernels.contrib_ports)
        self.eqs = tuple(ctx.aux_index(device, name)
                         for name in kernels.eq_names)


def _geometry(device, bound: _BoundVariant, ctx) -> _Geometry:
    geo = bound.geometry
    if geo is None or geo.system is not ctx.system:
        geo = bound.geometry = _Geometry(device, bound, ctx)
    return geo


def _check_param(value) -> float:
    if isinstance(value, (bool, Dual)) or not isinstance(value, numbers.Real):
        raise _ParamFallback()
    return float(value)


def _gather(device, geo: _Geometry, ctx) -> list:
    """Kernel inputs in layout order (scalar contexts; index-resolved plan)."""
    x = ctx.x
    values = []
    for tag, a, b in geo.plan:
        if tag == "a":
            va = 0.0 if a < 0 else float(x[a])
            vb = 0.0 if b < 0 else float(x[b])
            values.append(va - vb)
        elif tag == "b":
            v = getattr(a, b)
            values.append(v if type(v) is float else _check_param(v))
        elif tag == "u":
            values.append(float(x[a]))
        elif tag == "d":
            v = device.params[a]
            values.append(v if type(v) is float else _check_param(v))
        elif tag == "c":
            values.append(a)
        else:  # time
            values.append(ctx.time)
    return values


def _gather_nodes(device, bound: _BoundVariant, ctx) -> list:
    """Node-based gather for batch contexts (``across`` returns lane arrays)."""
    values = []
    for tag, a, b in bound.plan:
        if tag == "a":
            values.append(ctx.across(a) - ctx.across(b))
        elif tag == "b":
            v = getattr(a, b)
            values.append(v if type(v) is float else _check_param(v))
        elif tag == "u":
            values.append(ctx.aux_value(device, a))
        elif tag == "d":
            v = device.params[a]
            values.append(v if type(v) is float else _check_param(v))
        elif tag == "c":
            values.append(a)
        else:  # time
            values.append(ctx.time)
    return values


def _dep_value(entries, idx: int, dlist):
    """Derivative w.r.t. unknown ``idx`` from the per-leaf derivatives."""
    pairs = entries.get(idx)
    if not pairs:
        return 0.0
    total = None
    for pos, sign in pairs:
        term = dlist[pos] if sign > 0 else -dlist[pos]
        total = term if total is None else total + term
    return total


def _retrace(device, state: CompileState, mode: str, stamp_ctx) -> None:
    """Trace a fresh variant (or permanently disable the mode)."""
    count = state.trace_count.get(mode, 0)
    if count >= MAX_VARIANTS:
        state.disabled.add(mode)
        return
    state.trace_count[mode] = count + 1
    try:
        variant = passes.simplify_variant(
            trace_behavior(device, mode, stamp_ctx))
        kernels = codegen.compile_variant(variant)
    except Exception:
        # Untraceable (float() concretization, foreign duals, exceptions on
        # traced values): the interpreter owns this mode from now on.
        state.disabled.add(mode)
        return
    if set(device.extra_unknowns) - set(kernels.eq_names):
        # Declared unknowns without equations: leave the mode to the
        # interpreter, which raises the properly-worded DeviceError.
        state.disabled.add(mode)
        return
    state.variants.setdefault(mode, []).append(_BoundVariant(device, kernels))


def _scalar_eligible(ctx) -> bool:
    if type(ctx) is not StampContext:
        # Batch and sensitivity-seeded subclasses have their own contracts.
        return False
    if ctx.keep_residual_duals or not _ctx_enabled(ctx):
        return False
    integrator = ctx.integrator
    if integrator is not None and integrator.capture_raw:
        # Raw-state capture must store the AD duals themselves.
        return False
    return True


def _select_output(state: CompileState, device, mode: str, ctx,
                   want_jacobian: bool):
    """Run the first variant whose guards hold; None means interpreter."""
    bounds = state.variants.get(mode)
    if bounds is None:
        _retrace(device, state, mode, ctx)
        return None
    for bound in bounds:
        geo = _geometry(device, bound, ctx)
        try:
            inputs = _gather(device, geo, ctx)
        except _ParamFallback:
            return None
        kernels = bound.kernels
        kernel = kernels.scalar if want_jacobian else kernels.value
        try:
            out = kernel(ctx, bound.keys, *inputs)
        except _ARITH:
            # The interpreter performs the same arithmetic; let it raise the
            # properly-worded error (or survive, for dual-order edge cases).
            registry.inc("hdl.fallback.arith")
            return None
        if out is not None:
            return bound, geo, out
    registry.inc("hdl.fallback.guard_miss")
    _retrace(device, state, mode, ctx)
    return None


def _mode_state(device, ctx):
    """``(mode, state)`` of a compile-eligible scalar stamp, or None."""
    if not _scalar_eligible(ctx):
        return None
    state = state_for(device)
    mode = "tran" if ctx.is_transient else "op"
    if mode in state.disabled:
        registry.inc("hdl.fallback.disabled")
        return None
    return mode, state


def try_stamp(device, ctx) -> bool:
    """Compiled ``BehavioralDevice.stamp`` of one device; False = fallback.

    The per-device path: stamp programs cover eligible assemblies, so this
    runs for first traces, program fallbacks, per-lane batch contexts and
    assemblies a program does not take (sparse Jacobians, priming)."""
    if isinstance(ctx, BatchStampContext):
        return try_stamp_batch(device, ctx)
    eligible = _mode_state(device, ctx)
    if eligible is None:
        return False
    mode, state = eligible
    want_jacobian = ctx.want_jacobian
    picked = _select_output(state, device, mode, ctx, want_jacobian)
    if picked is None:
        return False
    bound, geo, (values, extras) = picked
    if want_jacobian and geo.collide:
        # Leaves collide on one unknown: only the interpreter's in-dual
        # summation reproduces those derivatives bitwise.
        return False
    out_pos = 0
    for ip, in_ in geo.contribs:
        ctx.add_through(ip, in_, values[out_pos])
        if want_jacobian:
            dlist = extras[out_pos]
            for idx, pos, neg in geo.dep_map:
                dval = -dlist[pos] if neg else dlist[pos]
                if dval != 0.0:
                    ctx.add_through_jac(ip, in_, idx, dval)
        out_pos += 1
    for row in geo.eqs:
        ctx.add_res(row, values[out_pos])
        if want_jacobian:
            dlist = extras[out_pos]
            for idx, pos, neg in geo.dep_map:
                dval = -dlist[pos] if neg else dlist[pos]
                if dval != 0.0:
                    ctx.add_jac(row, idx, dval)
        out_pos += 1
    return True


def try_record(device, ctx):
    """Compiled ``BehavioralDevice.record``; None means use the interpreter."""
    eligible = _mode_state(device, ctx)
    if eligible is None:
        return None
    mode, state = eligible
    picked = _select_output(state, device, mode, ctx, want_jacobian=False)
    if picked is None:
        return None
    bound, _geo, (values, records) = picked
    kernels = bound.kernels
    outputs: dict[str, float] = {}
    for port_name, value in zip(kernels.contrib_ports, values):
        outputs[f"i({device.name}.{port_name})"] = float(value)
    for rec_name, value in zip(kernels.record_names, records):
        outputs[f"{rec_name}({device.name})"] = float(np.real(value))
    return outputs


# --------------------------------------------------------------------------- #
# stamp programs                                                              #
# --------------------------------------------------------------------------- #

def _device_stamp(device, ctx, out) -> None:
    device.stamp(ctx)


def _collide_stamp(device, ctx, out) -> None:
    registry.inc("hdl.fallback.collide")
    device.stamp(ctx)


def _device_record(device, ctx, out) -> None:
    for key, value in device.record(ctx).items():
        out[key] = float(value)


class StampProgram:
    """One MNA system's stamps for one ``(mode, task)``, in device order.

    ``entries`` holds one ``(fn, args, device)`` per device.  A behavioral
    device with a compiled variant gets the variant's shared stamp function
    (:func:`~.codegen.bind_stamp`) and its bound arguments; every other
    device keeps a per-device call (``args`` None): ``device.stamp`` /
    ``device.record``, or -- for colliding Jacobian leaves -- a counted
    ``device.stamp``.  Further variants of a device wait in ``alternates``
    and are tried when the current one's guards miss.  A stamp function
    that does not return True hands the device to its per-device path,
    which keeps the retrace budget and the interpreter; the program is then
    ``stale`` and rebuilt before the next run, picking up new variants.
    """

    __slots__ = ("mode", "task", "entries", "alternates", "stale")

    def __init__(self, system, ctx, mode: str, task: str) -> None:
        self.mode, self.task = mode, task
        self.entries: list[tuple] = []
        self.alternates: dict[str, list[tuple]] = {}
        self.stale = False
        per_device = _device_record if task == "record" else _device_stamp
        for device in system.circuit:
            bounds = None
            if device.compiled_stamps:
                state = state_for(device)
                if mode not in state.disabled:
                    bounds = state.variants.get(mode)
                    # Untraced: the per-device path traces on this run.
                    self.stale = self.stale or bounds is None
            if not bounds:
                self.entries.append((per_device, None, device))
                continue
            geos = [_geometry(device, bound, ctx) for bound in bounds]
            if task == "jac" and any(geo.collide for geo in geos):
                self.entries.append((_collide_stamp, None, device))
                continue
            fns = [codegen.bind_stamp(bound.kernels, task, geo, device,
                                      bound.keys)
                   for bound, geo in zip(bounds, geos)]
            self.entries.append((*fns[0], device))
            if len(fns) > 1:
                self.alternates[device.name] = fns[1:]

    def run(self, ctx, out, jac) -> None:
        """Stamp (or record into ``out``) every device of the assembly."""
        x = ctx.x.tolist()
        st = _integrator_frame(ctx.integrator) if self.mode == "tran" else None
        for entry in self.entries:
            fn, args, device = entry
            if args is None:
                fn(device, ctx, out)
                continue
            try:
                done = fn(ctx, x, out, jac, st, args)
            except _ARITH:
                # The per-device path meets the same arithmetic and lets
                # the interpreter raise (or survive) it.
                done = _ARITH
            if done is not True:
                self._fallback(entry, done, ctx, x, out, jac, st)

    def _fallback(self, entry, done, ctx, x, out, jac, st) -> None:
        """A stamp function did not finish: on a guard miss try the
        device's other variants, else run its per-device path."""
        fn, args, device = entry
        if done is None:
            alternates = self.alternates.get(device.name, [])
            for i, (alt_fn, alt_args) in enumerate(alternates):
                try:
                    done = alt_fn(ctx, x, out, jac, st, alt_args)
                except _ARITH:
                    done = _ARITH
                if done is True:
                    # Promote the variant that holds now.
                    alternates[i] = (fn, args)
                    self.entries[self.entries.index(entry)] = \
                        (alt_fn, alt_args, device)
                    return
                if done is not None:
                    break
            else:
                # Every variant missed: the per-device path retraces.
                self.stale = True
        if done is False:
            registry.inc("hdl.fallback.param")
        if self.task == "record":
            _device_record(device, ctx, out)
        else:
            device.stamp(ctx)


def _integrator_frame(integrator) -> tuple:
    """Per-assembly integrator state of transient stamp functions: the
    inlined ``Integrator.differentiate``/``integrate`` read it (names in
    :data:`.codegen._FRAME`)."""
    h = integrator.h
    be = integrator.method == Integrator.BACKWARD_EULER
    return (h, be, 1.0 / h if be else 2.0 / h, h if be else 0.5 * h,
            integrator._values, integrator._derivs, integrator._integrals,
            integrator._pending_values, integrator._pending_derivs,
            integrator._pending_integrals)


def _program(system, ctx, task: str) -> StampProgram | None:
    """The system's program for this assembly, or None when the assembly
    needs the per-device path (checked once here instead of per device)."""
    if not _scalar_eligible(ctx):
        return None
    integrator = ctx.integrator
    if ctx.analysis == "tran":
        if integrator is None or integrator.priming or integrator.h <= 0.0:
            return None
        mode = "tran"
    elif ctx.is_dc:
        mode = "op"
    else:
        return None
    if task == "jac" and ctx.use_sparse:
        # Sparse assemblies accumulate COO triplets through ctx.add_jac.
        registry.inc("hdl.fallback.sparse")
        return None
    programs = system.stamp_programs
    program = programs.get((mode, task))
    if program is None or program.stale:
        program = programs[(mode, task)] = StampProgram(system, ctx, mode,
                                                        task)
    return program


def run_stamps(system, ctx) -> None:
    """Stamp every device of a system holding behavioral devices.

    Runs the system's program when the assembly qualifies, else each
    device's ``stamp``; with telemetry on, the whole pass is one
    ``hdl.kernel.eval_s`` observation.
    """
    t0 = perf_counter() if telemetry.enabled() else None
    want_jacobian = ctx.want_jacobian
    program = _program(system, ctx, "jac" if want_jacobian else "value")
    if program is None:
        for device in system.circuit:
            device.stamp(ctx)
    else:
        program.run(ctx, ctx.res, ctx.jac.reshape(-1) if want_jacobian
                    else None)
    if t0 is not None:
        registry.observe("hdl.kernel.eval_s", perf_counter() - t0)


def record_outputs(system, ctx, out: dict) -> None:
    """Record every device's outputs into ``out``, through the system's
    record program when the context qualifies."""
    program = _program(system, ctx, "record")
    if program is None:
        for device in system.circuit:
            _device_record(device, ctx, out)
    else:
        program.run(ctx, out, None)


# --------------------------------------------------------------------------- #
# batched (lane-vectorized) path                                              #
# --------------------------------------------------------------------------- #

def _batch_bound(device, state: CompileState):
    """The single guard-free op variant, or None if the device is not
    batch-vectorizable."""
    if "op" in state.disabled:
        return None
    variants = state.variants.get("op")
    if variants is None and not state.probed:
        # Origin probe: trace the op-mode behaviour at the all-zero point so
        # batch eligibility is known before any solve runs.
        state.probed = True
        _retrace(device, state, "op", None)
        variants = state.variants.get("op")
    if not variants or len(variants) != 1:
        return None
    bound = variants[0]
    if bound.kernels.guarded or bound.kernels.vector() is None:
        return None
    return bound


def batch_ready(device, options=None) -> bool:
    """Whether the device can stamp a whole ``BatchStampContext`` at once."""
    if _interp_forced():
        return False
    if options is not None and not compilation_enabled(options):
        return False
    return _batch_bound(device, state_for(device)) is not None


def try_stamp_batch(device, ctx: BatchStampContext) -> bool:
    """Stamp every lane of a batch context with one vector-kernel call."""
    if not _ctx_enabled(ctx):
        return False
    bound = _batch_bound(device, state_for(device))
    if bound is None:
        return False
    kernels = bound.kernels
    try:
        inputs = _gather_nodes(device, bound, ctx)
    except _ParamFallback:
        # Swept (B,) parameter columns: re-fetch allowing arrays.
        inputs = []
        for tag, a, b in bound.plan:
            if tag in ("b", "d"):
                value = getattr(a, b) if tag == "b" else device.params[a]
                if isinstance(value, np.ndarray):
                    inputs.append(np.asarray(value, dtype=float))
                elif isinstance(value, (bool, Dual)) \
                        or not isinstance(value, numbers.Real):
                    return False
                else:
                    inputs.append(float(value))
            elif tag == "a":
                inputs.append(ctx.across(a) - ctx.across(b))
            elif tag == "u":
                inputs.append(ctx.aux_value(device, a))
            elif tag == "c":
                inputs.append(a)
            else:
                inputs.append(ctx.time)
    values, derivs = kernels.vector()(ctx, bound.keys, *inputs)
    geo = _geometry(device, bound, ctx)
    # Stamp in the serial (output, dependency) order so same-cell Jacobian
    # accumulations sum in the same sequence as the scalar path.  Per-lane
    # zero derivatives are added as zeros rather than skipped -- dense batch
    # accumulation tolerates that (the scalar path's ``!= 0.0`` skip only
    # avoids no-op adds).
    out_pos = 0
    for ip, in_ in geo.contribs:
        ctx.add_through(ip, in_, values[out_pos])
        if ctx.want_jacobian:
            dlist = derivs[out_pos]
            for idx in geo.deps:
                dval = _dep_value(geo.entries, idx, dlist)
                if dval is not None and np.ndim(dval) == 0 and dval == 0.0:
                    continue
                ctx.add_through_jac(ip, in_, idx, dval)
        out_pos += 1
    for row in geo.eqs:
        ctx.add_res(row, values[out_pos])
        if ctx.want_jacobian:
            dlist = derivs[out_pos]
            for idx in geo.deps:
                dval = _dep_value(geo.entries, idx, dlist)
                if dval is not None and np.ndim(dval) == 0 and dval == 0.0:
                    continue
                ctx.add_jac(row, idx, dval)
        out_pos += 1
    return True


# --------------------------------------------------------------------------- #
# dF/dp                                                                       #
# --------------------------------------------------------------------------- #

def parameter_gradients(device, ctx, parameter_names=None):
    """Compiled ``dF/dp``: instantaneous partials of the device's residual
    outputs with respect to its parameters, at the context's state.

    Returns ``{output_name: {param: value}}`` with contribution outputs named
    by port and equation outputs by unknown, or ``None`` when the device has
    no applicable compiled variant (guards missed, mode disabled, compile
    off).  Matches the dual-seeding contract of the sensitivity layer: state
    operators contribute ``coefficient * dp`` through the active
    discretization and baked initial values are parameter-independent.
    """
    if not _scalar_eligible(ctx):
        return None
    state = state_for(device)
    mode = "tran" if ctx.is_transient else "op"
    if mode in state.disabled:
        return None
    bounds = state.variants.get(mode)
    if bounds is None:
        _retrace(device, state, mode, ctx)
        bounds = state.variants.get(mode)
        if bounds is None:
            return None
    for bound in bounds:
        try:
            inputs = _gather_nodes(device, bound, ctx)
        except _ParamFallback:
            return None
        kernels = bound.kernels
        names = parameter_names
        if names is None:
            names = kernels.param_inputs
        try:
            out = kernels.dfdp()(ctx, bound.keys, *inputs)
        except _ARITH:
            return None
        if out is None:
            continue
        values, derivs = out
        output_names = kernels.contrib_ports + kernels.eq_names
        result: dict[str, dict[str, float]] = {}
        for out_pos, output in enumerate(output_names):
            row = {}
            for k, param in enumerate(kernels.param_inputs):
                if param in names:
                    row[param] = derivs[out_pos][k]
            result[output] = row
        return result
    return None
