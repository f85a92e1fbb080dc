"""Runtime integration of compiled behavioral code into MNA stamping.

This module owns the per-device compile state (traced variants, permanent
fallbacks) and the two ways compiled code stamps, both through stamp
functions of one printer (:func:`.codegen.bind_stamp`):

**Stamp programs**, the one scalar path.  A device list -- an MNA
system's circuit, or the per-lane devices of a batch plan -- assembles
through one :class:`StampProgram` per ``(mode, task)``: a flat list in
device order where built-in devices keep ``device.stamp`` and each
compiled behavioral device is one process-shared stamp function
(:func:`.codegen.bind_stamp`, generated from the IR with solution indices,
stamp rows, state keys and parameter owners as arguments) plus its bound
argument tuple.  The tasks are dense (``jac``) and sparse (``triplet``)
Jacobian assemblies, residual-only assemblies (``value``) and output
collection (``record``).  The checks that decide whether compiled code may
stamp at all -- exact :class:`StampContext`, no residual duals or
raw-state capture, compile enabled, not priming the integrator -- run once
per assembly in :func:`_program`.  Accumulation stays in device order, so
results are bitwise those of device-by-device stamping.

A behavioral device without a variant for the mode gets one while the
program is built, from the **trace memo** when it can: a process-wide map
from a device's *trace key* (:func:`_trace_key`) to the kernel sets traced
under it.  The key holds everything a trace can bake into the IR -- the
mode, a snapshot of the behaviour (its code, closure cells, defaults and
globals identity) and the device layout -- so a device of a known key binds
the memoized variants without running its behaviour, and a fresh array of
known behaviours traces nothing.  Parameter *values* are not in the key:
``ctx.param`` reads (HDL-A generics among them) and bound attributes trace
as kernel inputs.  The one assumption beyond that is that module globals
and class attributes a behaviour reads are constants for the process (they
already had to be constant for a device's lifetime, since its variants
persist).  A behaviour the key cannot snapshot -- one holding a list, dict,
array, HDL ``_Interpreter`` or a deep object graph -- is traced per device
against the live context, counted as ``hdl.trace.unkeyed``;
``hdl.trace.count`` counts the traces that run.

A guard miss tries the device's other variants; when every variant
misses, the model is re-traced against the live context and the new
variant joins the device's and its key's (each bounded by
:data:`MAX_VARIANTS`), *this* call is stamped by the interpreter -- the
trace already wrote the identical pending dynamic state, so the
interpreter's writes are idempotent -- and the program is rebuilt before
its next run.

Stamp functions differentiate with respect to the variant's
*across/unknown leaves* (circuit-independent, so they are shared
process-wide); each MNA dependency index maps to ``leaf * (+/-1)``.
Negation is exact in IEEE arithmetic, so compiled Jacobian stamps are
bitwise what the AD-dual interpreter produces.  When two leaves land on
one index (ports sharing a non-ground node) Jacobian stamps fall back to
the interpreter, whose in-dual summation order is not reconstructable from
per-leaf derivatives.

**The batched path** (:func:`try_stamp`, looked up by
``BehavioralDevice.stamp``) calls the device's ``"lanes"`` stamp function
once over the ``(B,)`` lanes of a :class:`BatchStampContext`: the same
gather plan and IR walk as the scalar tasks, printed over numpy arrays,
making the context's ``add_res``/``add_jac`` calls in device order.  It is
only offered for devices whose single operating-point variant traced
without guards (an HDL-A ``IF`` on a generic is a guard) and whose
parameters are floats, ``(B,)`` columns or widenable numbers
(:func:`batch_ready`), which is what lets behavioral devices skip the
per-lane programs in campaign batches.

Every silent fallback to the interpreter bumps a registry counter
``hdl.fallback.<reason>``: ``collide`` (colliding leaves), ``param`` (a
parameter that is not a real number), ``guard_miss``, ``disabled`` (an
untraceable mode) and ``arith`` (an arithmetic error the interpreter
re-raises).  ``SimulationOptions(behavioral_compile=False)`` forces the
interpreter.
"""

from __future__ import annotations

import types
from time import perf_counter

import numpy as np

from ... import telemetry
from ...circuit.mna import BatchStampContext, Integrator, StampContext
from ...telemetry import registry
from . import codegen, passes
from .trace import TraceError, trace_behavior

__all__ = ["MAX_VARIANTS", "CompileState", "StampProgram", "state_for",
           "try_stamp", "stamp_devices", "run_stamps", "record_outputs",
           "batch_ready", "cache_info", "clear_cache"]

#: Variant budget per (device, mode) and per trace key: a device that
#: misses the guards of this many variants permanently falls back to the
#: interpreter in that mode.
MAX_VARIANTS = 8


class CompileState:
    """Per-device compile bookkeeping (variants per mode, fallbacks)."""

    __slots__ = ("variants", "disabled", "probed")

    def __init__(self) -> None:
        self.variants: dict[str, list[_BoundVariant]] = {}
        self.disabled: set[str] = set()
        self.probed = False


def state_for(device) -> CompileState:
    state = getattr(device, "_compile_state", None)
    if state is None:
        state = device._compile_state = CompileState()
    return state


#: Arithmetic errors compiled code shares with the interpreter.
_ARITH = (ZeroDivisionError, OverflowError, ValueError)


class _BoundVariant:
    """A process-shared :class:`~.codegen.KernelSet` bound to one device.

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

    ``dep_map`` holds one ``(dependency index, leaves)`` pair per
    dependency that a leaf feeds, in the interpreter's dependency order;
    ``leaves`` are its ``(leaf position, negate)`` pairs in leaf order.
    Scalar Jacobian stamps need exactly one leaf per dependency
    (``collide`` is False); the ``"lanes"`` task sums colliding leaves.
    ``plan`` is the bound gather plan with across/unknown sources resolved
    to solution-vector indices (-1 = ground), so stamp functions index the
    solution directly.  ``lanes`` caches the bound ``"lanes"`` stamp
    function of :func:`try_stamp`.
    """

    __slots__ = ("system", "size", "collide", "dep_map", "contribs", "eqs",
                 "plan", "lanes")

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
        leaves: dict[int, list[tuple[int, bool]]] = {}
        for pos, (kind, name) in enumerate(kernels.diff_inputs):
            if kind == "across":
                port = device.port(name)
                for node, negate in ((port.p, False), (port.n, True)):
                    idx = ctx.node_index(node)
                    if idx >= 0:
                        leaves.setdefault(idx, []).append((pos, negate))
            else:
                idx = ctx.aux_index(device, name)
                leaves.setdefault(idx, []).append((pos, False))
        self.collide = any(len(pairs) > 1 for pairs in leaves.values())
        self.dep_map = tuple(
            (idx, tuple(leaves[idx]))
            for idx in device._dependency_indices(ctx.node_index,
                                                  ctx.aux_index)
            if idx in leaves)
        self.contribs = tuple(
            (ctx.node_index(device.port(name).p),
             ctx.node_index(device.port(name).n))
            for name in kernels.contrib_ports)
        self.eqs = tuple(ctx.aux_index(device, name)
                         for name in kernels.eq_names)
        self.lanes = None


def _geometry(device, bound: _BoundVariant, ctx) -> _Geometry:
    geo = bound.geometry
    if geo is None or geo.system is not ctx.system:
        geo = bound.geometry = _Geometry(device, bound, ctx)
    return geo


# --------------------------------------------------------------------------- #
# trace memo                                                                  #
# --------------------------------------------------------------------------- #

#: Process-wide trace outcomes: trace key -> the kernel sets traced under
#: it (first = primary), or None when its first trace was untraceable.
#: Bounded like the compiler's tables (:func:`.codegen.remember`).
_MEMO: dict[tuple, list[codegen.KernelSet] | None] = {}
_UNSEEN = object()

#: Deepest object graph a behaviour snapshot follows; past it (or at a
#: list, dict, array or other mutable or opaque value) a device is unkeyed.
_SNAPSHOT_DEPTH = 6


class _Unkeyable(Exception):
    """The behaviour holds state a trace key cannot capture."""


class _Same:
    """An identity key that keeps its object alive, so the memo never
    meets a recycled ``id``."""

    __slots__ = ("obj",)

    def __init__(self, obj) -> None:
        self.obj = obj

    def __hash__(self) -> int:
        return id(self.obj)

    def __eq__(self, other) -> bool:
        return type(other) is _Same and other.obj is self.obj


_ATOMS = frozenset({int, bool, str, bytes, type(None)})


class _Plain:
    pass


#: Layout of a class statement's instance without ``__slots__``.
_PLAIN_LAYOUT = (_Plain.__basicsize__, _Plain.__itemsize__,
                 _Plain.__dictoffset__)


def _is_plain(kind: type) -> bool:
    """Whether ``kind``'s instances hold all their state in ``__dict__``
    (no C-level fields, no slots)."""
    return ((kind.__basicsize__, kind.__itemsize__,
             kind.__dictoffset__) == _PLAIN_LAYOUT
            and not any(vars(cls).get("__slots__") for cls in kind.__mro__))


def _snapshot(value, depth: int, bound: dict, reached: set):
    """The key of one value a behaviour can read (see :func:`_trace_key`);
    ``bound`` maps ``id(owner)`` to its bound attributes, and owners met
    are added to ``reached``."""
    kind = type(value)
    if isinstance(value, float):
        return kind, float.hex(value)
    if kind in _ATOMS:
        return kind, value
    if depth > _SNAPSHOT_DEPTH:
        raise _Unkeyable
    depth += 1
    if isinstance(value, tuple):
        return ("tuple", kind,
                tuple(_snapshot(item, depth, bound, reached)
                      for item in value))
    if kind is types.FunctionType:
        cells = []
        for cell in value.__closure__ or ():
            try:
                contents = cell.cell_contents
            except ValueError:
                cells.append(("empty",))
            else:
                cells.append(_snapshot(contents, depth, bound, reached))
        kwdefaults = value.__kwdefaults__ or {}
        return ("fn", value.__code__, tuple(cells),
                _snapshot(value.__defaults__, depth, bound, reached),
                tuple((name, _snapshot(item, depth, bound, reached))
                      for name, item in kwdefaults.items()),
                _Same(value.__globals__))
    if isinstance(value, (type, types.ModuleType)) or (
            kind is types.BuiltinFunctionType
            and isinstance(value.__self__, (types.ModuleType, type(None)))):
        return "is", _Same(value)
    if not _is_plain(kind):
        raise _Unkeyable
    owned = bound.get(id(value))
    if owned is not None:
        reached.add(id(value))
    items = []
    for name, item in vars(value).items():
        if owned is not None and name in owned:
            # Traced as a parameter input: only its type shapes the trace.
            items.append((name, "bound", owned[name], type(item)))
        else:
            items.append((name, _snapshot(item, depth, bound, reached)))
    return "obj", kind, tuple(items)


def _trace_key(device, mode: str) -> tuple | None:
    """Everything a trace of ``device`` in ``mode`` can bake into the IR,
    or None when the behaviour cannot be snapshotted.

    The key is the mode, a snapshot of the behaviour -- code object,
    closure cells, defaults and the identity of its globals; floats by type
    and ``float.hex`` (so ``-0.0``, ``0.0``, ``1`` and ``True`` differ),
    tuples element by element, nested functions recursively, modules,
    classes and builtins by identity, a plain object by its type and
    ``__dict__`` with bound parameter attributes by type only -- and the
    device layout: port names, extra unknowns, parameter names with their
    value types, parameter bindings and state initial values.
    """
    bound: dict[int, dict[str, str]] = {}
    for generic, (owner, attribute) in device.parameter_bindings.items():
        bound.setdefault(id(owner), {})[attribute] = generic
    reached: set[int] = set()
    behavior = device.behavior
    if type(behavior) is not types.FunctionType:
        return None
    try:
        snapshot = _snapshot(behavior, 0, bound, reached)
        initials = tuple((name, _snapshot(value, 0, bound, reached))
                         for name, value in device.state_initials.items())
    except _Unkeyable:
        return None
    if len(reached) != len(bound):
        # An owner the snapshot never met: whether the behaviour reads its
        # attribute as an input or a constant is not in the key.
        return None
    return (mode, snapshot, tuple(device._ports), device.extra_unknowns,
            tuple((name, type(value)) for name, value
                  in device.params.items()),
            tuple((generic, attribute, type(getattr(owner, attribute)))
                  for generic, (owner, attribute)
                  in device.parameter_bindings.items()),
            initials)


def _retrace(device, state: CompileState, mode: str, stamp_ctx) -> None:
    """Give the device a fresh variant for ``mode`` (or permanently disable
    the mode).

    A device without variants for the mode first looks its trace key up in
    the memo: a hit binds the key's kernel sets (the first one primary, the
    rest alternates) without running the behaviour -- counted as
    ``hdl.compile.cache_hits``, one per kernel set served -- and a key whose
    first trace was untraceable disables the mode at once.  Otherwise the
    behaviour is traced against ``stamp_ctx``; the outcome of a key's first
    trace is memoized, and a later trace (a device whose variants all
    missed their guards) adds its kernel set to the key, at most
    :data:`MAX_VARIANTS` per key as per device.
    """
    variants = state.variants.get(mode, [])
    if len(variants) >= MAX_VARIANTS:
        state.disabled.add(mode)
        return
    key = _trace_key(device, mode)
    if key is None:
        registry.inc("hdl.trace.unkeyed")
    known = _MEMO.get(key, _UNSEEN)
    if known is not _UNSEEN and not variants:
        if known is None:
            state.disabled.add(mode)
            return
        registry.inc("hdl.compile.cache_hits", len(known))
        state.variants[mode] = [_BoundVariant(device, kernels)
                                for kernels in known]
        return
    try:
        kernels = codegen.compile_variant(passes.simplify_variant(
            trace_behavior(device, mode, stamp_ctx)))
    except TraceError:
        # The tracer cannot follow the model (float() concretization as in
        # table1d, foreign duals): the interpreter owns this mode from now
        # on, for every device of the key.
        if key is not None and known is _UNSEEN:
            codegen.remember(_MEMO, key, None)
        state.disabled.add(mode)
        return
    except Exception:
        # An error the behaviour raised on the traced values depends on
        # the point traced: only this device falls back.
        state.disabled.add(mode)
        return
    if set(device.extra_unknowns) - set(kernels.eq_names):
        # Declared unknowns without equations: leave the mode to the
        # interpreter, which raises the properly-worded DeviceError.
        state.disabled.add(mode)
        return
    if key is not None:
        if known is _UNSEEN:
            codegen.remember(_MEMO, key, [kernels])
        elif known is not None and kernels not in known \
                and len(known) < MAX_VARIANTS:
            known.append(kernels)
    state.variants.setdefault(mode, []).append(_BoundVariant(device, kernels))


def cache_info() -> dict[str, int]:
    """Size of the process-wide caches (for tests/diagnostics): the
    compiler's ``kernels`` and ``stamp_functions``
    (:func:`.codegen.cache_info`) and ``traces``, the trace-memo keys."""
    return {**codegen.cache_info(), "traces": len(_MEMO)}


def clear_cache() -> None:
    """Drop every cached kernel, stamp function and memoized trace (tests
    only)."""
    codegen.clear_cache()
    _MEMO.clear()


# --------------------------------------------------------------------------- #
# stamp programs                                                              #
# --------------------------------------------------------------------------- #

def _device_stamp(device, ctx, out) -> None:
    device.stamp(ctx)


def _device_record(device, ctx, out) -> None:
    for key, value in device.record(ctx).items():
        out[key] = float(value)


def _counted(reason: str, per_device):
    """``per_device`` counted as an ``hdl.fallback.<reason>``."""
    counter = f"hdl.fallback.{reason}"

    def run(device, ctx, out) -> None:
        registry.inc(counter)
        per_device(device, ctx, out)
    return run


class StampProgram:
    """The stamps of a device list for one ``(mode, task)``, in order.

    ``entries`` holds one ``(fn, args, device)`` per device.  A behavioral
    device with a compiled variant gets the variant's shared stamp function
    (:func:`~.codegen.bind_stamp`) and its bound arguments; every other
    device keeps a per-device call (``args`` None): ``device.stamp`` /
    ``device.record``, counted when a behavioral device's mode is
    untraceable or its Jacobian leaves collide.  A device without a variant
    is traced against the building context first.  Further variants of a
    device wait in ``alternates`` and are tried when the current one's
    guards miss.  A stamp function that does not return True hands this
    call to the interpreter; when every variant missed, the device is
    re-traced and the program is ``stale``, rebuilt before the next run
    with the new variant.
    """

    __slots__ = ("mode", "task", "entries", "alternates", "stale")

    def __init__(self, devices, ctx, mode: str, task: str) -> None:
        self.mode, self.task = mode, task
        self.entries: list[tuple] = []
        self.alternates: dict[str, list[tuple]] = {}
        self.stale = False
        per_device = _device_record if task == "record" else _device_stamp
        for device in devices:
            if not device.compiled_stamps:
                self.entries.append((per_device, None, device))
                continue
            state = state_for(device)
            if mode not in state.disabled and mode not in state.variants:
                _retrace(device, state, mode, ctx)
            if mode in state.disabled:
                self.entries.append(
                    (_counted("disabled", per_device), None, device))
                continue
            bounds = state.variants[mode]
            geos = [_geometry(device, bound, ctx) for bound in bounds]
            if task in ("jac", "triplet") and any(geo.collide
                                                  for geo in geos):
                self.entries.append(
                    (_counted("collide", per_device), None, device))
                continue
            fns = [codegen.bind_stamp(bound.kernels, task, geo, device,
                                      bound.keys)
                   for bound, geo in zip(bounds, geos)]
            self.entries.append((*fns[0], device))
            if len(fns) > 1:
                self.alternates[device.name] = fns[1:]

    def run(self, ctx, out) -> None:
        """Stamp (or record into ``out``) every device of the assembly.

        Stamp functions read the context's ``x_list`` and accumulate
        straight into its storage: ``out`` is its residual list, and the
        ``"jac"`` task writes its flat dense Jacobian (a list, or an
        ndarray for large systems), ``"triplet"`` its triplet lists (see
        :class:`~repro.circuit.mna.StampContext`).
        """
        task = self.task
        if task == "jac":
            jac = ctx._jac
        elif task == "triplet":
            jac = (ctx._jac_rows, ctx._jac_cols, ctx._jac_vals)
        else:
            jac = None
        x = ctx.x_list
        st = _integrator_frame(ctx.integrator) if self.mode == "tran" else None
        for entry in self.entries:
            fn, args, device = entry
            if args is None:
                fn(device, ctx, out)
                continue
            try:
                done = fn(ctx, x, out, jac, st, args)
            except _ARITH:
                done = _ARITH
            if done is not True:
                self._fallback(entry, done, ctx, x, out, jac, st)

    def _fallback(self, entry, done, ctx, x, out, jac, st) -> None:
        """A stamp function did not finish: on a guard miss try the
        device's other variants, else stamp this call interpreted."""
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
                registry.inc("hdl.fallback.guard_miss")
                _retrace(device, state_for(device), self.mode, ctx)
                self.stale = True
        if done is False:
            registry.inc("hdl.fallback.param")
        elif done is _ARITH:
            # The interpreter performs the same arithmetic; let it raise
            # the properly-worded error (or survive, for dual-order edges).
            registry.inc("hdl.fallback.arith")
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


def _program(programs: dict, devices, ctx,
             record: bool = False) -> StampProgram | None:
    """The program of ``devices`` for this assembly (cached in
    ``programs``), or None when the assembly runs device by device: the
    interpreter, for contexts compiled code must not take."""
    if type(ctx) is not StampContext:
        # Batch and sensitivity-seeded subclasses have their own contracts.
        return None
    if ctx.keep_residual_duals or not ctx.options.behavioral_compile:
        return None
    integrator = ctx.integrator
    if integrator is not None and integrator.capture_raw:
        # Raw-state capture must store the AD duals themselves.
        return None
    if ctx.analysis == "tran":
        # Priming registers the t0 state: one interpreted assembly per run.
        if integrator is None or integrator.priming or integrator.h <= 0.0:
            return None
        mode = "tran"
    elif ctx.is_dc:
        mode = "op"
    else:
        return None
    if record:
        task = "record"
    elif not ctx.want_jacobian:
        task = "value"
    else:
        task = "triplet" if ctx.use_sparse else "jac"
    program = programs.get((mode, task))
    if program is None or program.stale:
        program = programs[(mode, task)] = StampProgram(devices, ctx, mode,
                                                        task)
    return program


def stamp_devices(programs: dict, devices, ctx) -> None:
    """Stamp ``devices`` into ``ctx`` through their program in
    ``programs`` when the assembly qualifies, else device by device."""
    program = _program(programs, devices, ctx)
    if program is None:
        for device in devices:
            device.stamp(ctx)
    else:
        program.run(ctx, ctx._res)


def run_stamps(system, ctx) -> None:
    """Stamp every device of a system holding behavioral devices; with
    telemetry on, the whole pass is one ``hdl.kernel.eval_s``
    observation."""
    t0 = perf_counter() if telemetry.enabled() else None
    stamp_devices(system.stamp_programs, system.circuit, ctx)
    if t0 is not None:
        registry.observe("hdl.kernel.eval_s", perf_counter() - t0)


def record_outputs(system, ctx, out: dict) -> None:
    """Record every device's outputs into ``out``, through the system's
    record program when the context qualifies."""
    program = _program(system.stamp_programs, system.circuit, ctx,
                       record=True)
    if program is None:
        for device in system.circuit:
            _device_record(device, ctx, out)
    else:
        program.run(ctx, out)


# --------------------------------------------------------------------------- #
# batched (lane-axis) path                                                    #
# --------------------------------------------------------------------------- #

def _batch_bound(device, state: CompileState):
    """The single guard-free op variant with a ``"lanes"`` stamp function,
    or None."""
    if "op" in state.disabled:
        return None
    variants = state.variants.get("op")
    if variants is None and not state.probed:
        # Origin probe: trace the op-mode behaviour at the all-zero point so
        # batch eligibility is known before any solve runs.
        state.probed = True
        _retrace(device, state, "op", None)
        variants = state.variants.get("op")
    if not variants or len(variants) != 1 or not variants[0].kernels.lanes:
        return None
    return variants[0]


def batch_ready(device, options=None) -> bool:
    """Whether the device can stamp a whole ``BatchStampContext`` at once:
    it has a ``"lanes"`` stamp function and every parameter it reads is a
    float, a ``(B,)`` column or a widenable number; otherwise it stamps
    per lane through its stamp program."""
    if options is not None and not options.behavioral_compile:
        return False
    bound = _batch_bound(device, state_for(device))
    return bound is not None and all(
        codegen.widen_lanes(getattr(a, b) if tag == "b"
                            else device.params[a]) is not None
        for tag, a, b in bound.plan if tag in ("b", "d"))


def try_stamp(device, ctx) -> bool:
    """Stamp every lane of a :class:`BatchStampContext` with one call of
    the device's ``"lanes"`` stamp function; False means the interpreter
    stamps.  Serial contexts always get False here: they reach compiled
    code through stamp programs only."""
    if not isinstance(ctx, BatchStampContext) \
            or not ctx.options.behavioral_compile:
        return False
    bound = _batch_bound(device, state_for(device))
    if bound is None:
        return False
    geo = _geometry(device, bound, ctx)
    if geo.lanes is None:
        geo.lanes = codegen.bind_stamp(bound.kernels, "lanes", geo, device,
                                       bound.keys)
    fn, args = geo.lanes
    with np.errstate(all="ignore"):
        return fn(ctx, ctx._x_pad, None, None, None, args) is True
