"""Concolic tracing of behavioral models into the typed IR.

A behavioral model (a Python closure or an elaborated HDL ``_Interpreter``)
runs once with :class:`Tracer` objects in place of its numeric inputs; the
ordinary arithmetic the model performs builds the IR as a side effect while
concrete values ride along to decide data-dependent branches.  The result is
a :class:`TracedVariant`: the model's contributions/equations/records as IR
expressions, plus the *guards* -- comparisons whose boolean outcome the
model branched on.  A compiled kernel is only valid while its guards keep
evaluating to the traced outcomes; a mismatch triggers a re-trace (a new
variant) or the interpreter fallback.

Design constraints that make the trace trustworthy:

* Branches on traced comparisons -- a Python ``if`` in a closure, an HDL
  ``IF`` or ``limit`` bound check (``Tracer`` has no ``value`` attribute,
  so HDL operators compare the tracer itself) -- return a
  :class:`TraceBool` whose ``__bool__`` records a guard.
* Anything the tracer cannot follow (``float()``/``int()`` conversions such
  as ``table1d``'s segment search, unsupported operators, foreign AD duals)
  raises :class:`TraceError` and the mode permanently falls back to the
  interpreter.
"""

from __future__ import annotations

import numbers

import numpy as np

from ...circuit.devices.behavioral import BehaviorContext
from ...telemetry import registry
from . import ir

__all__ = ["TraceError", "Tracer", "TraceBool", "Trace", "TracedVariant",
           "trace_behavior"]


class TraceError(Exception):
    """The behavior performed an operation the tracer cannot follow."""


class Trace:
    """Mutable recording state shared by every tracer of one trace run."""

    def __init__(self) -> None:
        self.builder = ir.IRBuilder()
        #: ``(Compare, outcome)`` pairs in the order the model branched.
        self.guards: list[tuple[ir.Compare, bool]] = []
        #: Defaults seen through ``ctx.param(name, default)``.
        self.param_defaults: dict[str, float] = {}

    def as_node(self, value) -> tuple[ir.Node, float]:
        """IR node + concrete value of a traced or plain numeric value."""
        if isinstance(value, Tracer):
            return value._ir, value._concrete
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TraceError(f"cannot trace value of type {type(value).__name__}")
        plain = float(value)
        return self.builder.const(plain), plain

    def tracer(self, node: ir.Node, concrete: float) -> "Tracer":
        return Tracer(self, node, float(concrete))

    def guard(self, compare: ir.Compare, outcome: bool) -> bool:
        self.guards.append((compare, bool(outcome)))
        return bool(outcome)


_COMPARE_EVAL = {
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b, "!=": lambda a, b: a != b,
}


class TraceBool:
    """Deferred comparison result: concretizing it records a trace guard."""

    __slots__ = ("_trace", "_compare", "_outcome")

    def __init__(self, trace: Trace, compare: ir.Compare, outcome: bool) -> None:
        self._trace = trace
        self._compare = compare
        self._outcome = bool(outcome)

    def __bool__(self) -> bool:
        return self._trace.guard(self._compare, self._outcome)

    def _repro_where_(self, a, b):
        """Hook for :func:`repro.ad.functions.where`: a runtime Select."""
        trace = self._trace
        na, ca = trace.as_node(a)
        nb, cb = trace.as_node(b)
        return trace.tracer(trace.builder.select(self._compare, na, nb),
                            ca if self._outcome else cb)


class Tracer:
    """A symbolic float: arithmetic builds IR, a concrete value rides along.

    The concrete part mirrors what the interpreter would compute and only
    steers trace-time decisions (guard outcomes, selected branches); the
    kernels re-derive every number from the IR at run time.
    """

    __slots__ = ("_trace", "_ir", "_concrete")
    #: Duck-typing marker for the ``repro.ad.functions`` dispatch hooks.
    _repro_tracer_ = True
    __array_priority__ = 120.0  # beat numpy scalars to the operator

    def __init__(self, trace: Trace, node: ir.Node, concrete: float) -> None:
        self._trace = trace
        self._ir = node
        self._concrete = concrete

    # ------------------------------------------------------------- conversions
    def __float__(self) -> float:
        raise TraceError(
            "behavior concretized a traced value with float(); the model is "
            "not traceable (data-dependent structure)")

    __int__ = __index__ = __complex__ = __float__

    def __bool__(self) -> bool:
        # ``if expr:`` on a traced value -- mirror Dual.__bool__ (value != 0)
        # as a recorded guard.
        compare = self._trace.builder.compare(
            "!=", self._ir, self._trace.builder.const(0.0))
        return self._trace.guard(compare, self._concrete != 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tracer({self._ir!r}, ~{self._concrete!r})"

    # -------------------------------------------------------------- arithmetic
    def _coerce(self, other) -> tuple[ir.Node, float] | None:
        if isinstance(other, Tracer):
            if other._trace is not self._trace:
                raise TraceError("mixed tracers from different trace runs")
            return other._ir, other._concrete
        if isinstance(other, bool):
            return None
        if isinstance(other, numbers.Real):
            plain = float(other)
            return self._trace.builder.const(plain), plain
        return None

    def _binary(self, op: str, other, swapped: bool = False):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        node, concrete = pair
        if swapped:
            a, b = node, self._ir
            ca, cb = concrete, self._concrete
        else:
            a, b = self._ir, node
            ca, cb = self._concrete, concrete
        return self._trace.tracer(self._trace.builder.binary(op, a, b),
                                  ir._fold_binary(op, ca, cb))

    def __add__(self, other):
        return self._binary("+", other)

    def __radd__(self, other):
        # Dual.__radd__ is Dual.__add__ (self + other); mirror that order.
        return self._binary("+", other)

    def __sub__(self, other):
        return self._binary("-", other)

    def __rsub__(self, other):
        return self._binary("-", other, swapped=True)

    def __mul__(self, other):
        return self._binary("*", other)

    def __rmul__(self, other):
        # Dual.__rmul__ is Dual.__mul__; value/deriv formulas commute exactly.
        return self._binary("*", other)

    def __truediv__(self, other):
        return self._binary("/", other)

    def __rtruediv__(self, other):
        return self._binary("/", other, swapped=True)

    def __pow__(self, other):
        if isinstance(other, numbers.Real) and not isinstance(other, Tracer):
            exponent = float(other)
            if exponent == 0.0:
                # Dual ** 0.0 is exactly 1.0 with a zero derivative.
                return self._trace.tracer(self._trace.builder.const(1.0), 1.0)
        return self._binary("**", other)

    def __rpow__(self, other):
        return self._binary("**", other, swapped=True)

    def __neg__(self):
        return self._trace.tracer(self._trace.builder.unary("neg", self._ir),
                                  -self._concrete)

    def __pos__(self):
        return self._trace.tracer(self._trace.builder.unary("pos", self._ir),
                                  +self._concrete)

    def __abs__(self):
        # A dedicated Call node: codegen mirrors Dual.__abs__'s value branch
        # when the operand carries derivatives and plain fabs otherwise.
        return self._trace.tracer(self._trace.builder.call("abs", self._ir),
                                  abs(self._concrete))

    # ------------------------------------------------------------- comparisons
    def _compare(self, op: str, other) -> "TraceBool":
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        node, concrete = pair
        compare = self._trace.builder.compare(op, self._ir, node)
        outcome = _COMPARE_EVAL[op](self._concrete, concrete)
        return TraceBool(self._trace, compare, outcome)

    def __lt__(self, other):
        return self._compare("<", other)

    def __le__(self, other):
        return self._compare("<=", other)

    def __gt__(self, other):
        return self._compare(">", other)

    def __ge__(self, other):
        return self._compare(">=", other)

    def __eq__(self, other):
        result = self._compare("==", other)
        return NotImplemented if result is NotImplemented else result

    def __ne__(self, other):
        result = self._compare("!=", other)
        return NotImplemented if result is NotImplemented else result

    __hash__ = None  # tracers are not hashable (value equality is a guard)

    # --------------------------------------------------- ad.functions dispatch
    def _repro_unary_(self, name: str, fn) -> "Tracer":
        """Hook for :func:`repro.ad.functions._unary` (sqrt/exp/log/...)."""
        return self._trace.tracer(self._trace.builder.call(name, self._ir),
                                  fn(self._concrete))

    def _repro_minmax_(self, a, b, op: str) -> "Tracer":
        """Hook for ``minimum``/``maximum``: value-compare runtime Select."""
        trace = self._trace
        na, ca = trace.as_node(a)
        nb, cb = trace.as_node(b)
        compare = trace.builder.compare(op, na, nb)
        outcome = _COMPARE_EVAL[op](ca, cb)
        return trace.tracer(trace.builder.select(compare, na, nb),
                            ca if outcome else cb)

    def _repro_where_(self, a, b) -> "Tracer":
        """Hook for ``where`` with a traced (truthy-value) condition."""
        trace = self._trace
        compare = trace.builder.compare("!=", self._ir,
                                        trace.builder.const(0.0))
        na, ca = trace.as_node(a)
        nb, cb = trace.as_node(b)
        return trace.tracer(trace.builder.select(compare, na, nb),
                            ca if self._concrete != 0.0 else cb)


class TraceContext(BehaviorContext):
    """A :class:`BehaviorContext` whose inputs are tracers.

    ``stamp_ctx`` may be ``None`` (the *origin probe*: every across/unknown
    reads 0 and the state operators take their DC form); with a live context
    the concrete parts mirror the interpreter exactly and the state
    operators delegate their value arithmetic -- and pending-state
    bookkeeping -- to the real integrator (the interpreter stamp that
    follows a mid-solve trace rewrites identical pending values).
    """

    def __init__(self, device, mode: str, stamp_ctx, trace: Trace) -> None:
        super().__init__(device, mode, stamp_ctx=stamp_ctx, with_jacobian=False)
        self._trace = trace

    # ------------------------------------------------------------------ inputs
    @property
    def time(self):
        # Time must stay a runtime input -- baking the trace-time value
        # would freeze waveforms at one instant.
        concrete = 0.0 if self._stamp_ctx is None else self._stamp_ctx.time
        return self._trace.tracer(self._trace.builder.input("time", "t"),
                                  concrete)

    def across(self, port_name: str):
        port = self._device.port(port_name)
        if self._stamp_ctx is None:
            concrete = 0.0
        else:
            concrete = (self._stamp_ctx.across(port.p)
                        - self._stamp_ctx.across(port.n))
        return self._trace.tracer(
            self._trace.builder.input("across", port_name), concrete)

    def unknown(self, name: str):
        if name not in self._device.extra_unknowns:
            # Same validation/error as the interpreter path.
            super().unknown(name)
        if self._stamp_ctx is None:
            concrete = 0.0
        else:
            concrete = self._stamp_ctx.aux_value(self._device, name)
        return self._trace.tracer(
            self._trace.builder.input("unknown", name), concrete)

    def param(self, name: str, default: float | None = None):
        concrete = super().param(name, default)
        if isinstance(concrete, Tracer):
            # A bound-attribute tracer was also mirrored into ``params``.
            return concrete
        if not isinstance(concrete, numbers.Real):
            raise TraceError(f"parameter {name!r} is not a plain number")
        if name not in self._device.params and default is not None:
            self._trace.param_defaults[name] = float(default)
        return self._trace.tracer(
            self._trace.builder.input("param", name), float(concrete))

    # ---------------------------------------------------------------- dynamics
    def ddt(self, expression, key: str | None = None):
        full_key = self._full_key(key, "ddt")
        node, concrete = self._trace.as_node(expression)
        if self._stamp_ctx is None:
            value = 0.0 * concrete
        else:
            value = self._stamp_ctx.ddt(full_key, concrete)
        return self._trace.tracer(
            self._trace.builder.ddt(node, full_key[1]), value)

    def integ(self, expression, key: str | None = None,
              initial: float | None = None):
        full_key = self._full_key(key, "integ")
        if initial is None:
            initial = self._device.state_initials.get(
                key if key is not None else full_key[1], 0.0)
        initial = float(initial)  # a traced initial raises TraceError
        node, concrete = self._trace.as_node(expression)
        if self._stamp_ctx is None:
            value = 0.0 * concrete + initial
        else:
            value = self._stamp_ctx.integ(full_key, concrete, initial=initial)
        return self._trace.tracer(
            self._trace.builder.integ(node, full_key[1], initial), value)

    # ----------------------------------------------------------------- outputs
    # contribute()/equation() are inherited: accumulating tracers with the
    # interpreter's own ``current + expression`` arithmetic records the
    # accumulation order in the IR for free.

    def record(self, name: str, expression) -> None:
        node, concrete = self._trace.as_node(expression)
        self.recorded[name] = float(np.real(concrete))
        self._record_ir = getattr(self, "_record_ir", {})
        self._record_ir[name] = node


class TracedVariant:
    """One successful trace of a behavioral model in one analysis mode."""

    __slots__ = ("mode", "builder", "guards", "contributions", "equations",
                 "records", "inputs", "param_defaults", "state_suffixes")

    def __init__(self, mode: str, builder: ir.IRBuilder,
                 guards, contributions, equations, records,
                 param_defaults) -> None:
        self.mode = mode
        self.builder = builder
        self.guards = list(guards)
        #: ``[(port_name, Node)]`` in contribution (stamp) order.
        self.contributions = list(contributions)
        #: ``[(unknown_name, Node)]`` in equation order.
        self.equations = list(equations)
        #: ``[(record_name, Node)]`` in record order.
        self.records = list(records)
        self.param_defaults = dict(param_defaults)
        roots = ([node for _, node in self.contributions]
                 + [node for _, node in self.equations]
                 + [node for _, node in self.records]
                 + [compare for compare, _ in self.guards])
        inputs: dict[tuple[str, str], ir.Input] = {}
        suffixes: list[str] = []
        for node in ir.walk(roots):
            if isinstance(node, ir.Input):
                inputs.setdefault((node.kind, node.name), node)
            elif isinstance(node, (ir.Ddt, ir.Integ)):
                if node.state not in suffixes:
                    suffixes.append(node.state)
        #: ``[(kind, name)]`` in first-use order -- the kernel input layout.
        self.inputs = tuple(inputs)
        #: State-key suffixes in first-use order (device name prepended at
        #: stamp time).
        self.state_suffixes = tuple(suffixes)

    def fingerprint_payload(self):
        """Canonical structural payload for process-wide kernel caching."""
        return (
            "behavioral-kernel/1", self.mode,
            tuple((kind, name) for kind, name in self.inputs),
            tuple((compare.key, outcome) for compare, outcome in self.guards),
            tuple((name, node.key) for name, node in self.contributions),
            tuple((name, node.key) for name, node in self.equations),
            tuple((name, node.key) for name, node in self.records),
            # Defaults are baked into the kernel inputs' gather plan, so two
            # behaviours differing only in a ``ctx.param`` default must not
            # share one kernel set.
            tuple(sorted(self.param_defaults.items())),
        )


def _install_param_tracers(device, trace: Trace):
    """Replace bound owner attributes with param tracers; return undo state.

    Behaviors that read tunable parameters from closure-captured objects
    (e.g. a transducer's geometry attributes) see leaf tracers, so those
    parameters stay *runtime inputs* of the kernel instead of baked
    constants -- one kernel serves every instance and campaign lane.
    """
    saved = []
    mirrored = []
    for name, (owner, attribute) in device.parameter_bindings.items():
        current = getattr(owner, attribute)
        if isinstance(current, bool) or not isinstance(current, numbers.Real):
            raise TraceError(
                f"bound parameter {name!r} is not a plain number")
        tracer = trace.tracer(trace.builder.input("param", name),
                              float(current))
        saved.append((owner, attribute, current))
        setattr(owner, attribute, tracer)
        if name in device.params:
            # ``ctx.param`` reads of the same generic must yield the same
            # leaf; TraceContext.param passes bound tracers through.
            mirrored.append((name, device.params[name]))
            device.params[name] = tracer
    return saved, mirrored


def _restore_param_tracers(device, undo) -> None:
    saved, mirrored = undo
    for owner, attribute, value in saved:
        setattr(owner, attribute, value)
    for name, value in mirrored:
        device.params[name] = value


def trace_behavior(device, mode: str, stamp_ctx=None) -> TracedVariant:
    """Run ``device.behavior`` once under the tracer and return the variant.

    Raises :class:`TraceError` (or any exception the behavior itself raises
    on traced inputs) when the model cannot be traced; callers treat every
    failure as "keep the interpreter".  Every call counts as
    ``hdl.trace.count``.
    """
    registry.inc("hdl.trace.count")
    trace = Trace()
    ctx = TraceContext(device, mode, stamp_ctx, trace)
    undo = _install_param_tracers(device, trace)
    try:
        device.behavior(ctx)
    finally:
        _restore_param_tracers(device, undo)
    contributions = [(name, trace.as_node(value)[0])
                     for name, value in ctx.contributions.items()]
    equations = [(name, trace.as_node(value)[0])
                 for name, value in ctx.equations.items()]
    records = [(name, node)
               for name, node in getattr(ctx, "_record_ir", {}).items()]
    return TracedVariant(mode, trace.builder, trace.guards, contributions,
                         equations, records, trace.param_defaults)
