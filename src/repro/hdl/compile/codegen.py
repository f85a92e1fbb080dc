"""Code generation from the traced IR.

One printer, :func:`bind_stamp`, turns a :class:`~repro.hdl.compile.trace.
TracedVariant` into *stamp functions*: plain Python source ``exec``-compiled
once and cached process-wide, keyed by the traced kernels' content
fingerprint.  A stamp function is the input gather, the IR walk, and one
task's accumulation around it:

* ``jac`` (residual plus dense Jacobian), ``triplet`` (residual plus sparse
  COO triplets), ``value`` (residual only) and ``record`` (output
  collection) -- the scalar tasks of MNA assembly, with ``ddt``/``integ``
  lowered straight to the DC forms or to the integrator arithmetic and
  pending-state writes;
* ``lanes`` -- residual plus Jacobian over the ``(B,)`` lanes of a
  :class:`~repro.circuit.mna.BatchStampContext`: the same walk printed
  over numpy arrays, accumulated through ``ctx.add_res``/``ctx.add_jac``,
  for guard-free operating-point variants (:attr:`KernelSet.lanes`).

The walk mirrors the AD-dual interpreter *formula by formula* -- including
its own algebra quirks (division computes ``a * (1/b)``, ``d(a*b) = va*db +
vb*da`` in that order, subtrees free of seeded unknowns use plain float
arithmetic exactly as the interpreter's float/dual coercion does) -- and
the residual-only and record tasks mirror the interpreter's *float mode*
(``with_jacobian=False``), so compiled stamps are bit-identical to
interpreted ones.  Per-instance data are arguments, so one function serves
every device of one kernel and geometry shape.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from ...ad import Dual
from ...telemetry import registry
from . import ir

__all__ = ["KernelSet", "compile_variant", "bind_stamp", "widen_param",
           "widen_lanes", "cache_info", "clear_cache"]

#: Sentinel for a derivative that is exactly the seed (d(leaf)/d(leaf)).
_ONE = object()

#: ``dfn`` factor expressions mirroring :mod:`repro.ad.functions` (``{v}`` is
#: the argument value, ``{r}`` the function value).
_DFN = {
    "sqrt": "0.5 / {r}",
    "exp": "{r}",
    "log": "1.0 / {v}",
    "sin": "{m}.cos({v})",
    "cos": "-{m}.sin({v})",
    "tan": "1.0 + {r} * {r}",
    "sinh": "{m}.cosh({v})",
    "cosh": "{m}.sinh({v})",
    "tanh": "1.0 - {r} * {r}",
    "atan": "1.0 / (1.0 + {v} * {v})",
    "asin": "1.0 / {m}.sqrt(1.0 - {v} * {v})",
    "acos": "-1.0 / {m}.sqrt(1.0 - {v} * {v})",
}


def _literal(value: float) -> str:
    """Python source literal that round-trips the float exactly."""
    return repr(float(value))


class _Writer:
    """Shared machinery for one generated function."""

    def __init__(self, variant, flavor: str, state: str) -> None:
        self.variant = variant
        self.flavor = flavor
        #: How ``ddt``/``integ`` lower: ``"op"`` to the DC forms, ``"tran"``
        #: to the inlined integrator arithmetic.
        self.state = state
        self.lanes = flavor == "lanes"
        self.lines: list[str] = []
        self.names: dict[int, str] = {}
        self.serial = 0
        self.shared: dict[tuple, str] = {}
        self.dmemo: dict[tuple[int, int], object] = {}
        self.math = "np" if self.lanes else "math"
        # Seed leaves: the MNA unknowns the derivative pass differentiates
        # against (none in float mode).
        self.seeds = [(kind, name) for kind, name in variant.inputs
                      if flavor != "value" and kind in ("across", "unknown")]
        self.args = {pair: f"i{pos}" for pos, pair in enumerate(variant.inputs)}
        self.state_index = {suffix: pos for pos, suffix
                            in enumerate(variant.state_suffixes)}
        self.dual: dict[int, bool] = {}
        self.need_c0 = False
        self.need_ci = False

    # ------------------------------------------------------------ dual marking
    def is_dual(self, node: ir.Node) -> bool:
        """Whether the interpreter would carry an AD dual at this node.

        Mirrors dual/float coercion: a node is dual iff its value depends on
        a seeded leaf; ``sign`` strips duals.  Non-dual subtrees must use
        plain float arithmetic to stay bit-identical.
        """
        cached = self.dual.get(id(node))
        if cached is not None:
            return cached
        if isinstance(node, ir.Input):
            result = (node.kind, node.name) in self.seeds
        elif isinstance(node, ir.Const):
            result = False
        elif isinstance(node, ir.Call) and node.fn == "sign":
            result = False
        elif isinstance(node, ir.Select):
            result = self.is_dual(node.a) or self.is_dual(node.b)
        elif isinstance(node, ir.Compare):
            result = False
        else:
            result = any(self.is_dual(child) for child in node.children())
        self.dual[id(node)] = result
        return result

    # ---------------------------------------------------------------- plumbing
    def fresh(self, prefix: str = "t") -> str:
        self.serial += 1
        return f"{prefix}{self.serial}"

    def line(self, text: str) -> None:
        self.lines.append(text)

    def assign(self, expr: str, prefix: str = "t") -> str:
        name = self.fresh(prefix)
        self.line(f"{name} = {expr}")
        return name

    def shared_temp(self, key: tuple, expr_fn) -> str:
        name = self.shared.get(key)
        if name is None:
            name = self.shared[key] = self.assign(expr_fn(), "s")
        return name

    # ----------------------------------------------------------- forward value
    def emit(self, node: ir.Node) -> str:
        """Emit (once) the value computation of ``node``; return its name."""
        if isinstance(node, ir.Const):
            return _literal(node.value)
        if isinstance(node, ir.Input):
            return self.args[(node.kind, node.name)]
        known = self.names.get(id(node))
        if known is not None:
            return known
        name = self._emit_value(node)
        self.names[id(node)] = name
        return name

    def _emit_value(self, node: ir.Node) -> str:
        if isinstance(node, ir.Unary):
            x = self.emit(node.x)
            return self.assign(f"-{x}" if node.op == "neg" else f"+{x}")
        if isinstance(node, ir.Compare):
            a, b = self.emit(node.a), self.emit(node.b)
            return self.assign(f"{a} {node.op} {b}", "c")
        if isinstance(node, ir.Select):
            cond = self.emit(node.cond)
            a, b = self.emit(node.a), self.emit(node.b)
            if self.lanes:
                return self.assign(f"np.where({cond}, {a}, {b})")
            return self.assign(f"{a} if {cond} else {b}")
        if isinstance(node, ir.Call):
            return self._emit_call(node)
        if isinstance(node, ir.Ddt):
            return self._emit_ddt(node)
        if isinstance(node, ir.Integ):
            return self._emit_integ(node)
        assert isinstance(node, ir.Binary)
        return self._emit_binary(node)

    def _emit_ddt(self, node: ir.Ddt) -> str:
        """The DC ``0.0 * x``, or inlined, the exact arithmetic and
        pending-state writes of ``Integrator.differentiate`` (state key
        ``_k<k>``, integrator frame names of :data:`_FRAME`)."""
        x = self.emit(node.x)
        k = self.state_index[node.state]
        if self.state == "op":
            return self.assign(f"0.0 * {x}")
        t = self.assign(f"({x} - _vals.get(_k{k}, {x})) * _c0")
        self.line(f"if not _be: {t} -= _drvs.get(_k{k}, 0.0)")
        self.line(f"_pv[_k{k}] = {x}")
        self.line(f"_pd[_k{k}] = {t}")
        return t

    def _emit_integ(self, node: ir.Integ) -> str:
        """The DC held initial value, or inlined, the exact arithmetic and
        pending-state writes of ``Integrator.integrate`` (integrand key
        ``_i<k>``)."""
        x = self.emit(node.x)
        k = self.state_index[node.state]
        init = _literal(node.initial)
        if self.state == "op":
            return self.assign(f"0.0 * {x} + {init}")
        t = self.fresh()
        self.line(f"if _be: {t} = _ints.get(_k{k}, {init}) + _h * {x}")
        self.line(f"else: {t} = _ints.get(_k{k}, {init})"
                  f" + 0.5 * _h * ({x} + _vals.get(_i{k}, {x}))")
        self.line(f"_pv[_i{k}] = {x}")
        self.line(f"_pi[_k{k}] = {t}")
        return t

    def _emit_call(self, node: ir.Call) -> str:
        args = ", ".join(self.emit(a) for a in node.args)
        if node.fn == "abs":
            if self.is_dual(node):
                # Dual.__abs__ branches on value < 0 and negates; plain
                # floats go through C fabs.
                v = self.emit(node.args[0])
                cond = self.shared_temp(("absc", id(node)),
                                        lambda: f"{v} < 0.0")
                if self.lanes:
                    return self.assign(f"np.where({cond}, -{v}, {v})")
                return self.assign(f"-{v} if {cond} else {v}")
            return self.assign(f"np.abs({args})" if self.lanes
                               else f"abs({args})")
        if node.fn == "sign":
            if self.lanes:
                return self.assign(f"np.sign({args})")
            return self.assign(f"float(np.sign({args}))")
        return self.assign(f"{self.math}.{node.fn}({args})")

    def _emit_binary(self, node: ir.Binary) -> str:
        a, b = self.emit(node.a), self.emit(node.b)
        dual = self.flavor != "value" and self.is_dual(node)
        if node.op == "/" and dual:
            # Dual.__truediv__: inv = 1/b; value = a*inv (two roundings --
            # mirrored so compiled values match dual-interpreted ones).
            inv = self.shared_temp(("inv", id(node)), lambda: f"1.0 / {b}")
            return self.assign(f"{a} * {inv}")
        if node.op == "**" and dual:
            return self._emit_pow(node, a, b)
        return self.assign(f"{a} {node.op} {b}")

    def _emit_pow(self, node: ir.Binary, a: str, b: str) -> str:
        if isinstance(node.b, ir.Const):
            # Exponent known at compile time (the e == 0 case folded during
            # tracing); Dual.__pow__ computes value ** exponent directly.
            return self.assign(f"{a} ** {b}")
        if self.is_dual(node.b):
            # dual ** dual: the interpreter raises for non-positive bases;
            # bail to it so the error surfaces identically (per call, so
            # such variants have no lanes flavour: :func:`_lane_ready`).
            self.line(f"if {a} <= 0.0: return None")
            return self.assign(f"{a} ** {b}")
        # Runtime exponent that carries no seeds: Dual.__pow__'s constant-
        # exponent branch with its e == 0 special case, decided per call.
        if self.lanes:
            return self.assign(f"np.where({b} == 0.0, 1.0, {a} ** {b})")
        return self.assign(f"1.0 if {b} == 0.0 else {a} ** {b}")

    # ------------------------------------------------------------- derivatives
    def deriv(self, node: ir.Node, k: int):
        """Derivative of ``node`` w.r.t. seed ``k``: None, _ONE or a name."""
        if not self.is_dual(node):
            return None
        key = (id(node), k)
        if key in self.dmemo:
            return self.dmemo[key]
        result = self._deriv(node, k)
        self.dmemo[key] = result
        return result

    def _dname(self, expr: str) -> str:
        return self.assign(expr, "d")

    def _deriv(self, node: ir.Node, k: int):
        if isinstance(node, ir.Input):
            return _ONE if (node.kind, node.name) == self.seeds[k] else None
        if isinstance(node, ir.Unary):
            dx = self.deriv(node.x, k)
            if node.op == "pos" or dx is None:
                return dx
            return self._dname("-1.0" if dx is _ONE else f"-{dx}")
        if isinstance(node, ir.Select):
            cond = self.emit(node.cond)
            da, db = self.deriv(node.a, k), self.deriv(node.b, k)
            if da is None and db is None:
                return None
            da = "1.0" if da is _ONE else (da or "0.0")
            db = "1.0" if db is _ONE else (db or "0.0")
            if self.lanes:
                return self._dname(f"np.where({cond}, {da}, {db})")
            return self._dname(f"{da} if {cond} else {db}")
        if isinstance(node, ir.Call):
            return self._deriv_call(node, k)
        if isinstance(node, ir.Ddt):
            dx = self.deriv(node.x, k)
            if dx is None:
                return None
            self.need_c0 = True
            return self._dname("_c0" if dx is _ONE else f"_c0 * {dx}")
        if isinstance(node, ir.Integ):
            dx = self.deriv(node.x, k)
            if dx is None:
                return None
            self.need_ci = True
            return self._dname("_ci" if dx is _ONE else f"_ci * {dx}")
        assert isinstance(node, ir.Binary)
        return self._deriv_binary(node, k)

    def _deriv_call(self, node: ir.Call, k: int):
        dx = self.deriv(node.args[0], k)
        if dx is None:
            return None
        if node.fn == "abs":
            v = self.emit(node.args[0])
            cond = self.shared_temp(("absc", id(node)), lambda: f"{v} < 0.0")
            da = "1.0" if dx is _ONE else dx
            if self.lanes:
                return self._dname(f"np.where({cond}, -{da}, {da})")
            return self._dname(f"-{da} if {cond} else {da}")
        template = _DFN[node.fn]
        factor = self.shared_temp(("dfn", id(node)), lambda: template.format(
            v=self.emit(node.args[0]), r=self.emit(node), m=self.math))
        return self._dname(factor if dx is _ONE else f"{factor} * {dx}")

    def _deriv_binary(self, node: ir.Binary, k: int):
        da, db = self.deriv(node.a, k), self.deriv(node.b, k)
        if node.op in ("+", "-"):
            if da is None and db is None:
                return None
            if node.op == "+":
                if db is None:
                    return da
                if da is None:
                    return db
                return self._dname(
                    f"{'1.0' if da is _ONE else da} + "
                    f"{'1.0' if db is _ONE else db}")
            if db is None:
                return da
            db_expr = "1.0" if db is _ONE else db
            if da is None:
                return self._dname(f"-{db_expr}")
            return self._dname(f"{'1.0' if da is _ONE else da} - {db_expr}")
        va, vb = self.emit(node.a), self.emit(node.b)
        if node.op == "*":
            # d(a*b) = va*db + vb*da, in the interpreter's operand order.
            terms = []
            if db is not None:
                terms.append(va if db is _ONE else f"{va} * {db}")
            if da is not None:
                terms.append(vb if da is _ONE else f"{vb} * {da}")
            if not terms:
                return None
            return self._dname(" + ".join(terms))
        if node.op == "/":
            inv = self.shared[("inv", id(node))]
            if db is None:
                if da is None:
                    return None
                return self._dname(inv if da is _ONE
                                   else f"{da} * {inv}")
            value = self.emit(node)
            db_expr = "1.0" if db is _ONE else db
            da_expr = "1.0" if da is _ONE else (da or "0.0")
            return self._dname(f"({da_expr} - {value} * {db_expr}) * {inv}")
        assert node.op == "**"
        return self._deriv_pow(node, k, da, db, va, vb)

    def _deriv_pow(self, node: ir.Binary, k: int, da, db, va: str, vb: str):
        if isinstance(node.b, ir.Const) or not self.is_dual(node.b):
            if da is None:
                return None
            if isinstance(node.b, ir.Const):
                e = node.b.value
                em1 = _literal(e - 1.0)
                factor = self.shared_temp(
                    ("pows", id(node)),
                    lambda: f"{_literal(e)} * {va} ** {em1}")
            elif self.lanes:
                factor = self.shared_temp(
                    ("pows", id(node)),
                    lambda: f"np.where({vb} == 0.0, 0.0, "
                            f"{vb} * {va} ** ({vb} - 1.0))")
            else:
                factor = self.shared_temp(
                    ("pows", id(node)),
                    lambda: f"0.0 if {vb} == 0.0 else "
                            f"{vb} * {va} ** ({vb} - 1.0)")
            return self._dname(factor if da is _ONE else f"{factor} * {da}")
        # dual ** dual: value * (db*log(va) + vb*da/va)
        value = self.emit(node)
        log = self.shared_temp(("powlog", id(node)),
                               lambda: f"{self.math}.log({va})")
        terms = []
        if db is not None:
            terms.append(log if db is _ONE else f"{db} * {log}")
        if da is not None:
            terms.append(f"{vb} / {va}" if da is _ONE
                         else f"{vb} * {da} / {va}")
        if not terms:
            return None
        return self._dname(f"{value} * ({' + '.join(terms)})")


def _tuple_expr(items: list[str]) -> str:
    if not items:
        return "()"
    if len(items) == 1:
        return f"({items[0]},)"
    return f"({', '.join(items)})"


def _generate_parts(variant, flavor: str, state: str):
    """Generate the structural pieces of one function body.

    ``flavor`` is ``"jac"`` (values and per-seed derivatives), ``"value"``
    (float-mode values and records) or ``"lanes"`` (``"jac"`` over numpy
    lanes).  Returns ``(preamble, body, value_names, extras)`` where
    ``body`` is the guard + straight-line computation (with ``return None``
    guard bails), ``value_names`` name the contribution/equation results in
    order and ``extras`` are the record names (``"value"``) or, per output,
    the per-seed derivative expressions, which stamp functions accumulate
    one by one.  ``state`` selects the ``ddt``/``integ`` lowering (see
    :class:`_Writer`).
    """
    writer = _Writer(variant, flavor, state)
    # Guards first, each as soon as its operands exist: the behavior checked
    # them before computing anything that depends on the guarded condition
    # (e.g. a positivity check before dividing), so hoisting them preserves
    # the interpreter's error behavior.
    for compare, expected in variant.guards:
        cond = writer.emit(compare)
        writer.line(f"if {'not ' if expected else ''}{cond}: return None")
    outputs = ([node for _, node in variant.contributions]
               + [node for _, node in variant.equations])
    value_names = [writer.emit(node) for node in outputs]
    if flavor == "value":
        extras = [writer.emit(node) for _, node in variant.records]
    else:
        extras = []
        for node in outputs:
            row = []
            for k in range(len(writer.seeds)):
                d = writer.deriv(node, k)
                row.append("1.0" if d is _ONE else (d or "0.0"))
            extras.append(row)
    # The DC coefficient temps are referenced by derivative lines only,
    # which always come after every guard/value line that could return
    # early -- hoist them to the top for simplicity.  Inlined transient
    # state reads them from the integrator frame instead.
    preamble = []
    if state != "tran":
        if writer.need_c0:
            preamble.append("_c0 = 0.0")
        if writer.need_ci:
            preamble.append("_ci = 0.0")
    return preamble, writer.lines, value_names, extras


def _lane_ready(variant) -> bool:
    """Whether ``variant`` has a ``lanes`` stamp function: it is guard-free
    (a guard picks one branch per call, not per lane) and no exponent
    depends on an unknown (``dual ** dual`` bails per call)."""
    if variant.guards:
        return False
    writer = _Writer(variant, "lanes", variant.mode)
    outputs = [node for _, node in variant.contributions + variant.equations]
    return not any(isinstance(node, ir.Binary) and node.op == "**"
                   and not isinstance(node.b, ir.Const)
                   and writer.is_dual(node.b) for node in ir.walk(outputs))


def widen_param(value):
    """``float(value)`` of a real, non-bool, non-dual parameter value, else
    None: an ``int`` or ``np.float64`` parameter stamps compiled exactly as
    the interpreter's float coercion would compute with it."""
    if isinstance(value, (bool, Dual)) or not isinstance(value, numbers.Real):
        return None
    return float(value)


def widen_lanes(value):
    """A parameter value as a ``lanes`` stamp function takes it: a float
    array for a lane column, else :func:`widen_param`."""
    if isinstance(value, np.ndarray):
        return np.asarray(value, dtype=float)
    return widen_param(value)


def _compile_source(source: str, label: str, name: str):
    namespace = {"math": math, "np": np, "_widen": widen_param,
                 "_widen_lanes": widen_lanes}
    exec(compile(source, f"<behavioral-{name}:{label}>", "exec"), namespace)
    return namespace[name]


class KernelSet:
    """One traced variant's compile products (process-wide shared): the
    input and output layout its stamp functions bind against, and whether
    it stamps batch lanes (``lanes``: a guard-free op variant, see
    :func:`_lane_ready`)."""

    __slots__ = ("fingerprint", "variant", "mode", "inputs", "diff_inputs",
                 "state_suffixes", "lanes", "contrib_ports", "eq_names",
                 "record_names", "param_defaults")

    def __init__(self, fp: str, variant) -> None:
        self.fingerprint = fp
        self.variant = variant
        self.mode = variant.mode
        self.inputs = variant.inputs
        self.diff_inputs = tuple(p for p in variant.inputs
                                 if p[0] in ("across", "unknown"))
        self.state_suffixes = variant.state_suffixes
        self.lanes = variant.mode == "op" and _lane_ready(variant)
        self.contrib_ports = tuple(name for name, _ in variant.contributions)
        self.eq_names = tuple(name for name, _ in variant.equations)
        self.record_names = tuple(name for name, _ in variant.records)
        self.param_defaults = dict(variant.param_defaults)


#: Entries each process-wide compiler table holds (kernel sets, stamp
#: functions, trace-memo keys) before it is cleared: far above the working
#: set of a simulation (a figure-5 array uses 8 kernel sets), so only a
#: process that keeps building new models ever evicts.
_CACHE_LIMIT = 1024

_CACHE: dict[str, KernelSet] = {}


def remember(table: dict, key, value) -> None:
    """Store ``table[key] = value`` in a bounded process-wide table: a full
    table is cleared first, counted as ``hdl.cache.evictions``.  Devices
    keep the kernels and functions they were bound to; a cleared entry is
    only compiled again by the next device that asks for it."""
    if len(table) >= _CACHE_LIMIT:
        table.clear()
        registry.inc("hdl.cache.evictions")
    table[key] = value


def compile_variant(variant) -> KernelSet:
    """Compile (or fetch from the process-wide cache) a traced variant."""
    fp = ir.fingerprint(variant.fingerprint_payload())
    kernels = _CACHE.get(fp)
    if kernels is not None:
        registry.inc("hdl.compile.cache_hits")
        return kernels
    kernels = KernelSet(fp, variant)
    remember(_CACHE, fp, kernels)
    registry.inc("hdl.compile.count")
    return kernels


# --------------------------------------------------------------------------- #
# stamp functions                                                             #
# --------------------------------------------------------------------------- #

#: Names of the per-assembly integrator frame a transient stamp function
#: unpacks (built by :func:`repro.hdl.compile.runtime._integrator_frame`).
_FRAME = ("_h", "_be", "_c0", "_ci", "_vals", "_drvs", "_ints", "_pv", "_pd",
          "_pi")

_STAMPS: dict[tuple, object] = {}


def bind_stamp(kernels: KernelSet, task: str, geometry, device, keys):
    """The shared stamp function of one device and its bound arguments.

    ``task`` is ``"jac"`` (residual + dense Jacobian), ``"triplet"``
    (residual + sparse COO triplets), ``"value"`` (residual only),
    ``"record"`` (output collection) or ``"lanes"`` (residual + Jacobian
    of every lane of a batch context).  ``geometry`` is the device's index
    map in one MNA system (``plan``, ``contribs``, ``eqs``, ``dep_map``,
    ``size``; see :class:`repro.hdl.compile.runtime._Geometry`) and
    ``keys`` its integrator state keys.

    Everything instance-specific -- solution indices, stamp rows, Jacobian
    positions or columns, state keys, parameter owners, output names -- is
    an *argument*, so the function depends only on the kernel and the shape
    of the geometry (which indices are ground, the per-dependency
    ``(position, negate)`` leaf pairs, the parameter sources).  It is
    generated once per ``(fingerprint, task, mode, shape)`` and shared
    process-wide: every transducer of an array runs the same function.

    Returns ``(fn, args)``; the call is ``fn(ctx, x, out, jac, st, args)``
    with ``x`` the solution as a list (the context's ``x_list``), ``out``
    the context's residual list (the output dict when recording), ``jac``
    its flat row-major ``n*n`` dense Jacobian, a list or an ndarray by
    size (its ``(rows, cols, vals)`` triplet lists for ``"triplet"``) and
    ``st`` the integrator frame (transient mode).  The result is ``True``
    when done, ``None`` when a guard failed and ``False`` when a parameter
    is not a real number (:func:`widen_param`).  Accumulation order, the
    ``!= 0.0`` derivative filter and the ``+=``/``-=`` forms replicate
    ``StampContext.add_*`` element by element, so stamps are bitwise those
    of the interpreter.

    A ``"lanes"`` function is called with ``x`` the batch context's padded
    ``(n + 1, B)`` solution block and no ``out``, ``jac`` or ``st``;
    parameters may be floats or ``(B,)`` columns (:func:`widen_lanes`).
    It makes the ``ctx.add_res``/``ctx.add_jac`` calls of
    ``StampContext.add_through``/``add_through_jac`` -- ground rows
    included, colliding leaves summed in leaf order, a scalar exact-zero
    derivative skipped -- so the batch scatter sees one call stream.
    """
    shape, args = _stamp_layout(kernels, task, geometry, device, keys)
    key = (kernels.fingerprint, task, kernels.mode, shape)
    fn = _STAMPS.get(key)
    if fn is None:
        fn = _compile_source(_stamp_source(kernels, task, shape), task,
                             "stamp")
        remember(_STAMPS, key, fn)
        registry.inc("hdl.stamp_fn.compiles")
    return fn, args


def _stamp_layout(kernels: KernelSet, task: str, geo, device, keys):
    """``(shape, args)`` of one device: :func:`_stamp_source` names the
    arguments in exactly this order."""
    plan, args = [], []
    for tag, a, b in geo.plan:
        if tag == "a":
            plan.append(("a", a < 0, b < 0))
            args.extend(i for i in (a, b) if i >= 0)
        elif tag == "u":
            plan.append(("u",))
            args.append(a)
        elif tag == "b":
            plan.append(("b", b))
            args.append(a)
        elif tag == "c":
            plan.append(("c", _literal(a)))
        else:  # "d" (params-dict entry a) or "t" (time)
            plan.append((tag, a))
    if any(entry[0] == "d" for entry in plan):
        args.append(device)
    contribs = tuple((p < 0, n < 0) for p, n in geo.contribs)
    if task != "record":
        for p, n in geo.contribs:
            args.extend(i for i in (p, n) if i >= 0)
        args.extend(geo.eqs)
    dep_map = geo.dep_map if task in ("jac", "triplet", "lanes") else ()
    if task in ("triplet", "lanes"):
        args.extend(idx for idx, _ in dep_map)
    else:
        size = geo.size
        for p, n in geo.contribs:
            for idx, _ in dep_map:
                args.extend(row * size + idx for row in (p, n) if row >= 0)
        for row in geo.eqs:
            args.extend(row * size + idx for idx, _ in dep_map)
    deps = tuple(leaves for _, leaves in dep_map)
    if kernels.mode == "tran":
        for key in keys:
            args.extend((key, ("integ", key)))
    if task == "record":
        args.extend(f"i({device.name}.{port})"
                    for port in kernels.contrib_ports)
        args.extend(f"{name}({device.name})" for name in kernels.record_names)
    return (tuple(plan), contribs, len(geo.eqs), deps), tuple(args)


def _stamp_source(kernels: KernelSet, task: str, shape) -> str:
    """Generate the stamp function of one (kernel, task, shape)."""
    plan, contribs, n_eqs, deps = shape
    lanes = task == "lanes"
    widen = "_widen_lanes" if lanes else "_widen"
    names, gather = [], []
    for pos, entry in enumerate(plan):
        tag, i = entry[0], f"i{pos}"
        if tag == "a":
            ends = []
            for end, ground in zip("pn", entry[1:]):
                if ground:
                    ends.append("0.0")
                else:
                    names.append(f"x{pos}{end}")
                    ends.append(f"x[x{pos}{end}]")
            gather.append(f"{i} = {ends[0]} - {ends[1]}")
        elif tag == "u":
            names.append(f"x{pos}")
            gather.append(f"{i} = x[x{pos}]")
        elif tag in ("b", "d"):
            name = entry[1]
            if tag == "d":
                gather.append(f"{i} = dev.params[{name!r}]")
            else:
                names.append(f"o{pos}")
                gather.append(f"{i} = o{pos}.{name}" if name.isidentifier()
                              else f"{i} = getattr(o{pos}, {name!r})")
            gather.append(f"if type({i}) is not float and "
                          f"({i} := {widen}({i})) is None: return False")
        elif tag == "c":
            gather.append(f"{i} = {entry[1]}")
        else:  # time
            gather.append(f"{i} = ctx.time")
    if any(entry[0] == "d" for entry in plan):
        names.append("dev")
    rows = [((f"r{j}p", pg), (f"r{j}n", ng))
            for j, (pg, ng) in enumerate(contribs)]
    eqs = [f"q{e}" for e in range(n_eqs)]
    if task != "record":
        names.extend(name for pair in rows for name, ground in pair
                     if not ground)
        names.extend(eqs)
    if lanes:
        # A batch context counts every call: ground rows stamp as -1.
        rows = [tuple(("-1" if ground else name, False)
                      for name, ground in pair) for pair in rows]
    flats = {}  # (row name, dependency) -> flat Jacobian position name
    if task in ("triplet", "lanes"):
        names.extend(f"j{m}" for m in range(len(deps)))
    else:
        for pair in rows:
            for m in range(len(deps)):
                for name, ground in pair:
                    if not ground:
                        flats[(name, m)] = f"f{len(flats)}"
        for q in eqs:
            for m in range(len(deps)):
                flats[(q, m)] = f"f{len(flats)}"
        names.extend(flats.values())
    mode = kernels.mode
    if mode == "tran":
        for k in range(len(kernels.state_suffixes)):
            names.extend((f"_k{k}", f"_i{k}"))
    outputs = [f"n{j}" for j in range(len(contribs))] \
        + [f"m{r}" for r in range(len(kernels.record_names))]
    if task == "record":
        names.extend(outputs)
    flavor = "lanes" if lanes else \
        "jac" if task in ("jac", "triplet") else "value"
    preamble, body, values, extras = _generate_parts(kernels.variant, flavor,
                                                     mode)
    out = "out" if task == "record" else "res"
    lines = [f"def stamp(ctx, x, {out}, jac, st, a):"]
    if names:
        lines.append(f"{', '.join(names)}, = a")
    if mode == "tran" and kernels.state_suffixes:
        lines.append(f"{', '.join(_FRAME)} = st")
    if task == "triplet" and deps:
        lines.append("_jr, _jc, _jv = jac")
    lines += gather + preamble + body
    if task == "record":
        # Through currents, then records: BehavioralDevice.record's and
        # BehaviorContext.record's float() of the float-mode values.
        lines += [f"out[{n}] = float({v})" for n, v
                  in zip(outputs, values[:len(contribs)] + extras)]
    else:
        def accumulate(row: str, negate: bool, out_pos: int) -> None:
            value = values[out_pos]
            if lanes:
                lines.append(f"ctx.add_res({row}, {'-' if negate else ''}"
                             f"{value})")
            else:
                lines.append(f"res[{row}] {'-=' if negate else '+='} {value}")

        def derivative(targets: list, m: int, out_pos: int) -> None:
            # ``targets`` are the (row, flip) pairs of one through (+, -)
            # or equation (+) stamp.
            if lanes:
                # add_through_jac/add_jac calls of d = the leaves' signed
                # sum in leaf order; a scalar exact zero is skipped.
                terms = [(extras[out_pos][pos], neg) for pos, neg in deps[m]]
                if all(d == "0.0" for d, _ in terms):
                    return
                lines.append("_d = " + " + ".join(f"-{d}" if neg else d
                                                  for d, neg in terms))
                stmt = "; ".join(f"ctx.add_jac({row}, j{m}, "
                                 f"{'-_d' if flip else '_d'})"
                                 for row, flip in targets)
                lines.append(stmt if terms == [("1.0", False)]
                             else f"if np.ndim(_d) or _d != 0.0: {stmt}")
                return
            # One leaf: dval = (+/-) d; StampContext filters `dval !=
            # 0.0`, which is sign-independent, and `a += -d` == `a -= d` in
            # IEEE.  Triplets append (row, col, +/-d) in the order
            # add_through_jac/add_jac would.
            (pos, neg), = deps[m]
            targets = [(row, neg != flip) for row, flip in targets]
            d = extras[out_pos][pos]
            if d == "0.0" or not targets:
                return
            if task == "jac":
                stmts = [f"jac[{flats[(row, m)]}] {'-=' if negate else '+='}"
                         f" {d}" for row, negate in targets]
            else:
                stmts = [
                    f"_jr += {_tuple_expr([row for row, _ in targets])}",
                    f"_jc += {_tuple_expr([f'j{m}'] * len(targets))}",
                    "_jv += " + _tuple_expr(
                        [f"-{d}" if negate else d for _, negate in targets])]
            stmt = "; ".join(stmts)
            lines.append(stmt if d == "1.0" else f"if {d} != 0.0: {stmt}")

        for out_pos, pair in enumerate(rows):
            for (name, ground), negate in zip(pair, (False, True)):
                if not ground:
                    accumulate(name, negate, out_pos)
            for m in range(len(deps)):
                derivative([(name, flip) for (name, ground), flip
                            in zip(pair, (False, True)) if not ground],
                           m, out_pos)
        for e, q in enumerate(eqs):
            out_pos = len(rows) + e
            accumulate(q, False, out_pos)
            for m in range(len(deps)):
                derivative([(q, False)], m, out_pos)
    lines.append("return True")
    return "\n    ".join(lines) + "\n"


def cache_info() -> dict[str, int]:
    """Size of the process-wide caches (for tests/diagnostics):
    ``kernels`` counts :class:`KernelSet` s, ``stamp_functions`` the shared
    stamp functions generated from them."""
    return {"kernels": len(_CACHE), "stamp_functions": len(_STAMPS)}


def clear_cache() -> None:
    """Drop every cached kernel and stamp function (tests only)."""
    _CACHE.clear()
    _STAMPS.clear()
