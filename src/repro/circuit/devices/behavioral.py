"""Behavioral (equation-defined) devices: the HDL-A model engine.

A :class:`BehavioralDevice` is what an HDL-A entity/architecture pair (or a
Python-coded transducer model) elaborates into.  Its behaviour is a plain
Python callable receiving a :class:`BehaviorContext`; inside it the model

* reads port across variables (``ctx.across("elec")`` -- voltage,
  ``ctx.across("mech")`` -- velocity),
* forms expressions with ordinary arithmetic and the ``ctx.ddt`` /
  ``ctx.integ`` operators (the HDL-A ``ddt``/``integ`` built-ins),
* contributes through variables to its ports with ``ctx.contribute``
  (the HDL-A ``%=`` contribution statement),
* optionally declares implicit equations tied to extra unknowns
  (the HDL-A equation block),
* optionally records named internal quantities for the result files.

The same behaviour callable serves every analysis:

=============  =============================================================
analysis       semantics of the operators
=============  =============================================================
op / dc        ``ddt`` -> 0, ``integ`` -> the state's initial/bias value
transient      discretized by the analysis :class:`~repro.circuit.mna.Integrator`
ac             the same stamp, linearized around the operating point by the
               :class:`~repro.circuit.mna.ACStampContext` as real
               coefficients of the powers of ``s``: ``ddt`` multiplies the
               sensitivity by ``s``, ``integ`` holds its initial value and
               divides it by ``s``
=============  =============================================================

Jacobians are exact: the context seeds the port across values and extra
unknowns as dual numbers (:mod:`repro.ad`) and the chain rule does the rest,
so behavioral models converge with true Newton steps -- no finite
differencing, no secant approximations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from ...ad import Dual
from ...errors import DeviceError
from ...natures import Nature, get_nature
from ..mna import StampContext
from ..mna import compile_runtime as _compile_runtime
from ..netlist import Node
from .base import Device

__all__ = ["Port", "BehaviorContext", "BehavioralDevice"]


@dataclass(frozen=True)
class Port:
    """A named terminal-pair (pin pair) of a behavioral device."""

    name: str
    p: Node
    n: Node
    nature: Nature

    @staticmethod
    def make(name: str, p: Node, n: Node, nature: str | Nature) -> "Port":
        """Build a port, resolving the nature by name."""
        return Port(name, p, n, get_nature(nature))


class BehaviorContext:
    """Evaluation context handed to a behavioral model's behaviour callable."""

    def __init__(self, device: "BehavioralDevice", mode: str, *,
                 stamp_ctx: StampContext | None = None,
                 dep_positions: Mapping[int, int] | None = None,
                 nvars: int = 0, with_jacobian: bool = True) -> None:
        self._device = device
        self.analysis = mode
        self._stamp_ctx = stamp_ctx
        self._dep_positions = dict(dep_positions or {})
        self._nvars = nvars
        #: When False the context seeds plain floats instead of AD duals:
        #: the behaviour evaluates values only (identical to the dual value
        #: parts), which lets residual-only assemblies and record passes
        #: skip every derivative -- including the energy-method Hessians.
        self._with_jacobian = with_jacobian
        self._auto_counter = 0
        self.contributions: dict[str, object] = {}
        self.equations: dict[str, object] = {}
        self.recorded: dict[str, float] = {}

    # ------------------------------------------------------------------ inputs
    @property
    def time(self) -> float:
        """Current analysis time (0 for OP/DC/AC)."""
        if self._stamp_ctx is not None:
            return self._stamp_ctx.time
        return 0.0

    def param(self, name: str, default: float | None = None) -> float:
        """Value of a device generic/parameter."""
        params = self._device.params
        if name in params:
            return params[name]
        if default is not None:
            return default
        raise DeviceError(f"{self._device.name!r}: unknown parameter {name!r}")

    def _seed(self, value: float, index: int):
        if not self._with_jacobian:
            return value
        return self._stamp_ctx.seed(value, self._dep_positions.get(index),
                                    self._nvars)

    def _node_value(self, node: Node) -> tuple[float, int]:
        assert self._stamp_ctx is not None
        return self._stamp_ctx.across(node), self._stamp_ctx.node_index(node)

    def across(self, port_name: str):
        """Across variable of a port (voltage, velocity, ...).

        A dual number carrying MNA sensitivities, or a plain float in
        value-only (residual/record) evaluations.
        """
        port = self._device.port(port_name)
        vp, ip = self._node_value(port.p)
        vn, in_ = self._node_value(port.n)
        return self._seed(vp, ip) - self._seed(vn, in_)

    def unknown(self, name: str):
        """Value of one of the device's declared extra unknowns."""
        if name not in self._device.extra_unknowns:
            raise DeviceError(
                f"{self._device.name!r}: {name!r} is not a declared extra unknown")
        assert self._stamp_ctx is not None
        value = self._stamp_ctx.aux_value(self._device, name)
        index = self._stamp_ctx.aux_index(self._device, name)
        return self._seed(value, index)

    # ------------------------------------------------------------- dynamics
    def _full_key(self, key: str | None, prefix: str) -> Hashable:
        if key is None:
            self._auto_counter += 1
            key = f"{prefix}{self._auto_counter}"
        return (self._device.name, key)

    def ddt(self, expression, key: str | None = None):
        """Time derivative of ``expression`` (HDL-A ``ddt``)."""
        full_key = self._full_key(key, "ddt")
        assert self._stamp_ctx is not None
        return self._stamp_ctx.ddt(full_key, expression)

    def integ(self, expression, key: str | None = None, initial: float | None = None):
        """Running time integral of ``expression`` (HDL-A ``integ``).

        ``initial`` defaults to the device's declared initial state value for
        ``key`` (or zero).  At DC the integral is held at that initial value;
        the AC small-signal integral divides the sensitivity by ``s``.
        """
        full_key = self._full_key(key, "integ")
        if initial is None:
            initial = self._device.state_initials.get(
                key if key is not None else full_key[1], 0.0)
        assert self._stamp_ctx is not None
        return self._stamp_ctx.integ(full_key, expression, initial=initial)

    # ---------------------------------------------------------------- outputs
    def contribute(self, port_name: str, expression) -> None:
        """Add a through-variable contribution to a port (HDL-A ``%=``)."""
        port = self._device.port(port_name)
        current = self.contributions.get(port.name, 0.0)
        self.contributions[port.name] = current + expression

    def equation(self, unknown_name: str, expression) -> None:
        """Add an implicit equation residual tied to an extra unknown."""
        if unknown_name not in self._device.extra_unknowns:
            raise DeviceError(
                f"{self._device.name!r}: equation references undeclared unknown "
                f"{unknown_name!r}")
        current = self.equations.get(unknown_name, 0.0)
        self.equations[unknown_name] = current + expression

    def record(self, name: str, expression) -> None:
        """Expose a named internal quantity in the analysis results."""
        self.recorded[name] = float(
            expression.value if isinstance(expression, Dual) else expression)


class BehavioralDevice(Device):
    """A device whose constitutive equations are given by a Python callable."""

    compiled_stamps = True

    def __init__(self, name: str, ports: Sequence[Port],
                 behavior: Callable[[BehaviorContext], None],
                 params: Mapping[str, float] | None = None,
                 state_initials: Mapping[str, float] | None = None,
                 extra_unknowns: Sequence[str] = (),
                 parameter_bindings: Mapping[str, tuple[object, str]] | None = None
                 ) -> None:
        super().__init__(name)
        if not ports:
            raise DeviceError(f"behavioral device {name!r} needs at least one port")
        self._ports: dict[str, Port] = {}
        for port in ports:
            if port.name in self._ports:
                raise DeviceError(f"behavioral device {name!r}: duplicate port {port.name!r}")
            self._ports[port.name] = port
        self.behavior = behavior
        self.params = dict(params or {})
        self.state_initials = dict(state_initials or {})
        self.extra_unknowns = tuple(extra_unknowns)
        #: Parameters the behaviour reads from an *owner object's attribute*
        #: instead of (or in addition to) ``self.params`` -- e.g. a
        #: transducer closure capturing its geometry.  ``set_parameter``
        #: writes both places so the sensitivity layer can seed either kind.
        self.parameter_bindings = dict(parameter_bindings or {})
        #: False when the behaviour cannot propagate AD-dual *parameter*
        #: values exactly (e.g. the energy-method transducer path, whose
        #: internal gradient/Hessian machinery seeds its own dual space and
        #: would silently contaminate or drop foreign seeds).  The
        #: sensitivity layer refuses to dual-seed such devices.
        self.dual_parameter_safe = True

    # ------------------------------------------------------ tunable parameters
    def parameter_names(self) -> tuple[str, ...]:
        names = dict.fromkeys(self.params)
        names.update(dict.fromkeys(self.parameter_bindings))
        return tuple(names)

    def get_parameter(self, name: str):
        binding = self.parameter_bindings.get(name)
        if binding is not None:
            owner, attribute = binding
            return getattr(owner, attribute)
        if name in self.params:
            return self.params[name]
        raise DeviceError(
            f"device {self.name!r} has no tunable parameter {name!r} "
            f"(available: {sorted(self.parameter_names()) or 'none'})")

    def set_parameter(self, name: str, value) -> None:
        known = False
        binding = self.parameter_bindings.get(name)
        if binding is not None:
            owner, attribute = binding
            setattr(owner, attribute, value)
            known = True
        if name in self.params:
            self.params[name] = value
            known = True
        if not known:
            raise DeviceError(
                f"device {self.name!r} has no tunable parameter {name!r} "
                f"(available: {sorted(self.parameter_names()) or 'none'})")

    # ------------------------------------------------------------------ topology
    def port(self, name: str) -> Port:
        """Look up a port by name."""
        try:
            return self._ports[name]
        except KeyError:
            raise DeviceError(f"{self.name!r} has no port named {name!r}") from None

    @property
    def ports(self) -> tuple[Port, ...]:
        """All ports in declaration order."""
        return tuple(self._ports.values())

    def nodes(self) -> tuple[Node, ...]:
        seen: list[Node] = []
        for port in self._ports.values():
            for node in (port.p, port.n):
                if node not in seen:
                    seen.append(node)
        return tuple(seen)

    def aux_names(self) -> tuple[str, ...]:
        return self.extra_unknowns

    # ------------------------------------------------------------------ helpers
    def _dependency_indices(self, index_of_node, index_of_aux) -> list[int]:
        indices: list[int] = []
        for port in self._ports.values():
            for node in (port.p, port.n):
                idx = index_of_node(node)
                if idx >= 0 and idx not in indices:
                    indices.append(idx)
        for unknown in self.extra_unknowns:
            idx = index_of_aux(self, unknown)
            if idx not in indices:
                indices.append(idx)
        return indices

    def _run(self, mode: str, stamp_ctx: StampContext,
             with_jacobian: bool = True) -> tuple[BehaviorContext, list[int]]:
        if not with_jacobian:
            ctx = BehaviorContext(self, mode, stamp_ctx=stamp_ctx,
                                  with_jacobian=False)
            self.behavior(ctx)
            return ctx, []
        deps = self._dependency_indices(stamp_ctx.node_index, stamp_ctx.aux_index)
        positions = {idx: pos for pos, idx in enumerate(deps)}
        ctx = BehaviorContext(self, mode, stamp_ctx=stamp_ctx,
                              dep_positions=positions, nvars=len(deps))
        self.behavior(ctx)
        return ctx, deps

    # --------------------------------------------------------------- batching
    @property
    def batch_safe(self) -> bool:
        """Whether one stamp call covers a whole batch of lanes.

        True once the behaviour has compiled to a single guard-free
        operating-point variant (:mod:`repro.hdl.compile`), whose
        ``"lanes"`` stamp function then stamps every lane, and every
        parameter it reads is a float, a lane column or a widenable
        number; reading this property triggers that compile attempt.
        Guarded or untraceable behaviours, and parameters such as a bool,
        stay on the per-lane path, where the batched assembler runs the
        lane devices' stamp program on each ``lane_context``.
        """
        return _compile_runtime().batch_ready(self)

    def batch_safe_for(self, options) -> bool:
        """:attr:`batch_safe` under a specific options object (honors
        ``behavioral_compile=False``)."""
        return _compile_runtime().batch_ready(self, options)

    # ------------------------------------------------------------------ stamping
    def stamp(self, ctx: StampContext) -> None:
        # Batch contexts may stamp every lane through a lanes stamp function;
        # serial assemblies reach compiled code through stamp programs
        # (:mod:`repro.hdl.compile.runtime`), so this is the interpreter.
        if _compile_runtime().try_stamp(self, ctx):
            return
        mode = "op" if ctx.is_dc else ctx.analysis  # "tran" or "ac"
        bctx, deps = self._run(mode, ctx, with_jacobian=ctx.want_jacobian)
        keep_duals = ctx.keep_residual_duals
        for port_name, value in bctx.contributions.items():
            port = self._ports[port_name]
            ip, in_ = ctx.node_index(port.p), ctx.node_index(port.n)
            if keep_duals:
                # Sensitivity assembly: the context splits value/derivative
                # parts itself (the dual here carries parameter/state seeds,
                # not MNA-unknown seeds).
                ctx.add_through(ip, in_, value)
                continue
            plain = value.value if isinstance(value, Dual) else float(value)
            ctx.add_through(ip, in_, plain)
            if isinstance(value, Dual):
                for idx, dval in ctx.jacobian_entries(value, deps):
                    ctx.add_through_jac(ip, in_, idx, dval)
        for unknown_name, value in bctx.equations.items():
            row = ctx.aux_index(self, unknown_name)
            if keep_duals:
                ctx.add_res(row, value)
                continue
            plain = value.value if isinstance(value, Dual) else float(value)
            ctx.add_res(row, plain)
            if isinstance(value, Dual):
                for idx, dval in ctx.jacobian_entries(value, deps):
                    ctx.add_jac(row, idx, dval)
        # Equations must be supplied for every declared extra unknown,
        # otherwise the MNA matrix has an empty row and becomes singular.
        missing = set(self.extra_unknowns) - set(bctx.equations)
        if missing:
            raise DeviceError(
                f"behavioral device {self.name!r} declared unknowns without "
                f"equations: {sorted(missing)}")

    # ------------------------------------------------------------------ outputs
    def record(self, ctx: StampContext) -> dict[str, float]:
        mode = "tran" if ctx.is_transient else "op"
        # Records read value parts only; the float-mode evaluation produces
        # exactly those values without paying for any sensitivity.
        bctx, _ = self._run(mode, ctx, with_jacobian=False)
        outputs: dict[str, float] = {}
        for port_name, value in bctx.contributions.items():
            plain = value.value if isinstance(value, Dual) else float(value)
            outputs[f"i({self.name}.{port_name})"] = float(plain)
        for name, value in bctx.recorded.items():
            outputs[f"{name}({self.name})"] = value
        return outputs

    def describe(self) -> str:
        ports = ",".join(f"{p.name}:{p.nature.name}" for p in self._ports.values())
        return f"behavioral [{ports}]"
