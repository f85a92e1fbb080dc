"""Linear controlled sources (VCCS, VCVS, CCCS, CCVS).

The linearized equivalent-circuit transducer of the paper couples the
electrical and mechanical sides with a transduction factor ``Gamma``:
a current ``Gamma * v_elec`` is injected into the mechanical net and a
current ``Gamma * v_mech`` (velocity) back into the electrical net -- i.e. a
pair of VCCS elements.  The current-controlled variants sense the branch
current of a named voltage source (or any device with an ``"i"`` auxiliary
unknown), as in SPICE.
"""

from __future__ import annotations

from ...errors import DeviceError
from ..mna import StampContext
from ..netlist import Node
from .base import Device, TwoTerminalDevice

__all__ = ["VCCS", "VCVS", "CCCS", "CCVS"]


class VCCS(Device):
    """Voltage-controlled current source: ``i(p->n) = gm * (v(cp) - v(cn))``."""

    def __init__(self, name: str, p: Node, n: Node, cp: Node, cn: Node,
                 transconductance: float) -> None:
        super().__init__(name)
        self.p, self.n, self.cp, self.cn = p, n, cp, cn
        self.transconductance = float(transconductance)

    def nodes(self) -> tuple[Node, ...]:
        return (self.p, self.n, self.cp, self.cn)

    def stamp(self, ctx: StampContext) -> None:
        gm = self.transconductance
        ip, in_ = ctx.node_index(self.p), ctx.node_index(self.n)
        icp, icn = ctx.node_index(self.cp), ctx.node_index(self.cn)
        control = ctx.across(self.cp) - ctx.across(self.cn)
        ctx.add_through(ip, in_, gm * control)
        ctx.add_through_jac(ip, in_, icp, gm)
        ctx.add_through_jac(ip, in_, icn, -gm)

    def record(self, ctx: StampContext) -> dict[str, float]:
        control = ctx.across(self.cp) - ctx.across(self.cn)
        return {f"i({self.name})": self.transconductance * control}

    def describe(self) -> str:
        return f"gm={self.transconductance:g}"


class VCVS(Device):
    """Voltage-controlled voltage source: ``v(p)-v(n) = mu * (v(cp)-v(cn))``."""

    def __init__(self, name: str, p: Node, n: Node, cp: Node, cn: Node, gain: float) -> None:
        super().__init__(name)
        self.p, self.n, self.cp, self.cn = p, n, cp, cn
        self.gain = float(gain)

    def nodes(self) -> tuple[Node, ...]:
        return (self.p, self.n, self.cp, self.cn)

    def aux_names(self) -> tuple[str, ...]:
        return ("i",)

    def stamp(self, ctx: StampContext) -> None:
        ip, in_ = ctx.node_index(self.p), ctx.node_index(self.n)
        icp, icn = ctx.node_index(self.cp), ctx.node_index(self.cn)
        ib = ctx.aux_index(self, "i")
        current = ctx.unknown_value(ib)
        ctx.add_through(ip, in_, current)
        ctx.add_through_jac(ip, in_, ib, 1.0)
        control = ctx.across(self.cp) - ctx.across(self.cn)
        ctx.add_res(ib, ctx.across(self.p) - ctx.across(self.n) - self.gain * control)
        ctx.add_jac(ib, ip, 1.0)
        ctx.add_jac(ib, in_, -1.0)
        ctx.add_jac(ib, icp, -self.gain)
        ctx.add_jac(ib, icn, self.gain)

    def record(self, ctx: StampContext) -> dict[str, float]:
        return {f"i({self.name})": ctx.aux_value(self, "i")}

    def describe(self) -> str:
        return f"gain={self.gain:g}"


class _CurrentControlled(TwoTerminalDevice):
    """Shared plumbing for CCCS/CCVS: sensing another device's branch current."""

    def __init__(self, name: str, p: Node, n: Node, controlling_source: str, factor: float) -> None:
        super().__init__(name, p, n)
        if not controlling_source:
            raise DeviceError(f"{name!r}: a controlling source name is required")
        self.controlling_source = controlling_source
        self.factor = float(factor)

    def _control_index(self, ctx) -> int:
        return ctx.aux_index(self.controlling_source, "i")


class CCCS(_CurrentControlled):
    """Current-controlled current source: ``i(p->n) = beta * i(control)``."""

    def stamp(self, ctx: StampContext) -> None:
        ip, in_ = ctx.node_index(self.p), ctx.node_index(self.n)
        ic = self._control_index(ctx)
        control = ctx.unknown_value(ic)
        ctx.add_through(ip, in_, self.factor * control)
        ctx.add_through_jac(ip, in_, ic, self.factor)

    def record(self, ctx: StampContext) -> dict[str, float]:
        return {f"i({self.name})": self.factor * ctx.unknown_value(self._control_index(ctx))}

    def describe(self) -> str:
        return f"beta={self.factor:g} ctrl={self.controlling_source}"


class CCVS(_CurrentControlled):
    """Current-controlled voltage source: ``v(p)-v(n) = r * i(control)``."""

    def aux_names(self) -> tuple[str, ...]:
        return ("i",)

    def stamp(self, ctx: StampContext) -> None:
        ip, in_ = ctx.node_index(self.p), ctx.node_index(self.n)
        ib = ctx.aux_index(self, "i")
        ic = self._control_index(ctx)
        current = ctx.unknown_value(ib)
        ctx.add_through(ip, in_, current)
        ctx.add_through_jac(ip, in_, ib, 1.0)
        control = ctx.unknown_value(ic)
        ctx.add_res(ib, ctx.across(self.p) - ctx.across(self.n) - self.factor * control)
        ctx.add_jac(ib, ip, 1.0)
        ctx.add_jac(ib, in_, -1.0)
        ctx.add_jac(ib, ic, -self.factor)

    def record(self, ctx: StampContext) -> dict[str, float]:
        return {f"i({self.name})": ctx.aux_value(self, "i")}

    def describe(self) -> str:
        return f"r={self.factor:g} ctrl={self.controlling_source}"
