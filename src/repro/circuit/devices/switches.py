"""Voltage-controlled switch with a smooth resistance transition.

Behavioral MEMS models frequently need contact events (pull-in, end stops).
An ideal discontinuous switch is poison for a Newton solver, so this element
interpolates the conductance log-linearly over a small transition band of the
control voltage -- the same technique SPICE3's ``.model SW`` uses.
"""

from __future__ import annotations

import math

from ...errors import DeviceError
from ..mna import StampContext
from ..netlist import Node
from .base import Device

__all__ = ["VoltageControlledSwitch"]


class VoltageControlledSwitch(Device):
    """Switch between ``p`` and ``n`` controlled by ``v(cp) - v(cn)``.

    The conductance moves smoothly (cubic smoothstep in log-conductance) from
    ``1/r_off`` to ``1/r_on`` as the control voltage crosses
    ``threshold +/- hysteresis``.
    """

    def __init__(self, name: str, p: Node, n: Node, cp: Node, cn: Node,
                 threshold: float = 0.0, hysteresis: float = 1e-3,
                 r_on: float = 1.0, r_off: float = 1e9) -> None:
        super().__init__(name)
        if r_on <= 0.0 or r_off <= 0.0:
            raise DeviceError(f"switch {name!r}: on/off resistances must be positive")
        if r_off <= r_on:
            raise DeviceError(f"switch {name!r}: r_off must exceed r_on")
        if hysteresis <= 0.0:
            raise DeviceError(f"switch {name!r}: hysteresis (transition width) must be positive")
        self.p, self.n, self.cp, self.cn = p, n, cp, cn
        self.threshold = float(threshold)
        self.hysteresis = float(hysteresis)
        self.r_on = float(r_on)
        self.r_off = float(r_off)

    def nodes(self) -> tuple[Node, ...]:
        return (self.p, self.n, self.cp, self.cn)

    def _conductance(self, control: float) -> tuple[float, float]:
        """Conductance and its derivative with respect to the control voltage."""
        g_on = 1.0 / self.r_on
        g_off = 1.0 / self.r_off
        lo = self.threshold - self.hysteresis
        hi = self.threshold + self.hysteresis
        if control <= lo:
            return g_off, 0.0
        if control >= hi:
            return g_on, 0.0
        s = (control - lo) / (hi - lo)
        smooth = s * s * (3.0 - 2.0 * s)
        dsmooth = 6.0 * s * (1.0 - s) / (hi - lo)
        log_g = math.log(g_off) + smooth * (math.log(g_on) - math.log(g_off))
        g = math.exp(log_g)
        dg = g * dsmooth * (math.log(g_on) - math.log(g_off))
        return g, dg

    def stamp(self, ctx: StampContext) -> None:
        ip, in_ = ctx.node_index(self.p), ctx.node_index(self.n)
        icp, icn = ctx.node_index(self.cp), ctx.node_index(self.cn)
        control = ctx.across(self.cp) - ctx.across(self.cn)
        v = ctx.across(self.p) - ctx.across(self.n)
        g, dg = self._conductance(control)
        current = g * v
        ctx.add_through(ip, in_, current)
        ctx.add_through_jac(ip, in_, ip, g)
        ctx.add_through_jac(ip, in_, in_, -g)
        ctx.add_through_jac(ip, in_, icp, dg * v)
        ctx.add_through_jac(ip, in_, icn, -dg * v)

    def record(self, ctx: StampContext) -> dict[str, float]:
        control = ctx.across(self.cp) - ctx.across(self.cn)
        g, _ = self._conductance(control)
        return {
            f"i({self.name})": g * (ctx.across(self.p) - ctx.across(self.n)),
            f"state({self.name})": 1.0 if control >= self.threshold else 0.0,
        }

    def describe(self) -> str:
        return f"vth={self.threshold:g} ron={self.r_on:g} roff={self.r_off:g}"
