"""Linear passive devices: resistor, capacitor, inductor.

These are the workhorses of both the electrical part of the netlists and,
through the force-current analogy, of the mechanical resonator (the
mechanical elements in :mod:`repro.circuit.devices.mechanical` are thin
subclasses).  Stamps follow the residual/Jacobian convention documented in
:mod:`repro.circuit.mna`.
"""

from __future__ import annotations

from ...errors import DeviceError
from ..mna import StampContext
from ..netlist import Node
from .base import TwoTerminalDevice

__all__ = ["Resistor", "Capacitor", "Inductor"]


class Resistor(TwoTerminalDevice):
    """Linear resistor ``i = (v(p) - v(n)) / R``."""

    _TUNABLE = {"resistance": "resistance"}
    batch_safe = True
    batch_grouped = True

    def __init__(self, name: str, p: Node, n: Node, resistance: float) -> None:
        super().__init__(name, p, n)
        if resistance <= 0.0:
            raise DeviceError(f"resistor {name!r}: resistance must be positive")
        self.resistance = float(resistance)

    @property
    def conductance(self) -> float:
        """Conductance 1/R."""
        return 1.0 / self.resistance

    def stamp(self, ctx: StampContext) -> None:
        g = self.conductance
        ip = ctx.node_index(self.p)
        in_ = ctx.node_index(self.n)
        current = g * self.branch_across(ctx)
        ctx.add_through(ip, in_, current)
        ctx.add_through_jac(ip, in_, ip, g)
        ctx.add_through_jac(ip, in_, in_, -g)

    def record(self, ctx: StampContext) -> dict[str, float]:
        return {f"i({self.name})": self.conductance * self.branch_across(ctx)}

    def describe(self) -> str:
        return f"R={self.resistance:g}"


class Capacitor(TwoTerminalDevice):
    """Linear capacitor ``i = C * d(v(p) - v(n))/dt``.

    At DC the capacitor is an open circuit.  ``ic`` optionally records an
    initial voltage used when a transient analysis is started with
    ``use_ic=True`` (skip-OP start).
    """

    _TUNABLE = {"capacitance": "capacitance"}
    batch_safe = True
    batch_grouped = True

    def __init__(self, name: str, p: Node, n: Node, capacitance: float,
                 ic: float | None = None) -> None:
        super().__init__(name, p, n)
        if capacitance <= 0.0:
            raise DeviceError(f"capacitor {name!r}: capacitance must be positive")
        self.capacitance = float(capacitance)
        self.ic = None if ic is None else float(ic)

    def _state_key(self):
        return (self.name, "v")

    def stamp(self, ctx: StampContext) -> None:
        ip = ctx.node_index(self.p)
        in_ = ctx.node_index(self.n)
        v = self.branch_across(ctx)
        dvdt = ctx.ddt(self._state_key(), v)
        current = self.capacitance * dvdt
        c0 = ctx.ddt_coefficient()
        ctx.add_through(ip, in_, current)
        geq = self.capacitance * c0
        ctx.add_through_jac(ip, in_, ip, geq)
        ctx.add_through_jac(ip, in_, in_, -geq)

    def record(self, ctx: StampContext) -> dict[str, float]:
        v = self.branch_across(ctx)
        ctx.ddt(self._state_key(), v)  # refresh the stamp's state
        return {
            f"v({self.name})": v,
            f"q({self.name})": self.capacitance * v,
        }

    def describe(self) -> str:
        return f"C={self.capacitance:g}"


class Inductor(TwoTerminalDevice):
    """Linear inductor with its branch current as an auxiliary unknown.

    Branch equation: ``v(p) - v(n) - L * di/dt = 0``; the branch current is
    positive flowing from ``p`` through the inductor to ``n``.  At DC the
    inductor is a short circuit.
    """

    _TUNABLE = {"inductance": "inductance"}
    batch_safe = True
    batch_grouped = True

    def __init__(self, name: str, p: Node, n: Node, inductance: float,
                 ic: float | None = None) -> None:
        super().__init__(name, p, n)
        if inductance <= 0.0:
            raise DeviceError(f"inductor {name!r}: inductance must be positive")
        self.inductance = float(inductance)
        self.ic = None if ic is None else float(ic)

    def aux_names(self) -> tuple[str, ...]:
        return ("i",)

    def _state_key(self):
        return (self.name, "i")

    def stamp(self, ctx: StampContext) -> None:
        ip = ctx.node_index(self.p)
        in_ = ctx.node_index(self.n)
        ib_index = ctx.aux_index(self, "i")
        current = ctx.unknown_value(ib_index)
        # KCL: branch current leaves p, enters n.
        ctx.add_through(ip, in_, current)
        ctx.add_through_jac(ip, in_, ib_index, 1.0)
        # Branch equation v(p) - v(n) - L di/dt = 0.
        didt = ctx.ddt(self._state_key(), current)
        c0 = ctx.ddt_coefficient()
        residual = self.branch_across(ctx) - self.inductance * didt
        ctx.add_res(ib_index, residual)
        ctx.add_jac(ib_index, ip, 1.0)
        ctx.add_jac(ib_index, in_, -1.0)
        ctx.add_jac(ib_index, ib_index, -self.inductance * c0)

    def record(self, ctx: StampContext) -> dict[str, float]:
        current = ctx.aux_value(self, "i")
        ctx.ddt(self._state_key(), current)  # refresh the stamp's state
        return {
            f"i({self.name})": current,
            f"flux({self.name})": self.inductance * current,
        }

    def describe(self) -> str:
        return f"L={self.inductance:g}"
