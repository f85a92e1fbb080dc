"""Mechanical one-port elements in the force-current analogy.

In the FI analogy used throughout the paper (mechanical and electrical nets
share the same topology):

* the across variable of a mechanical node is its **velocity** [m/s],
* the through variable of a branch is the **force** [N] transmitted by it,
* a point **mass** behaves like a capacitor to the inertial frame
  (``f = m * dv/dt``),
* a **spring** behaves like an inductor (``v_rel = (1/k) * df/dt``),
* a viscous **damper** behaves like a resistor (``f = alpha * v_rel``),
* an ideal **force source** is a current source, an ideal **velocity source**
  a voltage source.

The classes below subclass the corresponding electrical primitives so the
stamps (and their extensive tests) are shared, while exposing the mechanical
parameter names and natural recorded outputs (force, displacement).
Displacement is obtained by integrating the node velocity with the analysis
integrator, so ``x(<name>)`` appears in transient results without any
numerical post-processing by the user.
"""

from __future__ import annotations

from ...errors import DeviceError
from ..mna import StampContext
from ..netlist import Node
from ..waveforms import Waveform
from .passive import Capacitor, Inductor, Resistor
from .sources import CurrentSource, VoltageSource

__all__ = ["Mass", "Spring", "Damper", "ForceSource", "VelocitySource"]


class Mass(Capacitor):
    """Point mass between a mechanical node and the inertial reference frame.

    ``force = mass * d(velocity)/dt``; identical stamp to a capacitor of value
    ``mass`` connected to ground.
    """

    _TUNABLE = {"mass": "mass"}

    def __init__(self, name: str, node: Node, reference: Node, mass: float) -> None:
        if mass <= 0.0:
            raise DeviceError(f"mass {name!r}: mass must be positive")
        if not reference.is_ground:
            raise DeviceError(
                f"mass {name!r}: a point mass must reference the inertial frame (ground)")
        super().__init__(name, node, reference, mass)
        self.mass = float(mass)

    def set_parameter(self, name: str, value) -> None:
        super().set_parameter(name, value)
        self.capacitance = value  # the FI-analogy stamp reads the capacitance

    def record(self, ctx: StampContext) -> dict[str, float]:
        velocity = self.branch_across(ctx)
        displacement = ctx.integ((self.name, "x"), velocity)
        acceleration = ctx.ddt(self._state_key(), velocity)  # the stamp's own state
        return {
            f"v({self.name})": velocity,
            f"x({self.name})": getattr(displacement, "value", displacement),
            f"f({self.name})": self.mass * getattr(acceleration, "value",
                                                   acceleration),
        }

    def describe(self) -> str:
        return f"m={self.mass:g}"


class Spring(Inductor):
    """Linear spring of stiffness ``k`` [N/m] between two mechanical nodes.

    The transmitted force is the auxiliary branch unknown; the branch
    equation is ``v(p) - v(n) = (1/k) * d(force)/dt`` which is the FI-analogy
    inductor with ``L = 1/k``.
    """

    _TUNABLE = {"stiffness": "stiffness"}

    def __init__(self, name: str, p: Node, n: Node, stiffness: float) -> None:
        if stiffness <= 0.0:
            raise DeviceError(f"spring {name!r}: stiffness must be positive")
        super().__init__(name, p, n, 1.0 / stiffness)
        self.stiffness = float(stiffness)

    def set_parameter(self, name: str, value) -> None:
        super().set_parameter(name, value)
        self.inductance = 1.0 / value  # the FI-analogy stamp reads L = 1/k

    def record(self, ctx: StampContext) -> dict[str, float]:
        force = ctx.aux_value(self, "i")
        ctx.ddt(self._state_key(), force)  # refresh the stamp's state
        return {
            f"f({self.name})": force,
            f"x({self.name})": force / self.stiffness,
        }

    def describe(self) -> str:
        return f"k={self.stiffness:g}"


class Damper(Resistor):
    """Viscous damper ``f = alpha * (v(p) - v(n))`` (FI analogy: R = 1/alpha)."""

    _TUNABLE = {"damping": "damping"}

    def __init__(self, name: str, p: Node, n: Node, damping: float) -> None:
        if damping <= 0.0:
            raise DeviceError(f"damper {name!r}: damping coefficient must be positive")
        super().__init__(name, p, n, 1.0 / damping)
        self.damping = float(damping)

    def set_parameter(self, name: str, value) -> None:
        super().set_parameter(name, value)
        self.resistance = 1.0 / value  # the FI-analogy stamp reads R = 1/alpha

    def record(self, ctx: StampContext) -> dict[str, float]:
        return {f"f({self.name})": self.damping * self.branch_across(ctx)}

    def describe(self) -> str:
        return f"alpha={self.damping:g}"


class ForceSource(CurrentSource):
    """Ideal force source applying a force ``+F`` to node ``p`` (reacting on ``n``).

    The sign convention is the mechanically intuitive one: a positive source
    value pushes node ``p`` in the positive direction.  In the underlying
    FI-analogy stamp this is a current source injecting into ``p``, i.e. the
    electrical source with its terminals swapped.
    """

    def __init__(self, name: str, p: Node, n: Node, waveform: Waveform | float = 0.0,
                 ac: float = 0.0, ac_phase_deg: float = 0.0) -> None:
        # Swap the terminals handed to the CurrentSource stamp so that a
        # positive force is injected INTO node p.
        super().__init__(name, n, p, waveform, ac=ac, ac_phase_deg=ac_phase_deg)
        self.applied_node = p
        self.reaction_node = n

    def record(self, ctx: StampContext) -> dict[str, float]:
        return {f"f({self.name})": self.waveform.value(ctx.time) * ctx.source_scale}

    def describe(self) -> str:
        return f"F={self.waveform.value(0.0):g}"


class VelocitySource(VoltageSource):
    """Ideal velocity source imposing ``v(p) - v(n)``; reaction force recorded."""

    def __init__(self, name: str, p: Node, n: Node, waveform: Waveform | float = 0.0) -> None:
        super().__init__(name, p, n, waveform)

    def record(self, ctx: StampContext) -> dict[str, float]:
        return {f"f({self.name})": ctx.aux_value(self, "i")}

    def describe(self) -> str:
        return f"U={self.waveform.value(0.0):g}"
