"""Device base classes and the stamping contract.

Every device implements three methods used by the analyses:

``stamp(ctx)``
    Add the device's contribution to the residual and Jacobian of the real
    (OP / DC-sweep / transient) system at the iterate ``ctx.x``.
``stamp_ac(ctx)``
    Add the device's linearized complex admittance (and AC excitation for
    sources) to the small-signal system at ``ctx.omega``, evaluated around
    the operating point stored in the context.
``record(ctx)``
    Return named output quantities (branch currents, internal states,
    forces) to be stored alongside the node across values in the analysis
    results.  Keys follow the SPICE convention ``i(<name>)`` where sensible.

Devices are immutable after construction; all per-analysis state lives in
the context/integrator so the same circuit object can be analysed many times
and from multiple analyses without interference.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping

from ...errors import DeviceError
from ..mna import ACStampContext, StampContext
from ..netlist import Node

__all__ = ["Device", "TwoTerminalDevice"]


class Device(ABC):
    """Abstract netlist device."""

    #: Tunable-parameter protocol: maps public parameter name -> instance
    #: attribute.  Subclasses list the parameters whose residual dependence
    #: they can express through plain arithmetic -- the sensitivity layer
    #: temporarily replaces these attributes with AD duals to obtain the
    #: exact ``d residual / d parameter`` during a seeded assembly.
    _TUNABLE: Mapping[str, str] = {}

    #: Whether :meth:`stamp` broadcasts over a batched lane axis: the device
    #: must tolerate its tunable parameters and every context accessor
    #: returning ``(B,)`` NumPy arrays instead of floats (no ``float()``
    #: casts, no value-dependent branching, no AD duals).  Devices that stay
    #: False are stamped per lane by the batched assembler.
    batch_safe = False

    #: Whether the device stamps through shared compiled stamp functions
    #: (behavioral models): a system holding one assembles through a stamp
    #: program (:mod:`repro.hdl.compile.runtime`) instead of calling every
    #: :meth:`stamp` in turn.
    compiled_stamps = False

    def __init__(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise DeviceError(f"device name must be a non-empty string, got {name!r}")
        self.name = name

    # -- tunable parameters ------------------------------------------------------
    def parameter_names(self) -> tuple[str, ...]:
        """Parameters this device exposes to the sensitivity layer."""
        return tuple(self._TUNABLE)

    def get_parameter(self, name: str):
        """Current value of a tunable parameter."""
        attr = self._TUNABLE.get(name)
        if attr is None:
            raise DeviceError(
                f"device {self.name!r} has no tunable parameter {name!r} "
                f"(available: {sorted(self._TUNABLE) or 'none'})")
        return getattr(self, attr)

    def set_parameter(self, name: str, value) -> None:
        """Set a tunable parameter; ``value`` may be an AD dual (seeding)."""
        attr = self._TUNABLE.get(name)
        if attr is None:
            raise DeviceError(
                f"device {self.name!r} has no tunable parameter {name!r} "
                f"(available: {sorted(self._TUNABLE) or 'none'})")
        setattr(self, attr, value)

    # -- topology ----------------------------------------------------------------
    @abstractmethod
    def nodes(self) -> tuple[Node, ...]:
        """The nodes this device connects to (including ground if used)."""

    def aux_names(self) -> tuple[str, ...]:
        """Names of auxiliary unknowns (branch currents, implicit equations)."""
        return ()

    # -- stamping ----------------------------------------------------------------
    @abstractmethod
    def stamp(self, ctx: StampContext) -> None:
        """Stamp residual and Jacobian contributions for OP/DC/transient."""

    @abstractmethod
    def stamp_ac(self, ctx: ACStampContext) -> None:
        """Stamp the small-signal admittance (and AC sources) at ``ctx.omega``."""

    # -- outputs -----------------------------------------------------------------
    def record(self, ctx: StampContext) -> dict[str, float]:
        """Named outputs stored per analysis point (default: none)."""
        return {}

    def describe(self) -> str:
        """Short parameter summary used by :meth:`Circuit.summary`."""
        return ""

    def __repr__(self) -> str:
        pins = ",".join(str(node) for node in self.nodes())
        return f"{type(self).__name__}({self.name!r}, [{pins}])"


class TwoTerminalDevice(Device):
    """Convenience base class for devices with a single (p, n) terminal pair."""

    def __init__(self, name: str, p: Node, n: Node) -> None:
        super().__init__(name)
        if not isinstance(p, Node) or not isinstance(n, Node):
            raise DeviceError(f"device {name!r}: terminals must be Node objects")
        if p is n:
            raise DeviceError(f"device {name!r}: both terminals connect to node {p.name!r}")
        self.p = p
        self.n = n

    def nodes(self) -> tuple[Node, ...]:
        return (self.p, self.n)

    def branch_across(self, ctx: StampContext) -> float:
        """Across difference v(p) - v(n) at the current iterate."""
        return ctx.across(self.p) - ctx.across(self.n)
