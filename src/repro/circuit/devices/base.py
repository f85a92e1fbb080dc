"""Device base classes and the stamping contract.

Every device implements two methods used by the analyses:

``stamp(ctx)``
    Add the device's contribution to the residual and Jacobian at the
    iterate ``ctx.x``.  The one stamp serves every analysis: OP, DC sweep
    and transient assemble the real system through a
    :class:`~repro.circuit.mna.StampContext`; AC runs the same stamp
    through an :class:`~repro.circuit.mna.ACStampContext` linearized at the
    operating point, whose ``ddt_coefficient()`` is ``s`` and whose
    Jacobian is the small-signal matrix as real coefficients of the powers
    of ``s``.  Independent sources add their AC phasor in
    :meth:`Device.ac_excitation`.
``record(ctx)``
    Return named output quantities (branch currents, internal states,
    forces) to be stored alongside the node across values in the analysis
    results.  Keys follow the SPICE convention ``i(<name>)`` where sensible.
    The context sits at a solution and is not assembled: ``record`` must
    make every ``ctx.ddt``/``ctx.integ`` call ``stamp`` makes there, since
    this pass alone refreshes the pending states of an accepted time step.

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

    #: Whether :meth:`stamp` and :meth:`record` broadcast over a batched
    #: lane axis (:mod:`repro.circuit.analysis.batch`): the device must
    #: tolerate its tunable parameters and every context accessor returning
    #: ``(B,)`` NumPy arrays instead of floats -- no ``float()`` casts, no
    #: value-dependent branching (the calls a stamp makes must not depend
    #: on values), no AD duals.  Devices that stay False are stamped and
    #: recorded per lane by the batched drivers.
    batch_safe = False

    #: Whether batch-safe instances of one class stamp together through a
    #: single *group view* of ``k`` members: a shallow copy of the first
    #: member whose terminals are ``(k,)`` index columns (ground mapped to
    #: a padding slot), whose auxiliary unknowns are index columns too, and
    #: whose ``_TUNABLE`` attributes -- of the class and its bases -- hold
    #: the members' values stacked lanes-last as ``(k, 1)`` or ``(k, B)``
    #: columns; context reads through index columns return ``(k, B)``
    #: blocks.  The stamp must then read nothing else of the device: no
    #: per-device objects (waveforms, dicts), only the context accessors
    #: and those attributes.  A subclass that overrides :meth:`stamp` must
    #: reset it.
    batch_grouped = False

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

    def batch_safe_for(self, options) -> bool:
        """:attr:`batch_safe` under a specific options object."""
        return self.batch_safe

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

    def ac_excitation(self, ctx: ACStampContext) -> None:
        """Add the device's AC phasor to ``ctx.rhs`` (default: none)."""

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
