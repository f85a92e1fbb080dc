"""Independent voltage and current sources.

Sources carry a :class:`~repro.circuit.waveforms.Waveform` for the
large-signal (DC/transient) value plus an optional AC magnitude/phase used
only by the AC small-signal analysis (the classic SPICE separation).

The ``source_scale`` factor of the stamping context implements source
stepping: when the operating-point Newton iteration fails to converge the
solver ramps every independent source from 0 to its nominal value in steps,
a standard homotopy that the strongly nonlinear electrostatic-transducer
bias points occasionally need.
"""

from __future__ import annotations

import math

from ...errors import DeviceError
from ..mna import ACStampContext, StampContext
from ..netlist import Node
from ..waveforms import DC, Waveform, ensure_waveform
from .base import TwoTerminalDevice

__all__ = ["VoltageSource", "CurrentSource"]


def _phasor(source) -> complex:
    """The AC phasor ``ac * exp(j * phase)`` of an independent source."""
    phase = math.radians(source.ac_phase_deg)
    return source.ac * complex(math.cos(phase), math.sin(phase))


class _DCLevelParameter:
    """Shared ``"dc"`` tunable-parameter implementation for sources.

    Only meaningful while the source carries a :class:`DC` waveform -- the
    level then becomes a design/sensitivity parameter (e.g. the bias voltage
    of an electrostatic transducer).  Time-shaped waveforms expose no
    tunable parameters.
    """

    def parameter_names(self) -> tuple[str, ...]:
        return ("dc",) if isinstance(self.waveform, DC) else ()

    def get_parameter(self, name: str):
        if name != "dc" or not isinstance(self.waveform, DC):
            raise DeviceError(
                f"source {self.name!r} has no tunable parameter {name!r} "
                f"(only DC-waveform sources expose 'dc')")
        return self.waveform.level

    def set_parameter(self, name: str, value) -> None:
        if name != "dc" or not isinstance(self.waveform, DC):
            raise DeviceError(
                f"source {self.name!r} has no tunable parameter {name!r} "
                f"(only DC-waveform sources expose 'dc')")
        # DC is a frozen dataclass with no coercion, so an AD dual survives
        # and flows through ``waveform.value(t)`` into the stamp.
        self.waveform = DC(value)


class VoltageSource(_DCLevelParameter, TwoTerminalDevice):
    """Ideal independent voltage source; branch current is an aux unknown.

    The branch current is positive when flowing from ``p`` through the source
    to ``n`` (SPICE convention: a positive current means the source is
    absorbing power).
    """

    batch_safe = True

    def __init__(self, name: str, p: Node, n: Node, waveform: Waveform | float = 0.0,
                 ac: float = 0.0, ac_phase_deg: float = 0.0) -> None:
        super().__init__(name, p, n)
        self.waveform = ensure_waveform(waveform)
        self.ac = float(ac)
        self.ac_phase_deg = float(ac_phase_deg)

    def aux_names(self) -> tuple[str, ...]:
        return ("i",)

    def value_at(self, t: float) -> float:
        """Large-signal source value at time ``t``."""
        return self.waveform.value(t)

    def stamp(self, ctx: StampContext) -> None:
        ip = ctx.node_index(self.p)
        in_ = ctx.node_index(self.n)
        ib = ctx.aux_index(self, "i")
        current = ctx.unknown_value(ib)
        ctx.add_through(ip, in_, current)
        ctx.add_through_jac(ip, in_, ib, 1.0)
        target = self.waveform.value(ctx.time) * ctx.source_scale
        ctx.add_res(ib, ctx.across(self.p) - ctx.across(self.n) - target)
        ctx.add_jac(ib, ip, 1.0)
        ctx.add_jac(ib, in_, -1.0)

    def ac_excitation(self, ctx: ACStampContext) -> None:
        if self.ac != 0.0:
            ctx.add_rhs(ctx.aux_index(self, "i"), _phasor(self))

    def record(self, ctx: StampContext) -> dict[str, float]:
        current = ctx.aux_value(self, "i")
        return {
            f"i({self.name})": current,
            f"p({self.name})": current * self.branch_across(ctx),
        }

    def describe(self) -> str:
        return f"V={self.waveform.value(0.0):g} ({type(self.waveform).__name__})"


class CurrentSource(_DCLevelParameter, TwoTerminalDevice):
    """Ideal independent current source; current flows from ``p`` to ``n``."""

    batch_safe = True

    def __init__(self, name: str, p: Node, n: Node, waveform: Waveform | float = 0.0,
                 ac: float = 0.0, ac_phase_deg: float = 0.0) -> None:
        super().__init__(name, p, n)
        self.waveform = ensure_waveform(waveform)
        self.ac = float(ac)
        self.ac_phase_deg = float(ac_phase_deg)

    def value_at(self, t: float) -> float:
        """Large-signal source value at time ``t``."""
        return self.waveform.value(t)

    def stamp(self, ctx: StampContext) -> None:
        ip = ctx.node_index(self.p)
        in_ = ctx.node_index(self.n)
        current = self.waveform.value(ctx.time) * ctx.source_scale
        ctx.add_through(ip, in_, current)

    def ac_excitation(self, ctx: ACStampContext) -> None:
        if self.ac == 0.0:
            return
        phasor = _phasor(self)
        # The source injects current into node n and removes it from node p
        # (flow from p to n through the source), hence the right-hand side
        # signs below (rhs = -residual contribution).
        ctx.add_rhs(ctx.node_index(self.p), -phasor)
        ctx.add_rhs(ctx.node_index(self.n), phasor)

    def record(self, ctx: StampContext) -> dict[str, float]:
        return {f"i({self.name})": self.waveform.value(ctx.time) * ctx.source_scale}

    def describe(self) -> str:
        return f"I={self.waveform.value(0.0):g} ({type(self.waveform).__name__})"
