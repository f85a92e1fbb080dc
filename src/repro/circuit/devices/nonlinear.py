"""Nonlinear two-terminal primitives (junction diode).

The diode is not needed by the paper's transducer netlists themselves but it
exercises the Newton machinery (exponential nonlinearity, junction-voltage
limiting, gmin) and is used by the test suite and by the electronics examples
(e.g. a rectifying readout around the transducer).
"""

from __future__ import annotations

import math

import numpy as np

from ...ad import exp as _ad_exp, value_of
from ...constants import THERMAL_VOLTAGE
from ...errors import DeviceError
from ..mna import ACStampContext, StampContext
from ..netlist import Node
from .base import TwoTerminalDevice

__all__ = ["Diode"]

#: Above this junction voltage the exponential is continued linearly to keep
#: the Newton iteration from overflowing (standard SPICE-style limiting).
_EXPLOSION_LIMIT = 80.0


class Diode(TwoTerminalDevice):
    """Ideal exponential junction diode ``i = Is * (exp(v/(n*Vt)) - 1)``."""

    _TUNABLE = {"saturation_current": "saturation_current",
                "emission_coefficient": "emission_coefficient",
                "vt": "vt"}
    batch_safe = True
    batch_grouped = True

    def __init__(self, name: str, p: Node, n: Node, saturation_current: float = 1e-14,
                 emission_coefficient: float = 1.0, temperature_voltage: float = THERMAL_VOLTAGE) -> None:
        super().__init__(name, p, n)
        if saturation_current <= 0.0:
            raise DeviceError(f"diode {name!r}: saturation current must be positive")
        if emission_coefficient <= 0.0:
            raise DeviceError(f"diode {name!r}: emission coefficient must be positive")
        self.saturation_current = float(saturation_current)
        self.emission_coefficient = float(emission_coefficient)
        self.vt = float(temperature_voltage)

    def _current_and_conductance(self, v) -> tuple[float, float]:
        # Written on dual-aware arithmetic so seeded sensitivity assemblies
        # (v or the device parameters carrying AD duals) stay exact; plain
        # floats take the identical math.exp path inside ad.exp.
        nvt = self.emission_coefficient * self.vt
        arg = v / nvt
        if isinstance(arg, np.ndarray):
            # Batched lanes: the scalar limiting below vectorizes as a
            # where() blend with the exponent clipped so no lane overflows.
            exp_lim = math.exp(_EXPLOSION_LIMIT)
            over = arg > _EXPLOSION_LIMIT
            exp_term = np.exp(np.where(over, _EXPLOSION_LIMIT, arg))
            current = self.saturation_current * np.where(
                over, exp_lim * (1.0 + arg - _EXPLOSION_LIMIT) - 1.0,
                exp_term - 1.0)
            conductance = np.where(
                over, self.saturation_current * exp_lim / nvt,
                self.saturation_current * exp_term / nvt)
            return current, conductance
        if value_of(arg) > _EXPLOSION_LIMIT:
            # Linear continuation beyond the explosion limit keeps the Newton
            # update finite while preserving C1 continuity.
            exp_lim = math.exp(_EXPLOSION_LIMIT)
            current = self.saturation_current * (exp_lim * (1.0 + arg - _EXPLOSION_LIMIT) - 1.0)
            conductance = self.saturation_current * exp_lim / nvt
        else:
            exp_term = _ad_exp(arg)
            current = self.saturation_current * (exp_term - 1.0)
            conductance = self.saturation_current * exp_term / nvt
        return current, conductance

    def stamp(self, ctx: StampContext) -> None:
        ip, in_ = ctx.node_index(self.p), ctx.node_index(self.n)
        v = self.branch_across(ctx)
        current, conductance = self._current_and_conductance(v)
        ctx.add_through(ip, in_, current)
        ctx.add_through_jac(ip, in_, ip, conductance)
        ctx.add_through_jac(ip, in_, in_, -conductance)

    def stamp_ac(self, ctx: ACStampContext) -> None:
        v = ctx.op_across(self.p) - ctx.op_across(self.n)
        _, conductance = self._current_and_conductance(v)
        ip, in_ = ctx.node_index(self.p), ctx.node_index(self.n)
        ctx.add(ip, ip, conductance)
        ctx.add(ip, in_, -conductance)
        ctx.add(in_, ip, -conductance)
        ctx.add(in_, in_, conductance)

    def record(self, ctx: StampContext) -> dict[str, float]:
        current, _ = self._current_and_conductance(self.branch_across(ctx))
        return {f"i({self.name})": current}

    def describe(self) -> str:
        return f"Is={self.saturation_current:g} n={self.emission_coefficient:g}"
