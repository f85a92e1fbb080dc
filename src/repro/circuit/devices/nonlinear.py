"""Nonlinear two-terminal primitives (junction diode).

The diode is not needed by the paper's transducer netlists themselves but it
exercises the Newton machinery (exponential nonlinearity, gmin) and is used
by the test suite and by the electronics examples (e.g. a rectifying readout
around the transducer).

Inside a Newton solve the diode limits its junction voltage with SPICE3's
``pnjlim`` (Nagel, *SPICE2*, UCB ERL-M520, 1975; :func:`pnjlim`): a forward
step is cut to a logarithmic one, and the diode evaluates and linearizes at
the limited voltage.  The solve owns the previous limited voltage and hands
it to the stamp through the context's ``limits``
(:class:`~repro.circuit.mna.LimitState`); every other assembly (output
records, AC, sensitivities) evaluates the exact exponential at ``x``.
"""

from __future__ import annotations

import math

import numpy as np

from ...ad import exp as _ad_exp, value_of
from ...constants import THERMAL_VOLTAGE
from ...errors import DeviceError
from ..mna import StampContext
from ..netlist import Node
from .base import TwoTerminalDevice

__all__ = ["Diode", "pnjlim"]

#: Above ``v / (n Vt)`` = this the exponential is continued linearly, so no
#: evaluation overflows.  It is only an overflow guard: Newton steps are
#: steered by the junction limiting of :func:`pnjlim`.
_EXPLOSION_LIMIT = 80.0


def pnjlim(v_new, v_old, vt, v_crit):
    """SPICE3 ``DEVpnjlim`` junction-voltage limiting, elementwise.

    Above ``v_crit`` a step of more than ``2 vt`` from the previous
    junction voltage ``v_old`` is cut: from a forward-biased ``v_old`` to
    ``v_old + vt ln(1 + (v_new - v_old) / vt)`` (to ``v_crit`` when that
    logarithm's argument is not positive), from ``v_old <= 0`` to
    ``vt ln(v_new / vt)``.  Works on floats and on broadcasting arrays
    alike; returns ``(v_lim, limited)``, where ``v_lim`` is ``v_new`` itself
    wherever ``limited`` is False.
    """
    limited = (v_new > v_crit) & (abs(v_new - v_old) > vt + vt)
    if not (limited.any() if isinstance(limited, np.ndarray) else limited):
        return v_new, limited
    arg = 1.0 + (v_new - v_old) / vt
    # Logarithms of positive stand-ins where a branch is not taken (and
    # for v_new <= 0 under a negative v_crit, where SPICE's log is NaN).
    v_lim = np.where(
        v_old > 0.0,
        np.where(arg > 0.0, v_old + vt * np.log(np.where(arg > 0.0, arg, 1.0)),
                 v_crit),
        vt * np.log(np.where(v_new > 0.0, v_new, vt) / vt))
    return np.where(limited, v_lim, v_new), limited


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
        if temperature_voltage <= 0.0:
            raise DeviceError(f"diode {name!r}: temperature voltage must be positive")
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
            # Batched lanes: the scalar continuation below vectorizes as a
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

    def _limit(self, v, v_old):
        """:func:`pnjlim` at this diode's ``n Vt`` and critical voltage."""
        nvt = self.emission_coefficient * self.vt
        ratio = nvt / (math.sqrt(2.0) * self.saturation_current)
        # A group view's parameters are (k, B) blocks; a device's are floats.
        log = np.log if isinstance(ratio, np.ndarray) else math.log
        return pnjlim(v, v_old, nvt, nvt * log(ratio))

    def stamp(self, ctx: StampContext) -> None:
        ip, in_ = ctx.node_index(self.p), ctx.node_index(self.n)
        v = self.branch_across(ctx)
        v_j = v if ctx.limits is None else ctx.limits.limit(self, v, self._limit)
        current, conductance = self._current_and_conductance(v_j)
        if v_j is not v:
            # Linearized at the limited voltage: I(v_j) + G(v_j) (v - v_j).
            current = current + conductance * (v - v_j)
        ctx.add_through(ip, in_, current)
        ctx.add_through_jac(ip, in_, ip, conductance)
        ctx.add_through_jac(ip, in_, in_, -conductance)

    def record(self, ctx: StampContext) -> dict[str, float]:
        current, _ = self._current_and_conductance(self.branch_across(ctx))
        return {f"i({self.name})": current}

    def describe(self) -> str:
        return f"Is={self.saturation_current:g} n={self.emission_coefficient:g}"
