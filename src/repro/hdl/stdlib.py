"""Built-in functions available inside HDL-A expressions.

Two groups exist:

* **analog operators** (``ddt``, ``integ``/``idt``) -- handled specially by
  the elaborator because they need the analysis context and a stable state
  key (taken from the call site's AST node id),
* **pure functions** -- ordinary math (``sqrt``, ``exp``, ``sin`` ...),
  ``min``/``max``/``abs``/``limit`` and the ``table1d`` piecewise-linear
  interpolation used by PXT-generated macromodels.  All of them accept dual
  numbers so the behavioral Jacobians stay exact.
"""

from __future__ import annotations

from typing import Callable

from ..ad import functions as adf
from ..ad.dual import Dual
from ..errors import HDLElaborationError

__all__ = ["BUILTIN_FUNCTIONS", "ANALOG_OPERATORS", "table1d", "limit"]

#: Names handled by the elaborator itself (need the behaviour context).
ANALOG_OPERATORS = frozenset({"ddt", "integ", "idt"})


def _value(x) -> float:
    return float(getattr(x, "value", x))


def table1d(x, *breakpoints):
    """Piecewise-linear interpolation ``table1d(x, x1, y1, x2, y2, ...)``.

    Outside the table the first/last segment is extrapolated, matching the
    behaviour of the piecewise-linear macromodels generated by PXT ("a
    piecewise linear behavioral macro model is created").  The breakpoint
    abscissae must be strictly increasing numeric literals.
    """
    if len(breakpoints) < 4 or len(breakpoints) % 2 != 0:
        raise HDLElaborationError(
            "table1d needs an even number (>= 4) of breakpoint arguments")
    xs = [_value(breakpoints[i]) for i in range(0, len(breakpoints), 2)]
    ys = list(breakpoints[1::2])
    if any(b >= a for a, b in zip(xs[1:], xs[:-1])):
        raise HDLElaborationError("table1d breakpoints must be strictly increasing")
    xv = _value(x)
    # Choose the active segment by value, then interpolate with dual-friendly
    # arithmetic so the sensitivity of x propagates through.
    index = 0
    for k in range(len(xs) - 1):
        if xv >= xs[k]:
            index = k
    x0, x1 = xs[index], xs[index + 1]
    y0, y1 = ys[index], ys[index + 1]
    slope = (y1 - y0) / (x1 - x0)
    return y0 + slope * (x - x0)


def limit(x, lower, upper):
    """Clamp ``x`` between ``lower`` and ``upper`` (sub-gradient convention)."""
    # No float(): traced bounds compare to a guard-recording TraceBool.
    if getattr(lower, "value", lower) > getattr(upper, "value", upper):
        raise HDLElaborationError("limit(): lower bound exceeds upper bound")
    return adf.maximum(lower, adf.minimum(x, upper))


def _sign(x):
    return adf.sign(x)


#: Pure functions callable from HDL expressions.
BUILTIN_FUNCTIONS: dict[str, Callable] = {
    "sqrt": adf.sqrt,
    "exp": adf.exp,
    "log": adf.log,
    "ln": adf.log,
    "sin": adf.sin,
    "cos": adf.cos,
    "tan": adf.tan,
    "sinh": adf.sinh,
    "cosh": adf.cosh,
    "tanh": adf.tanh,
    "atan": adf.atan,
    "arctan": adf.atan,
    "asin": adf.asin,
    "acos": adf.acos,
    "abs": adf.absolute,
    "sign": _sign,
    "min": adf.minimum,
    "max": adf.maximum,
    "hypot": adf.hypot,
    "table1d": table1d,
    "limit": limit,
}
