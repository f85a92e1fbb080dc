"""Dual numbers with vector (and optionally complex) derivative parts.

A :class:`Dual` carries a value ``x`` and a derivative vector ``dx`` holding
the partial derivatives of ``x`` with respect to a chosen set of seed
variables.  Arithmetic propagates the derivatives by the chain rule, so any
plain Python/numpy scalar expression evaluated on duals yields the expression
value *and* its exact gradient in one pass.

Design notes
------------
* The derivative part is always a 1-D numpy array.  Scalars passed as the
  derivative are promoted to length-1 arrays.
* The derivative dtype may be complex; the arithmetic needs no special
  cases for it.  (The AC small-signal linearization does not use it: it
  seeds real derivatives laid out as coefficients of the powers of ``s``.)
* Comparison operators compare values only, so existing ``if x > 0`` style
  model code keeps working on duals (the derivative of a piecewise function
  is taken on the active branch, the standard sub-gradient convention).
"""

from __future__ import annotations

import math
import numbers
from typing import Any

import numpy as np

__all__ = ["Dual", "seed", "seed_many", "seed_dict", "value_of",
           "derivative_of", "is_dual"]


def _as_deriv(deriv: Any, size: int | None = None) -> np.ndarray:
    array = np.atleast_1d(np.asarray(deriv))
    if array.ndim != 1:
        raise ValueError("derivative part must be one-dimensional")
    if size is not None and array.size != size:
        raise ValueError(f"derivative length {array.size} does not match expected {size}")
    return array


class Dual:
    """A first-order dual number ``value + sum_k deriv[k] * eps_k``."""

    __slots__ = ("value", "deriv")
    __array_priority__ = 100.0  # ensure numpy defers to our operators

    def __init__(self, value: float, deriv: Any = 0.0) -> None:
        self.value = float(value.real) if isinstance(value, complex) else float(value)
        self.deriv = _as_deriv(deriv)

    # -- construction helpers --------------------------------------------------
    @classmethod
    def constant(cls, value: float, nvars: int = 1) -> "Dual":
        """A dual with zero derivative of length ``nvars``."""
        return cls(value, np.zeros(nvars))

    @classmethod
    def variable(cls, value: float, index: int = 0, nvars: int = 1,
                 dtype: type = float) -> "Dual":
        """A seed variable: derivative is the ``index``-th unit vector."""
        deriv = np.zeros(nvars, dtype=dtype)
        deriv[index] = 1.0
        return cls(value, deriv)

    # -- helpers ---------------------------------------------------------------
    def _coerce(self, other: Any) -> "Dual | None":
        if isinstance(other, Dual):
            return other
        if isinstance(other, numbers.Real):
            return Dual(float(other), np.zeros_like(self.deriv))
        return None

    def __repr__(self) -> str:
        return f"Dual({self.value!r}, deriv={self.deriv!r})"

    # -- arithmetic --------------------------------------------------------------
    def __add__(self, other: Any) -> "Dual":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(self.value + o.value, self.deriv + o.deriv)

    __radd__ = __add__

    def __sub__(self, other: Any) -> "Dual":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(self.value - o.value, self.deriv - o.deriv)

    def __rsub__(self, other: Any) -> "Dual":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(o.value - self.value, o.deriv - self.deriv)

    def __mul__(self, other: Any) -> "Dual":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(self.value * o.value, self.value * o.deriv + o.value * self.deriv)

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> "Dual":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        inv = 1.0 / o.value
        value = self.value * inv
        return Dual(value, (self.deriv - value * o.deriv) * inv)

    def __rtruediv__(self, other: Any) -> "Dual":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, other: Any) -> "Dual":
        if isinstance(other, numbers.Real) and not isinstance(other, Dual):
            exponent = float(other)
            if exponent == 0.0:
                return Dual(1.0, np.zeros_like(self.deriv))
            value = self.value ** exponent
            return Dual(value, exponent * self.value ** (exponent - 1.0) * self.deriv)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.value <= 0.0:
            raise ValueError("dual ** dual requires a positive base")
        value = self.value ** o.value
        dval = value * (o.deriv * math.log(self.value) + o.value * self.deriv / self.value)
        return Dual(value, dval)

    def __rpow__(self, other: Any) -> "Dual":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__pow__(self)

    def __neg__(self) -> "Dual":
        return Dual(-self.value, -self.deriv)

    def __pos__(self) -> "Dual":
        return Dual(self.value, self.deriv.copy())

    def __abs__(self) -> "Dual":
        if self.value < 0.0:
            return -self
        return +self

    # -- comparisons (value only) ------------------------------------------------
    def __lt__(self, other: Any) -> bool:
        return self.value < _value(other)

    def __le__(self, other: Any) -> bool:
        return self.value <= _value(other)

    def __gt__(self, other: Any) -> bool:
        return self.value > _value(other)

    def __ge__(self, other: Any) -> bool:
        return self.value >= _value(other)

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Dual):
            return self.value == other.value and np.array_equal(self.deriv, other.deriv)
        if isinstance(other, numbers.Real):
            return self.value == float(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.deriv.tobytes()))

    def __float__(self) -> float:
        return float(self.value)

    def __bool__(self) -> bool:
        return self.value != 0.0

    # -- accessors ---------------------------------------------------------------
    def partial(self, index: int = 0):
        """Partial derivative with respect to seed variable ``index``."""
        return self.deriv[index]


def _value(x: Any) -> float:
    return x.value if isinstance(x, Dual) else float(x)


def seed(value: float, index: int = 0, nvars: int = 1, dtype: type = float) -> Dual:
    """Create a seed variable: ``d(value)/d(var_index) = 1``."""
    return Dual.variable(value, index=index, nvars=nvars, dtype=dtype)


def seed_many(values, dtype: type = float) -> list[Dual]:
    """Seed a full vector of independent variables.

    Returns one :class:`Dual` per entry of ``values`` whose derivative parts
    together form the identity matrix, so evaluating ``f(*duals)`` yields the
    gradient of ``f`` at ``values`` in a single pass.
    """
    values = list(values)
    n = len(values)
    return [Dual.variable(float(v), index=i, nvars=n, dtype=dtype) for i, v in enumerate(values)]


def seed_dict(values, dtype: type = float) -> dict:
    """Seed a mapping of named variables as one dual-vector system.

    Returns ``{name: Dual}`` where the derivative parts together form the
    identity matrix in the mapping's iteration order, so evaluating a model
    on the seeded dict yields the value *and* the gradient with respect to
    every named parameter in a single pass.  This is the entry point the
    optimization layer uses to push parameter sensitivities through
    behavioral/transducer evaluation.
    """
    names = list(values)
    n = len(names)
    return {name: Dual.variable(float(values[name]), index=i, nvars=n,
                                dtype=dtype)
            for i, name in enumerate(names)}


def value_of(x: Any) -> float:
    """Value part of ``x`` whether it is a dual or a plain number."""
    return x.value if isinstance(x, Dual) else float(x)


def derivative_of(x: Any, index: int = 0, nvars: int = 1):
    """Derivative part of ``x``; zero for plain numbers."""
    if isinstance(x, Dual):
        return x.deriv[index]
    return 0.0


def is_dual(x: Any) -> bool:
    """True when ``x`` is a :class:`Dual`."""
    return isinstance(x, Dual)
