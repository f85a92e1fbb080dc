"""Forward-mode automatic differentiation on dual numbers.

The paper's central modeling recipe is: *write the internal energy of the
conservative transducer, then differentiate it with respect to each port's
state variable to obtain the port effort*.  This package mechanises that
recipe exactly -- :mod:`repro.transducers.energy_method` differentiates
user-supplied energy functions with these dual numbers instead of requiring
hand-derived expressions.

The same machinery provides exact Jacobians of behavioral-device
contributions for the Newton solver and, with each derivative laid out as
real coefficients of the powers of ``s``, the small-signal admittances
needed by the AC analysis (``ddt`` shifts the derivative part one power
of ``s`` up).
"""

from .dual import (Dual, seed, seed_many, seed_dict, value_of,
                   derivative_of, is_dual)
from .functions import (
    sqrt,
    exp,
    log,
    sin,
    cos,
    tan,
    sinh,
    cosh,
    tanh,
    atan,
    asin,
    acos,
    absolute,
    sign,
    minimum,
    maximum,
    where,
    hypot,
)
from .vector import gradient, jacobian, derivative, hessian

__all__ = [
    "Dual",
    "seed",
    "seed_many",
    "seed_dict",
    "value_of",
    "derivative_of",
    "is_dual",
    "sqrt",
    "exp",
    "log",
    "sin",
    "cos",
    "tan",
    "sinh",
    "cosh",
    "tanh",
    "atan",
    "asin",
    "acos",
    "absolute",
    "sign",
    "minimum",
    "maximum",
    "where",
    "hypot",
    "gradient",
    "jacobian",
    "derivative",
    "hessian",
]
