"""The held factorization: reuse an LU while the matrix repeats.

A :class:`FactorizationCache` holds one ``(matrix, factorization)`` pair.
Asked for a matrix equal to the held one -- same type, shape, dtype,
sparsity structure and values -- it returns the held handle; otherwise it
factors the new matrix and holds that pair instead.  Equal matrices factor
to the same handle bit for bit, so reuse never changes a result: a linear
circuit stamps the same Jacobian on every Newton iteration of every
fixed-step time point, and the whole transient runs on a single LU.

One held pair answers nearly all of the traffic: the newest matrix is the
one that repeats (Newton iterations at one point, chord iterations, fixed
steps, repeated campaign points).  The comparison is exact array equality,
a memcmp-speed check cheap enough to run on every Newton iteration.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from .. import telemetry
from .solvers import Factorization, FactorizedSolver

__all__ = ["FactorizationCache"]


def _same_array(held: np.ndarray, array: np.ndarray) -> bool:
    return held is array or (held.shape == array.shape
                             and held.dtype == array.dtype
                             and bool((held == array).all()))


def _same_matrix(held, matrix) -> bool:
    """Exact equality of two matrices: dense arrays (also ``(B, n, n)``
    stacks), sparse matrices (structure and values) or lists of them (one
    CSR matrix per lane)."""
    if isinstance(matrix, list):
        return isinstance(held, list) and len(held) == len(matrix) \
            and all(map(_same_matrix, held, matrix))
    if sp.issparse(matrix):
        return sp.issparse(held) and held.format == matrix.format \
            and held.shape == matrix.shape \
            and _same_array(held.indptr, matrix.indptr) \
            and _same_array(held.indices, matrix.indices) \
            and _same_array(held.data, matrix.data)
    return isinstance(held, np.ndarray) and _same_array(held, matrix)


class FactorizationCache:
    """One held factorization, reused while the matrix it factors repeats.

    Parameters
    ----------
    solver:
        The :class:`FactorizedSolver` used on misses (a default-configured
        one when omitted).

    Attributes
    ----------
    matrix, handle:
        The held pair (both None until the first factorization).  The held
        matrix is kept by reference: callers must not modify a matrix in
        place after passing it in.
    hits / misses:
        Requests answered by the held handle / by a fresh factorization;
        they also bump ``linalg.factorization_cache_hits`` / ``_misses`` in
        :mod:`repro.telemetry.registry`.
    """

    def __init__(self, solver: FactorizedSolver | None = None) -> None:
        self.solver = solver or FactorizedSolver()
        self.matrix = None
        self.handle = None
        self.hits = 0
        self.misses = 0

    def fetch(self, matrix, factorize: Callable | None = None):
        """``(handle, fresh)`` for ``matrix``: the held handle when
        ``matrix`` equals the held matrix, else ``factorize(matrix)``
        (default: the solver's), which then becomes the held pair.  A
        factorization that raises leaves the held pair as it was."""
        if self.handle is not None and _same_matrix(self.matrix, matrix):
            self.hits += 1
            telemetry.registry.inc("linalg.factorization_cache_hits", 1)
            return self.handle, False
        self.misses += 1
        telemetry.registry.inc("linalg.factorization_cache_misses", 1)
        handle = (factorize or self.solver.factorize)(matrix)
        self.matrix, self.handle = matrix, handle
        return handle, True

    def factorize(self, matrix) -> Factorization:
        """A factorization of ``matrix``, the held one when it repeats."""
        return self.fetch(matrix)[0]

    def solve(self, matrix, rhs) -> np.ndarray:
        """Cached factor + back-substitution of one right-hand side."""
        return self.factorize(matrix).solve(rhs)

    def __repr__(self) -> str:
        held = "empty" if self.handle is None else "holding 1"
        return (f"FactorizationCache({held}, {self.hits} hits / "
                f"{self.misses} misses)")
