"""Bilinear quadrilateral element matrices for scalar field problems.

The electrostatic problems solved here are Laplace/Poisson equations for the
potential ``phi`` with element-wise constant permittivity::

    div( eps grad(phi) ) = 0

The 4-node bilinear quad uses the standard isoparametric shape functions on
the reference square ``xi, eta in [-1, 1]`` and 2x2 Gauss quadrature, which
integrates the stiffness matrix exactly for rectangular elements (the only
shape produced by :class:`~repro.fem.mesh.RectangularMesh`).
"""

from __future__ import annotations

import numpy as np

from ..errors import FEMError

__all__ = [
    "GAUSS_POINTS_2X2",
    "shape_functions",
    "shape_function_derivatives",
    "element_stiffness",
    "element_mass",
    "element_jacobians",
    "element_gradient",
]

_G = 1.0 / np.sqrt(3.0)
#: 2x2 Gauss points (xi, eta) and weights on the reference square.
GAUSS_POINTS_2X2: tuple[tuple[float, float, float], ...] = (
    (-_G, -_G, 1.0),
    (_G, -_G, 1.0),
    (_G, _G, 1.0),
    (-_G, _G, 1.0),
)


def shape_functions(xi: float, eta: float) -> np.ndarray:
    """Bilinear shape functions N1..N4 at a reference point (CCW node order)."""
    return 0.25 * np.array([
        (1.0 - xi) * (1.0 - eta),
        (1.0 + xi) * (1.0 - eta),
        (1.0 + xi) * (1.0 + eta),
        (1.0 - xi) * (1.0 + eta),
    ])


def shape_function_derivatives(xi: float, eta: float) -> np.ndarray:
    """(2, 4) derivatives of the shape functions w.r.t. (xi, eta)."""
    return 0.25 * np.array([
        [-(1.0 - eta), (1.0 - eta), (1.0 + eta), -(1.0 + eta)],
        [-(1.0 - xi), -(1.0 + xi), (1.0 + xi), (1.0 - xi)],
    ])


def _jacobian(coords: np.ndarray, dshape: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    jac = dshape @ coords  # (..., 2, 2)
    det = np.linalg.det(jac)
    if np.any(det <= 0.0):
        raise FEMError("element Jacobian is not positive (bad node ordering?)")
    return jac, det


def element_stiffness(coords: np.ndarray, permittivity: float = 1.0) -> np.ndarray:
    """(4, 4) stiffness matrix ``integral( eps grad(N)^T grad(N) dA )``.

    ``coords`` is the (4, 2) array of corner coordinates in CCW order.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (4, 2):
        raise FEMError("element_stiffness expects 4 corner coordinates")
    stiffness = np.zeros((4, 4))
    for xi, eta, weight in GAUSS_POINTS_2X2:
        dshape = shape_function_derivatives(xi, eta)
        jac, det = _jacobian(coords, dshape)
        grad = np.linalg.solve(jac, dshape)  # (2, 4) derivatives w.r.t. x, y
        stiffness += weight * permittivity * det * (grad.T @ grad)
    return stiffness


def element_mass(coords: np.ndarray, density: float = 1.0) -> np.ndarray:
    """(4, 4) consistent mass matrix ``integral( rho N^T N dA )``."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (4, 2):
        raise FEMError("element_mass expects 4 corner coordinates")
    mass = np.zeros((4, 4))
    for xi, eta, weight in GAUSS_POINTS_2X2:
        shapes = shape_functions(xi, eta)
        dshape = shape_function_derivatives(xi, eta)
        _, det = _jacobian(coords, dshape)
        mass += weight * density * det * np.outer(shapes, shapes)
    return mass


def element_jacobians(coords: np.ndarray, xi: float = 0.0,
                      eta: float = 0.0) -> np.ndarray:
    """``(..., 2, 2)`` Jacobians of a ``(..., 4, 2)`` stack of elements at a
    reference point (default: centroid).  Any inverted element raises."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape[-2:] != (4, 2):
        raise FEMError("element_jacobians expects 4 corner coordinates")
    return _jacobian(coords, shape_function_derivatives(xi, eta))[0]


def element_gradient(coords: np.ndarray, nodal_values: np.ndarray,
                     xi: float = 0.0, eta: float = 0.0,
                     jacobians: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the interpolated field at a reference point (default: centroid).

    ``coords`` is ``(..., 4, 2)`` and ``nodal_values`` ``(..., 4)``: a stack
    of elements is differentiated by one batched solve, returning
    ``(..., 2)``.  Any inverted element in the stack raises.  A caller that
    differentiates many fields on one mesh passes the elements'
    :func:`element_jacobians` at the point as ``jacobians`` instead of
    having them recomputed.
    """
    coords = np.asarray(coords, dtype=float)
    nodal_values = np.asarray(nodal_values, dtype=float)
    if coords.shape[-2:] != (4, 2) or nodal_values.shape != coords.shape[:-1]:
        raise FEMError("element_gradient expects 4 corners and 4 nodal values")
    dshape = shape_function_derivatives(xi, eta)
    if jacobians is None:
        jacobians, _ = _jacobian(coords, dshape)
    return np.linalg.solve(jacobians, dshape @ nodal_values[..., None])[..., 0]
