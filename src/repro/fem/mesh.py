"""Structured 2D rectangular meshes of bilinear quadrilateral elements.

The electrostatic problems of figure 6 are solved on the rectangular gap
region between the electrodes, so a structured mesh is sufficient and keeps
the node numbering trivial: node ``(i, j)`` (column ``i`` along x, row ``j``
along y) has index ``j * (nx + 1) + i``.  Elements are numbered row-major the
same way and store their four corner nodes counter-clockwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MeshError

__all__ = ["RectangularMesh"]


@dataclass(frozen=True)
class RectangularMesh:
    """A structured quadrilateral mesh of the rectangle [0, width] x [0, height].

    Attributes
    ----------
    width, height:
        Physical dimensions [m].
    nx, ny:
        Number of elements along x and y (so ``(nx+1)*(ny+1)`` nodes).
    """

    width: float
    height: float
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.width <= 0.0 or self.height <= 0.0:
            raise MeshError("mesh dimensions must be positive")
        if self.nx < 1 or self.ny < 1:
            raise MeshError("the mesh needs at least one element in each direction")

    # ------------------------------------------------------------------ sizes
    @property
    def num_nodes(self) -> int:
        """Total number of nodes."""
        return (self.nx + 1) * (self.ny + 1)

    @property
    def num_elements(self) -> int:
        """Total number of elements."""
        return self.nx * self.ny

    @property
    def dx(self) -> float:
        """Element width along x."""
        return self.width / self.nx

    @property
    def dy(self) -> float:
        """Element height along y."""
        return self.height / self.ny

    # ------------------------------------------------------------------ nodes
    def node_index(self, i: int, j: int) -> int:
        """Index of the node in column ``i`` (x) and row ``j`` (y)."""
        if not (0 <= i <= self.nx and 0 <= j <= self.ny):
            raise MeshError(f"node ({i}, {j}) outside mesh {self.nx}x{self.ny}")
        return j * (self.nx + 1) + i

    def node_coordinates(self) -> np.ndarray:
        """(num_nodes, 2) array of node coordinates."""
        xs = np.linspace(0.0, self.width, self.nx + 1)
        ys = np.linspace(0.0, self.height, self.ny + 1)
        grid_x, grid_y = np.meshgrid(xs, ys)
        return np.column_stack([grid_x.ravel(), grid_y.ravel()])

    # ---------------------------------------------------------------- elements
    def element_connectivity(self) -> np.ndarray:
        """(num_elements, 4) corner-node indices, counter-clockwise."""
        stride = self.nx + 1
        first = (np.arange(self.ny)[:, None] * stride + np.arange(self.nx)).ravel()
        return first[:, None] + np.array([0, 1, stride + 1, stride])

    def element_centroids(self) -> np.ndarray:
        """(num_elements, 2) element centroid coordinates."""
        coords = self.node_coordinates()
        connectivity = self.element_connectivity()
        return coords[connectivity].mean(axis=1)

    def element_area(self) -> float:
        """Area of one element (uniform for a structured mesh)."""
        return self.dx * self.dy

    # ---------------------------------------------------------------- boundaries
    def bottom_nodes(self) -> np.ndarray:
        """Node indices on the y = 0 edge."""
        return np.arange(self.nx + 1)

    def top_nodes(self) -> np.ndarray:
        """Node indices on the y = height edge."""
        return self.ny * (self.nx + 1) + np.arange(self.nx + 1)

    def left_nodes(self) -> np.ndarray:
        """Node indices on the x = 0 edge."""
        return np.arange(self.ny + 1) * (self.nx + 1)

    def right_nodes(self) -> np.ndarray:
        """Node indices on the x = width edge."""
        return np.arange(self.ny + 1) * (self.nx + 1) + self.nx

    def nodes_where(self, predicate) -> np.ndarray:
        """Indices of nodes whose (x, y) coordinates satisfy ``predicate``."""
        coords = self.node_coordinates()
        mask = np.array([bool(predicate(x, y)) for x, y in coords])
        return np.nonzero(mask)[0]

    def refined(self, factor: int = 2) -> "RectangularMesh":
        """A mesh with ``factor`` times more elements in each direction."""
        if factor < 1:
            raise MeshError("refinement factor must be >= 1")
        return RectangularMesh(self.width, self.height, self.nx * factor, self.ny * factor)
