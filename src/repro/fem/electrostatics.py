"""Electrostatic field problem of the paper's figure 6.

The PXT screenshot of figure 6 shows ANSYS solving the electric field in the
gap of the transverse electrostatic transducer (no fringe field modelled) and
PXT integrating ``1/2 * eps * E^2`` over the movable electrode surface to
obtain the electrostatic force.  :class:`ParallelPlateProblem` reproduces
exactly that workflow on the structured FE mesh:

* the analysis domain is the rectangular gap cross-section
  (``plate width`` x ``gap``); the out-of-plane ``depth`` scales all
  integral quantities,
* the bottom edge is the grounded fixed plate, the top edge the movable
  electrode at the applied potential, the side edges are natural (zero
  normal field) boundaries -- the no-fringe-field assumption of the paper,
* post-processing provides the potential, element fields, stored energy,
  capacitance, electrode charge and the Maxwell-stress force integral
  ``F = 1/2 eps integral(E^2) dS`` of the paper's equation.

For the ideal parallel-plate geometry the FE solution is the uniform field
``E = V / gap``, so every extracted quantity can be verified against the
closed forms of Tables 2/3 -- which is what the figure-6 benchmark does.

One solve is a handful of whole-array operations, with no per-element
Python loop: the stiffness assembly reuses the mesh topology's cached CSR
pattern, :func:`~repro.fem.assembly.apply_dirichlet` eliminates the
electrode nodes with one boolean mask over the stored CSR entries, and the
element fields come from one stacked
:func:`~repro.fem.elements.element_gradient` call over all
``(num_elements, 4, 2)`` corner coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import EPSILON_0
from ..errors import FEMError
from .assembly import apply_dirichlet, assemble_stiffness
from .elements import element_gradient
from .mesh import RectangularMesh
from .solver import solve_sparse

__all__ = ["ElectrostaticSolution", "ParallelPlateProblem"]


@dataclass
class ElectrostaticSolution:
    """Post-processed result of one electrostatic FE solve."""

    mesh: RectangularMesh
    potential: np.ndarray
    #: (num_elements, 2) electric field at the element centroids [V/m].
    field: np.ndarray
    #: Out-of-plane depth used to scale integral quantities [m].
    depth: float
    #: Permittivity (eps0 * epsr) used in the solve [F/m].
    permittivity: float
    #: Applied electrode voltage [V].
    voltage: float

    @property
    def energy(self) -> float:
        """Stored field energy ``1/2 eps integral(E^2) dV`` [J]."""
        e_squared = np.sum(self.field ** 2, axis=1)
        return 0.5 * self.permittivity * float(np.sum(e_squared)) \
            * self.mesh.element_area() * self.depth

    @property
    def capacitance(self) -> float:
        """Capacitance from the stored energy, ``2 W / V^2`` [F]."""
        if self.voltage == 0.0:
            raise FEMError("capacitance from energy needs a non-zero voltage")
        return 2.0 * self.energy / (self.voltage * self.voltage)

    def electrode_charge(self) -> float:
        """Charge on the driven (top) electrode from the normal field [C].

        ``q = integral( eps * E_n ) dS`` over the electrode surface; the
        normal field is taken from the element row adjacent to the top edge.
        """
        field_y = self._top_row_normal_field()
        return self.permittivity * float(np.sum(field_y)) * self.mesh.dx * self.depth

    def electrode_force(self) -> float:
        """Maxwell-stress force on the movable electrode [N].

        Implements the paper's ``f = 1/2 integral( eps E^2 n ) dS`` over the
        electrode surface.  The force is attractive (directed from the
        movable electrode towards the fixed one); the magnitude is returned.
        """
        field_y = self._top_row_normal_field()
        return 0.5 * self.permittivity * float(np.sum(field_y ** 2)) \
            * self.mesh.dx * self.depth

    def _top_row_normal_field(self) -> np.ndarray:
        """Normal (y) field sampled in the element row touching the top edge."""
        field_y = self.field[:, 1]
        top_row = np.arange((self.mesh.ny - 1) * self.mesh.nx, self.mesh.num_elements)
        return np.abs(field_y[top_row])

    def field_magnitude(self) -> np.ndarray:
        """Per-element |E| [V/m]."""
        return np.sqrt(np.sum(self.field ** 2, axis=1))

    def uniform_field_estimate(self) -> float:
        """Mean |E| over the domain (equals V/gap for the ideal problem)."""
        return float(np.mean(self.field_magnitude()))


class ParallelPlateProblem:
    """Electrostatic FE model of the transverse transducer's gap region.

    Parameters
    ----------
    plate_width:
        In-plane width of the electrodes [m].
    gap:
        Electrode separation [m] (already including any displacement).
    depth:
        Out-of-plane depth [m]; ``plate_width * depth`` is the electrode
        area ``A`` of the lumped models.
    epsilon_r:
        Relative permittivity of the gap dielectric.
    nx, ny:
        Mesh divisions across the width and the gap.
    epsilon_0:
        Vacuum permittivity (paper value by default).
    """

    def __init__(self, plate_width: float, gap: float, depth: float,
                 epsilon_r: float = 1.0, nx: int = 24, ny: int = 16,
                 epsilon_0: float = EPSILON_0) -> None:
        if plate_width <= 0.0 or gap <= 0.0 or depth <= 0.0:
            raise FEMError("plate_width, gap and depth must be positive")
        if epsilon_r <= 0.0:
            raise FEMError("epsilon_r must be positive")
        self.plate_width = float(plate_width)
        self.gap = float(gap)
        self.depth = float(depth)
        self.epsilon_r = float(epsilon_r)
        self.epsilon_0 = float(epsilon_0)
        self.mesh = RectangularMesh(width=self.plate_width, height=self.gap, nx=nx, ny=ny)

    @classmethod
    def from_area(cls, area: float, gap: float, epsilon_r: float = 1.0,
                  aspect: float = 1.0, **kwargs) -> "ParallelPlateProblem":
        """Build the problem from an electrode area (square plate by default)."""
        if area <= 0.0:
            raise FEMError("area must be positive")
        width = float(np.sqrt(area * aspect))
        depth = area / width
        return cls(plate_width=width, gap=gap, depth=depth, epsilon_r=epsilon_r, **kwargs)

    @property
    def area(self) -> float:
        """Electrode area ``plate_width * depth`` [m^2]."""
        return self.plate_width * self.depth

    @property
    def permittivity(self) -> float:
        """Absolute permittivity ``eps0 * epsr`` [F/m]."""
        return self.epsilon_0 * self.epsilon_r

    def analytic_capacitance(self) -> float:
        """Fringe-free capacitance ``eps A / gap`` for cross-checks."""
        return self.permittivity * self.area / self.gap

    def analytic_force(self, voltage: float) -> float:
        """Fringe-free attractive force ``eps A V^2 / (2 gap^2)``."""
        return 0.5 * self.permittivity * self.area * voltage * voltage / (self.gap * self.gap)

    def solve(self, voltage: float) -> ElectrostaticSolution:
        """Solve the potential problem with the top electrode at ``voltage``."""
        mesh = self.mesh
        stiffness = assemble_stiffness(mesh, permittivity=self.permittivity)
        rhs = np.zeros(mesh.num_nodes)
        constraints = dict.fromkeys(mesh.bottom_nodes().tolist(), 0.0)
        constraints.update(dict.fromkeys(mesh.top_nodes().tolist(), float(voltage)))
        matrix, rhs = apply_dirichlet(stiffness, rhs, constraints)
        potential = solve_sparse(matrix, rhs)
        connectivity = mesh.element_connectivity()
        field = -element_gradient(mesh.node_coordinates()[connectivity],
                                  potential[connectivity])
        return ElectrostaticSolution(
            mesh=mesh, potential=potential, field=field, depth=self.depth,
            permittivity=self.permittivity, voltage=float(voltage))
