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

The problem is linear in the drive: the voltage only enters the
right-hand side.  So each process keeps one operator per exact geometry
(the frozen :class:`~repro.fem.mesh.RectangularMesh` plus the
permittivity).  The first solve of a geometry is the cold path -- one
assembly, one :func:`~repro.fem.assembly.apply_dirichlet`, one SuperLU
factorization -- and keeps its results: the stiffness ``K``, the
eliminated matrix with its factorization in a
:class:`~repro.linalg.FactorizationCache`, and the element connectivity,
``(num_elements, 4, 2)`` corner coordinates and centroid Jacobians.
Every later drive point of that geometry costs one
:func:`~repro.fem.assembly.dirichlet_lift` of the right-hand side from
``K[:, constrained]`` (taken once, at the first reuse; the arithmetic of
``apply_dirichlet``), one back-substitution and one stacked
:func:`~repro.fem.elements.element_gradient` solve on the held
Jacobians, bit for bit equal to a cold solve.  Keys compare floats
exactly, so gaps one ulp apart get distinct operators.  The table is
bounded like the pattern caches of :mod:`repro.fem.assembly` (a new
geometry beyond ``_OPERATOR_LIMIT`` clears it), and an operator whose
solve fails is never stored, so a retry factors again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from ..constants import EPSILON_0
from ..errors import FEMError
from ..linalg import FactorizationCache
from .assembly import apply_dirichlet, assemble_stiffness, dirichlet_lift
from .elements import element_gradient, element_jacobians
from .mesh import RectangularMesh
from .solver import solve_sparse

__all__ = ["ElectrostaticSolution", "ParallelPlateProblem"]

#: Process-wide operators keyed by ``(mesh, permittivity)``.  Bounded: a
#: new geometry beyond the cap evicts the whole table (a PXT grid cycles
#: through a handful of displacements, not hundreds).
_OPERATORS: dict[tuple[RectangularMesh, float], "_Operator"] = {}
_OPERATOR_LIMIT = 8


@dataclass(frozen=True)
class _Operator:
    """The drive-independent half of a parallel-plate solve on one mesh."""

    #: The unconstrained stiffness ``K``.
    stiffness: sp.csr_matrix
    #: ``K`` with the electrode rows and columns eliminated.
    matrix: sp.csr_matrix
    factors: FactorizationCache
    bottom: np.ndarray
    top: np.ndarray
    connectivity: np.ndarray
    #: ``(num_elements, 4, 2)`` element corner coordinates.
    corners: np.ndarray
    #: ``(num_elements, 2, 2)`` element Jacobians at the centroids.
    jacobians: np.ndarray

    @classmethod
    def build(cls, mesh: RectangularMesh, permittivity: float,
              voltage: float) -> tuple["_Operator", np.ndarray]:
        """The operator of a new geometry and the right-hand side of its
        first drive, by the cold path: one assembly, one
        :func:`apply_dirichlet`."""
        stiffness = assemble_stiffness(mesh, permittivity=permittivity)
        bottom, top = mesh.bottom_nodes(), mesh.top_nodes()
        constraints = dict.fromkeys(bottom.tolist(), 0.0)
        constraints.update(dict.fromkeys(top.tolist(), voltage))
        matrix, rhs = apply_dirichlet(stiffness, np.zeros(mesh.num_nodes),
                                      constraints)
        connectivity = mesh.element_connectivity()
        corners = mesh.node_coordinates()[connectivity]
        return cls(stiffness=stiffness, matrix=matrix,
                   factors=FactorizationCache(), bottom=bottom, top=top,
                   connectivity=connectivity, corners=corners,
                   jacobians=element_jacobians(corners)), rhs

    @cached_property
    def _lift(self) -> tuple[np.ndarray, np.ndarray, sp.csr_matrix]:
        """The sorted electrode nodes, which of them are driven, and
        ``K[:, constrained]``: taken at the first reuse, so a geometry
        solved once costs what a cold solve does."""
        constrained = np.union1d(self.bottom, self.top)
        return (constrained, np.isin(constrained, self.top),
                self.stiffness[:, constrained])

    def rhs(self, voltage: float) -> np.ndarray:
        """The eliminated right-hand side with the top electrode at
        ``voltage`` and the bottom one grounded."""
        constrained, driven, columns = self._lift
        return dirichlet_lift(columns, constrained,
                              np.where(driven, voltage, 0.0),
                              np.zeros(self.matrix.shape[0]))


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

    @cached_property
    def energy(self) -> float:
        """Stored field energy ``1/2 eps integral(E^2) dV`` [J].

        Summed once per solution: :attr:`capacitance` and callers that
        read both share the one sum."""
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
        key = (mesh, self.permittivity)
        operator = _OPERATORS.get(key)
        fresh = operator is None
        if fresh:
            # A new geometry beyond the bound evicts the whole table
            # before it is built, so the old factors are freed first.
            if len(_OPERATORS) >= _OPERATOR_LIMIT:
                _OPERATORS.clear()
            operator, rhs = _Operator.build(mesh, self.permittivity,
                                            float(voltage))
        else:
            rhs = operator.rhs(float(voltage))
        potential = solve_sparse(operator.matrix, rhs,
                                 factorizations=operator.factors)
        if fresh:
            # Stored only once its solve succeeded: a failed geometry
            # leaves no entry, so a retry factors again.
            _OPERATORS[key] = operator
        field = -element_gradient(operator.corners,
                                  potential[operator.connectivity],
                                  jacobians=operator.jacobians)
        return ElectrostaticSolution(
            mesh=mesh, potential=potential, field=field, depth=self.depth,
            permittivity=self.permittivity, voltage=float(voltage))
