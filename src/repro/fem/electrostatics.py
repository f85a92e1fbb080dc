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

The problem is linear in the drive and its stiffness is affine in the
gap, and each process exploits both:

* **Drive points by superposition.**  The first solve of a geometry (the
  frozen :class:`~repro.fem.mesh.RectangularMesh` plus the permittivity)
  solves the unit drive -- top electrode at 1 V, bottom grounded --
  through :func:`~repro.fem.solver.solve_sparse` and differentiates its
  centroid field once with :func:`~repro.fem.elements.element_gradient`.
  The geometry's operator holds that potential and field, and every drive
  ``V`` (the first one too) returns ``V`` times them: ``solve(V)`` is bit
  for bit ``V * solve(1)``, and a drive point costs no solve.
* **Geometries on a gap-affine operator.**  For a fixed division count,
  width and permittivity the stiffness is ``K(s) = s Kxx + Kyy / s`` in
  the gap ``s`` (:func:`~repro.fem.assembly.gap_affine_stiffness`, split
  exactly from the rectangle element matrix).  A template per
  ``(nx, ny, width, permittivity)`` holds both pieces reduced to the free
  (non-electrode) nodes on one CSR pattern, plus the unit drive's
  right-hand-side columns.  A new gap then costs one combination
  ``s a + b / s`` of the template's data and one SuperLU factorization.

The results agree with the direct path (:func:`assemble_stiffness`,
:func:`apply_dirichlet`, one solve per drive) to rounding, not bit for bit.
Operator keys compare floats exactly, so gaps one ulp apart get distinct
operators.  Both tables are bounded like the pattern caches of
:mod:`repro.fem.assembly` (a new entry beyond the cap clears the table),
and a geometry whose solve fails stores no operator, so a retry factors
again.  A non-finite drive raises :class:`~repro.errors.FEMError` with a
forensic report, like a failed solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from ..constants import EPSILON_0
from ..errors import FEMError
# ``assemble_stiffness`` and ``apply_dirichlet`` are the direct path the
# operator reproduces to rounding.  They stay bound here beside the names
# the operator calls: the FE layer timers of ``perfbench/layers.py`` wrap
# all four by name in this module.
from .assembly import (apply_dirichlet, assemble_stiffness,  # noqa: F401
                       free_block, gap_affine_stiffness)
from .elements import element_gradient
from .mesh import RectangularMesh
from .solver import solve_failure, solve_sparse

__all__ = ["ElectrostaticSolution", "ParallelPlateProblem"]

#: Process-wide operators keyed by ``(mesh, permittivity)``.  Bounded: a
#: new geometry beyond the cap evicts the whole table (a PXT grid cycles
#: through a handful of displacements, not hundreds).
_OPERATORS: dict[tuple[RectangularMesh, float], "_Operator"] = {}
_OPERATOR_LIMIT = 8
#: Process-wide gap-affine templates keyed by
#: ``(nx, ny, width, permittivity)``, bounded the same way.
_TEMPLATES: dict[tuple[int, int, float, float], "_Template"] = {}
_TEMPLATE_LIMIT = 8


@dataclass(frozen=True)
class _Template:
    """The gap-independent half of the parallel-plate stiffness on one
    ``(nx, ny, width, permittivity)``: ``K_ff(s) = s kxx + kyy / s`` on the
    free nodes, and its unit-drive right-hand side
    ``s rhs_xx + rhs_yy / s``."""

    #: The free-node block's CSR ``indices`` and ``indptr``.
    indices: np.ndarray
    indptr: np.ndarray
    kxx: np.ndarray
    kyy: np.ndarray
    rhs_xx: np.ndarray
    rhs_yy: np.ndarray
    free: np.ndarray
    top: np.ndarray
    connectivity: np.ndarray

    @classmethod
    def build(cls, mesh: RectangularMesh, permittivity: float) -> "_Template":
        kxx, kyy = gap_affine_stiffness(mesh, permittivity)
        top = mesh.top_nodes()
        free = np.setdiff1d(np.arange(mesh.num_nodes),
                            np.union1d(mesh.bottom_nodes(), top))
        block, positions = free_block(kxx, free)
        drive = np.zeros(mesh.num_nodes)
        drive[top] = 1.0
        return cls(indices=block.indices, indptr=block.indptr,
                   kxx=block.data, kyy=kyy.data[positions],
                   rhs_xx=-(kxx @ drive)[free], rhs_yy=-(kyy @ drive)[free],
                   free=free, top=top,
                   connectivity=mesh.element_connectivity())

    def unit_solution(self, mesh: RectangularMesh) -> "_Operator":
        """The operator of ``mesh``: one factorization of ``K_ff(gap)``."""
        gap, size = mesh.height, self.free.size
        matrix = sp.csr_matrix((gap * self.kxx + self.kyy / gap,
                                self.indices, self.indptr), shape=(size, size))
        potential = np.zeros(mesh.num_nodes)
        potential[self.top] = 1.0
        potential[self.free] = solve_sparse(
            matrix, gap * self.rhs_xx + self.rhs_yy / gap)
        corners = mesh.node_coordinates()[self.connectivity]
        field = -element_gradient(corners, potential[self.connectivity])
        return _Operator(potential=potential, field=field)


@dataclass(frozen=True)
class _Operator:
    """The unit-drive solution of one geometry: every drive scales it."""

    potential: np.ndarray
    #: ``(num_elements, 2)`` centroid field of the unit drive [V/m].
    field: np.ndarray


def _template(mesh: RectangularMesh, permittivity: float) -> _Template:
    key = (mesh.nx, mesh.ny, mesh.width, permittivity)
    template = _TEMPLATES.get(key)
    if template is None:
        if len(_TEMPLATES) >= _TEMPLATE_LIMIT:
            _TEMPLATES.clear()
        template = _TEMPLATES[key] = _Template.build(mesh, permittivity)
    return template


def _operator(mesh: RectangularMesh, permittivity: float) -> _Operator:
    key = (mesh, permittivity)
    operator = _OPERATORS.get(key)
    if operator is None:
        # Stored only once its solve succeeded: a failed geometry leaves
        # no entry, so a retry factors again.
        operator = _template(mesh, permittivity).unit_solution(mesh)
        if len(_OPERATORS) >= _OPERATOR_LIMIT:
            _OPERATORS.clear()
        _OPERATORS[key] = operator
    return operator


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
        voltage = float(voltage)
        if not math.isfinite(voltage):
            raise solve_failure(f"non-finite drive voltage {voltage!r}",
                                voltage=repr(voltage))
        operator = _operator(self.mesh, self.permittivity)
        return ElectrostaticSolution(
            mesh=self.mesh, potential=voltage * operator.potential,
            field=voltage * operator.field, depth=self.depth,
            permittivity=self.permittivity, voltage=voltage)
