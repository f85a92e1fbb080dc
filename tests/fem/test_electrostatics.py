"""Tests for the electrostatic FE solution against parallel-plate closed forms."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import EPSILON_0
from repro.errors import FEMError
from repro.fem import ParallelPlateProblem, electrostatics, elements
from repro.fem.assembly import apply_dirichlet, assemble_stiffness
from repro.fem.mesh import RectangularMesh
from repro.fem.solver import solve_sparse

AREA, GAP, VOLTAGE = 1e-4, 0.15e-3, 10.0


@pytest.fixture(scope="module")
def solution():
    problem = ParallelPlateProblem.from_area(area=AREA, gap=GAP, nx=20, ny=12)
    return problem, problem.solve(VOLTAGE)


class TestAssemblyAndSolver:
    def test_dirichlet_values_enforced(self):
        mesh = RectangularMesh(1.0, 1.0, 4, 4)
        stiffness = assemble_stiffness(mesh)
        rhs = np.zeros(mesh.num_nodes)
        constraints = {int(n): 0.0 for n in mesh.bottom_nodes()}
        constraints.update({int(n): 5.0 for n in mesh.top_nodes()})
        matrix, rhs = apply_dirichlet(stiffness, rhs, constraints)
        potential = solve_sparse(matrix, rhs)
        assert np.allclose(potential[mesh.top_nodes()], 5.0)
        assert np.allclose(potential[mesh.bottom_nodes()], 0.0)
        assert np.all((potential > -1e-9) & (potential < 5.0 + 1e-9))

    def test_per_element_permittivity_shape_checked(self):
        mesh = RectangularMesh(1.0, 1.0, 2, 2)
        with pytest.raises(FEMError):
            assemble_stiffness(mesh, permittivity=np.ones(3))

    def test_dirichlet_requires_constraints(self):
        mesh = RectangularMesh(1.0, 1.0, 2, 2)
        stiffness = assemble_stiffness(mesh)
        with pytest.raises(FEMError):
            apply_dirichlet(stiffness, np.zeros(mesh.num_nodes), {})


class TestParallelPlateSolution:
    def test_potential_varies_linearly_across_gap(self, solution):
        problem, sol = solution
        coords = problem.mesh.node_coordinates()
        expected = VOLTAGE * coords[:, 1] / GAP
        assert np.allclose(sol.potential, expected, atol=1e-9 * VOLTAGE)

    def test_field_is_uniform_v_over_d(self, solution):
        _, sol = solution
        magnitudes = sol.field_magnitude()
        assert np.allclose(magnitudes, VOLTAGE / GAP, rtol=1e-9)
        assert sol.uniform_field_estimate() == pytest.approx(VOLTAGE / GAP, rel=1e-9)

    def test_capacitance_matches_table2(self, solution):
        problem, sol = solution
        assert sol.capacitance == pytest.approx(EPSILON_0 * AREA / GAP, rel=1e-6)
        assert sol.capacitance == pytest.approx(problem.analytic_capacitance(), rel=1e-9)

    def test_energy_matches_half_cv_squared(self, solution):
        _, sol = solution
        assert sol.energy == pytest.approx(0.5 * sol.capacitance * VOLTAGE ** 2, rel=1e-9)

    def test_charge_matches_cv(self, solution):
        _, sol = solution
        assert sol.electrode_charge() == pytest.approx(sol.capacitance * VOLTAGE, rel=1e-6)

    def test_maxwell_stress_force_matches_table3(self, solution):
        problem, sol = solution
        expected = 0.5 * EPSILON_0 * AREA * VOLTAGE ** 2 / GAP ** 2
        assert sol.electrode_force() == pytest.approx(expected, rel=1e-6)
        assert sol.electrode_force() == pytest.approx(problem.analytic_force(VOLTAGE), rel=1e-9)

    def test_force_scales_quadratically_with_voltage(self):
        problem = ParallelPlateProblem.from_area(area=AREA, gap=GAP, nx=8, ny=6)
        force_5 = problem.solve(5.0).electrode_force()
        force_10 = problem.solve(10.0).electrode_force()
        assert force_10 / force_5 == pytest.approx(4.0, rel=1e-9)

    def test_capacitance_needs_nonzero_voltage(self):
        problem = ParallelPlateProblem.from_area(area=AREA, gap=GAP, nx=4, ny=4)
        sol = problem.solve(0.0)
        with pytest.raises(FEMError):
            _ = sol.capacitance

    def test_mesh_refinement_does_not_change_ideal_solution(self):
        coarse = ParallelPlateProblem.from_area(area=AREA, gap=GAP, nx=4, ny=3).solve(VOLTAGE)
        fine = ParallelPlateProblem.from_area(area=AREA, gap=GAP, nx=32, ny=24).solve(VOLTAGE)
        assert coarse.capacitance == pytest.approx(fine.capacitance, rel=1e-9)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(FEMError):
            ParallelPlateProblem(plate_width=0.0, gap=GAP, depth=1e-2)
        with pytest.raises(FEMError):
            ParallelPlateProblem.from_area(area=-1.0, gap=GAP)


class TestHeldOperatorPostProcessing:
    def test_element_jacobians_once_per_geometry(self, monkeypatch):
        """Warm drive points differentiate the field on the operator's held
        centroid Jacobians: the stacked ``_jacobian`` runs once per
        geometry, and ``solve_sparse`` hands the held CSR matrix through
        unwrapped."""
        stacked = []
        jacobian = elements._jacobian

        def counting(coords, dshape):
            stacked.append(coords.ndim == 3)
            return jacobian(coords, dshape)

        monkeypatch.setattr(elements, "_jacobian", counting)
        electrostatics._OPERATORS.clear()
        try:
            for geometry, gap in enumerate((GAP, 2.0 * GAP), start=1):
                problem = ParallelPlateProblem.from_area(area=AREA, gap=gap,
                                                         nx=6, ny=4)
                for voltage in (VOLTAGE, 0.0, -3.0, 1.0):
                    problem.solve(voltage)
                assert sum(stacked) == geometry
                operator = electrostatics._OPERATORS[
                    (problem.mesh, problem.permittivity)]
                assert operator.factors.matrix is operator.matrix
        finally:
            electrostatics._OPERATORS.clear()

    def test_held_jacobians_give_the_same_gradient_bits(self):
        rng = np.random.default_rng(3)
        mesh = RectangularMesh(1.3e-3, 2e-5, 7, 5)
        corners = mesh.node_coordinates()[mesh.element_connectivity()]
        values = rng.uniform(-50.0, 50.0, corners.shape[:-1])
        for xi, eta in ((0.0, 0.0), (0.3, -0.7)):
            fresh = elements.element_gradient(corners, values, xi, eta)
            reused = elements.element_gradient(
                corners, values, xi, eta,
                jacobians=elements.element_jacobians(corners, xi, eta))
            assert fresh.tobytes() == reused.tobytes()
