"""Tests for the structured mesh and the bilinear quad element matrices."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FEMError, MeshError
from repro.fem.elements import (
    element_gradient,
    element_mass,
    element_stiffness,
    rectangle_stiffness_pieces,
    shape_function_derivatives,
    shape_functions,
)
from repro.fem.mesh import RectangularMesh


class TestRectangularMesh:
    def test_counts(self):
        mesh = RectangularMesh(1.0, 2.0, 4, 5)
        assert mesh.num_nodes == 5 * 6
        assert mesh.num_elements == 20
        assert mesh.dx == pytest.approx(0.25)
        assert mesh.dy == pytest.approx(0.4)
        assert mesh.element_area() == pytest.approx(0.1)

    def test_node_coordinates_cover_domain(self):
        mesh = RectangularMesh(2.0, 1.0, 2, 2)
        coords = mesh.node_coordinates()
        assert coords.shape == (9, 2)
        assert coords[:, 0].max() == pytest.approx(2.0)
        assert coords[:, 1].max() == pytest.approx(1.0)

    def test_connectivity_is_counter_clockwise(self):
        mesh = RectangularMesh(1.0, 1.0, 2, 2)
        coords = mesh.node_coordinates()
        for nodes in mesh.element_connectivity():
            quad = coords[nodes]
            # Shoelace area must be positive for CCW ordering.
            x, y = quad[:, 0], quad[:, 1]
            area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
            assert area > 0.0

    def test_boundary_node_sets(self):
        mesh = RectangularMesh(1.0, 1.0, 3, 2)
        coords = mesh.node_coordinates()
        assert np.allclose(coords[mesh.bottom_nodes()][:, 1], 0.0)
        assert np.allclose(coords[mesh.top_nodes()][:, 1], 1.0)
        assert np.allclose(coords[mesh.left_nodes()][:, 0], 0.0)
        assert np.allclose(coords[mesh.right_nodes()][:, 0], 1.0)
        assert len(mesh.bottom_nodes()) == 4
        assert len(mesh.left_nodes()) == 3

    def test_nodes_where_predicate(self):
        mesh = RectangularMesh(1.0, 1.0, 2, 2)
        centre = mesh.nodes_where(lambda x, y: abs(x - 0.5) < 1e-9 and abs(y - 0.5) < 1e-9)
        assert centre.size == 1

    def test_refined(self):
        mesh = RectangularMesh(1.0, 1.0, 2, 3).refined(2)
        assert mesh.nx == 4 and mesh.ny == 6

    def test_invalid_parameters(self):
        with pytest.raises(MeshError):
            RectangularMesh(0.0, 1.0, 2, 2)
        with pytest.raises(MeshError):
            RectangularMesh(1.0, 1.0, 0, 2)
        with pytest.raises(MeshError):
            RectangularMesh(1.0, 1.0, 2, 2).node_index(5, 0)
        with pytest.raises(MeshError):
            RectangularMesh(1.0, 1.0, 2, 2).refined(0)

    def test_element_centroids(self):
        mesh = RectangularMesh(1.0, 1.0, 1, 1)
        assert mesh.element_centroids()[0] == pytest.approx([0.5, 0.5])


class TestShapeFunctions:
    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    @settings(max_examples=50)
    def test_partition_of_unity(self, xi, eta):
        assert np.sum(shape_functions(xi, eta)) == pytest.approx(1.0)

    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    @settings(max_examples=50)
    def test_derivative_rows_sum_to_zero(self, xi, eta):
        derivatives = shape_function_derivatives(xi, eta)
        assert np.allclose(np.sum(derivatives, axis=1), 0.0)

    def test_nodal_interpolation_property(self):
        corners = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
        for k, (xi, eta) in enumerate(corners):
            shapes = shape_functions(xi, eta)
            assert shapes[k] == pytest.approx(1.0)
            assert np.sum(np.abs(np.delete(shapes, k))) == pytest.approx(0.0)


class TestElementMatrices:
    UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

    def test_stiffness_rows_sum_to_zero(self):
        ke = element_stiffness(self.UNIT_SQUARE)
        assert np.allclose(ke.sum(axis=1), 0.0, atol=1e-14)

    def test_stiffness_symmetric_positive_semidefinite(self):
        ke = element_stiffness(self.UNIT_SQUARE, permittivity=3.0)
        assert np.allclose(ke, ke.T)
        eigenvalues = np.linalg.eigvalsh(ke)
        assert np.all(eigenvalues > -1e-14)

    def test_stiffness_scales_with_permittivity(self):
        k1 = element_stiffness(self.UNIT_SQUARE, 1.0)
        k2 = element_stiffness(self.UNIT_SQUARE, 2.5)
        assert np.allclose(k2, 2.5 * k1)

    @pytest.mark.parametrize("dx, dy", [(1.0, 1.0), (3e-5, 7e-6),
                                        (2e-6, 4e-4)])
    def test_rectangle_stiffness_splits_into_its_derivative_pieces(self, dx,
                                                                    dy):
        k_xi, k_eta = rectangle_stiffness_pieces()
        corners = np.array([[0.0, 0.0], [dx, 0.0], [dx, dy], [0.0, dy]])
        ke = element_stiffness(corners)
        assert np.max(np.abs((dy / dx) * k_xi + (dx / dy) * k_eta - ke)) \
            <= 1e-14 * np.max(np.abs(ke))
        # The x piece is blind to y variation, the y piece to x variation.
        assert np.allclose(k_xi @ [0.0, 0.0, 1.0, 1.0], 0.0, atol=1e-15)
        assert np.allclose(k_eta @ [0.0, 1.0, 1.0, 0.0], 0.0, atol=1e-15)

    def test_mass_matrix_integrates_density(self):
        me = element_mass(self.UNIT_SQUARE, density=4.0)
        assert me.sum() == pytest.approx(4.0)  # total "mass" = rho * area

    def test_gradient_of_linear_field_is_exact(self):
        nodal = np.array([0.0, 2.0, 5.0, 3.0])  # phi = 2x + 3y on the unit square
        gradient = element_gradient(self.UNIT_SQUARE, nodal)
        assert gradient == pytest.approx([2.0, 3.0])

    def test_bad_coordinates_rejected(self):
        with pytest.raises(FEMError):
            element_stiffness(np.zeros((3, 2)))
        clockwise = self.UNIT_SQUARE[::-1]
        with pytest.raises(FEMError):
            element_stiffness(clockwise)
        with pytest.raises(FEMError):
            element_gradient(self.UNIT_SQUARE, np.zeros(3))
