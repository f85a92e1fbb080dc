"""Whole-array FE kernels against the historical per-element loops.

The mesh index helpers, the stacked ``element_gradient`` and the
mask-based Dirichlet elimination replaced Python loops; the loops are kept
here as golden references and every result must match them bitwise over a
seeded generator of meshes, permittivities, voltages, constraint sets and
input matrix formats.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import FEMError
from repro.fem import ParallelPlateProblem
from repro.fem.assembly import apply_dirichlet, assemble_stiffness
from repro.fem.elements import (element_gradient, element_stiffness,
                                shape_function_derivatives)
from repro.fem.mesh import RectangularMesh
from repro.fem.solver import solve_sparse

GENERATED_CASES = 48
CONSTRAINT_SETS = ("bottom_top", "left_right", "single_node", "all_but_one")
FORMATS = ("csr", "csc", "coo")
UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


# ----------------------------------------------------------- golden references
def _reference_connectivity(mesh: RectangularMesh) -> np.ndarray:
    """The historical node_index loop behind ``element_connectivity``."""
    connectivity = np.zeros((mesh.num_elements, 4), dtype=int)
    element = 0
    for j in range(mesh.ny):
        for i in range(mesh.nx):
            connectivity[element] = (mesh.node_index(i, j), mesh.node_index(i + 1, j),
                                     mesh.node_index(i + 1, j + 1), mesh.node_index(i, j + 1))
            element += 1
    return connectivity


def _reference_edges(mesh: RectangularMesh) -> dict[str, np.ndarray]:
    """The historical node_index loops behind the boundary-node helpers."""
    return {
        "bottom_nodes": np.array([mesh.node_index(i, 0) for i in range(mesh.nx + 1)], dtype=int),
        "top_nodes": np.array([mesh.node_index(i, mesh.ny) for i in range(mesh.nx + 1)],
                              dtype=int),
        "left_nodes": np.array([mesh.node_index(0, j) for j in range(mesh.ny + 1)], dtype=int),
        "right_nodes": np.array([mesh.node_index(mesh.nx, j) for j in range(mesh.ny + 1)],
                                dtype=int),
    }


def _reference_gradient(coords: np.ndarray, nodal_values: np.ndarray) -> np.ndarray:
    """The historical single-element centroid gradient."""
    dshape = shape_function_derivatives(0.0, 0.0)
    jac = dshape @ coords
    if float(np.linalg.det(jac)) <= 0.0:
        raise FEMError("element Jacobian is not positive (bad node ordering?)")
    return np.linalg.solve(jac, dshape @ nodal_values)


def _reference_field(mesh: RectangularMesh, potential: np.ndarray) -> np.ndarray:
    """The historical per-element post-processing loop."""
    coords = mesh.node_coordinates()
    field = np.zeros((mesh.num_elements, 2))
    for element, nodes in enumerate(_reference_connectivity(mesh)):
        field[element] = -_reference_gradient(coords[nodes], potential[nodes])
    return field


def _reference_dirichlet(matrix, rhs, node_values):
    """The historical lil/csc row-and-column elimination."""
    matrix = matrix.tolil(copy=True)
    rhs = np.array(rhs, dtype=float, copy=True)
    constrained = np.array(sorted(node_values), dtype=int)
    values = np.array([node_values[int(node)] for node in constrained], dtype=float)
    csr = matrix.tocsr()
    rhs -= csr[:, constrained] @ values
    matrix = csr.tolil()
    for node, value in zip(constrained, values):
        matrix.rows[node] = [node]
        matrix.data[node] = [1.0]
        rhs[node] = value
    csc = matrix.tocsr().tocsc()
    for node in constrained:
        for pos in range(csc.indptr[node], csc.indptr[node + 1]):
            if csc.indices[pos] != node:
                csc.data[pos] = 0.0
    result = csc.tocsr()
    result.eliminate_zeros()
    return result, rhs


# ------------------------------------------------------------- input generator
def _generated_case(index: int) -> dict:
    """One seeded FE case; the corners of the (nx, ny) range come first."""
    rng = np.random.default_rng(1000 + index)
    corners = [(1, 1), (24, 24), (1, 24), (24, 1)]
    nx, ny = corners[index] if index < len(corners) else rng.integers(1, 25, size=2)
    mesh = RectangularMesh(width=float(10.0 ** rng.uniform(-4.0, -2.0)),
                           height=float(10.0 ** rng.uniform(-6.0, -3.0)),
                           nx=int(nx), ny=int(ny))
    permittivity = (rng.uniform(0.5, 12.0, mesh.num_elements) * 8.854e-12
                    if rng.random() < 0.5 else float(rng.uniform(1.0, 12.0)) * 8.854e-12)
    # index = 12 * voltage choice + 4 * format choice + constraint set, so
    # the 48 cases are the full factorial of the three.
    voltage = (0.0, -7.25, 1e-3, float(rng.uniform(-30.0, 30.0)))[index // 12 % 4]
    kind = CONSTRAINT_SETS[index % 4]
    if kind == "bottom_top":
        constraints = dict.fromkeys(mesh.bottom_nodes().tolist(), 0.0)
        constraints.update(dict.fromkeys(mesh.top_nodes().tolist(), voltage))
    elif kind == "left_right":
        constraints = dict.fromkeys(mesh.left_nodes().tolist(), -voltage)
        constraints.update(dict.fromkeys(mesh.right_nodes().tolist(), voltage))
    elif kind == "single_node":
        constraints = {int(rng.integers(mesh.num_nodes)): voltage}
    else:
        free = int(rng.integers(mesh.num_nodes))
        constraints = {node: float(value) for node, value in enumerate(
            rng.uniform(-abs(voltage) - 1.0, abs(voltage) + 1.0, mesh.num_nodes))
            if node != free}
    rhs = rng.standard_normal(mesh.num_nodes) * 1e-12 if rng.random() < 0.5 \
        else np.zeros(mesh.num_nodes)
    return {"mesh": mesh, "permittivity": permittivity, "voltage": voltage,
            "constraints": constraints, "rhs": rhs, "format": FORMATS[index // 4 % 3]}


def _jittered_quads(rng, count: int) -> np.ndarray:
    """Jittered, scaled and shifted unit squares (convex, counter-clockwise)."""
    jitter = rng.uniform(-0.2, 0.2, (count, 4, 2))
    scale = 10.0 ** rng.uniform(-6.0, 0.0, (count, 1, 2))
    shift = rng.uniform(-1.0, 1.0, (count, 1, 2))
    return (UNIT_SQUARE + jitter) * scale + shift


def _raw_arrays(matrix) -> list[np.ndarray]:
    if matrix.format == "coo":
        return [matrix.data.copy(), matrix.row.copy(), matrix.col.copy()]
    return [matrix.data.copy(), matrix.indices.copy(), matrix.indptr.copy()]


# ------------------------------------------------------------------ mesh index
class TestMeshIndexHelpers:
    @pytest.mark.parametrize("nx, ny", [(1, 1), (1, 6), (5, 1), (3, 7), (20, 14), (24, 24)])
    def test_connectivity_and_edges_match_loops(self, nx, ny):
        mesh = RectangularMesh(1.0, 2.0, nx, ny)
        connectivity = mesh.element_connectivity()
        reference = _reference_connectivity(mesh)
        assert np.array_equal(connectivity, reference)
        assert connectivity.dtype == reference.dtype == np.dtype(int)
        for name, want in _reference_edges(mesh).items():
            got = getattr(mesh, name)()
            assert np.array_equal(got, want), name
            assert got.dtype == np.dtype(int), name


# ------------------------------------------------------- stacked element field
class TestStackedElementGradient:
    @pytest.mark.parametrize("seed", range(4))
    def test_stack_equals_single_calls(self, seed):
        rng = np.random.default_rng(seed)
        coords = _jittered_quads(rng, 37)
        values = rng.uniform(-50.0, 50.0, (37, 4))
        xi, eta = rng.uniform(-1.0, 1.0, 2) if seed % 2 else (0.0, 0.0)
        stacked = element_gradient(coords, values, xi, eta)
        assert stacked.shape == (37, 2)
        singles = np.array([element_gradient(c, v, xi, eta) for c, v in zip(coords, values)])
        assert np.array_equal(stacked, singles)
        if (xi, eta) == (0.0, 0.0):
            assert np.array_equal(
                stacked, np.array([_reference_gradient(c, v) for c, v in zip(coords, values)]))

    def test_leading_axes_are_kept(self):
        rng = np.random.default_rng(11)
        coords = _jittered_quads(rng, 6).reshape(2, 3, 4, 2)
        values = rng.standard_normal((2, 3, 4))
        stacked = element_gradient(coords, values)
        assert stacked.shape == (2, 3, 2)
        assert np.array_equal(stacked.reshape(6, 2),
                              element_gradient(coords.reshape(6, 4, 2), values.reshape(6, 4)))

    @pytest.mark.parametrize("position", [0, 9, 19])
    def test_one_inverted_element_raises(self, position):
        rng = np.random.default_rng(position)
        coords = _jittered_quads(rng, 20)
        coords[position] = coords[position][::-1]  # clockwise
        with pytest.raises(FEMError):
            element_gradient(coords, np.zeros((20, 4)))

    @pytest.mark.parametrize("coords_shape, values_shape", [
        ((5, 4, 2), (4, 4)), ((5, 4, 2), (5, 3)), ((5, 3, 2), (5, 3)),
        ((5, 4, 2), (5,)), ((4, 2), (5, 4)), ((8,), (4,))])
    def test_mismatched_shapes_raise(self, coords_shape, values_shape):
        # Valid unit squares wherever the shape allows, so only the shape
        # check can reject the call.
        coords = np.resize(UNIT_SQUARE, coords_shape)
        with pytest.raises(FEMError, match="4 corners and 4 nodal values"):
            element_gradient(coords, np.ones(values_shape))


# ------------------------------------------------- generated golden equivalence
class TestGoldenEquivalence:
    @pytest.mark.parametrize("index", range(GENERATED_CASES))
    def test_dirichlet_and_field_match_loops(self, index):
        case = _generated_case(index)
        mesh = case["mesh"]
        stiffness = assemble_stiffness(mesh, case["permittivity"])
        # CSR is the assembled matrix itself, whose index arrays the
        # pattern cache shares with every later assembly.
        matrix = stiffness.asformat(case["format"])
        rhs = case["rhs"]
        before, rhs_before = _raw_arrays(matrix), rhs.copy()

        constrained, new_rhs = apply_dirichlet(matrix, rhs, case["constraints"])
        for now, then in zip(_raw_arrays(matrix), before):
            assert np.array_equal(now, then) and now.dtype == then.dtype
        assert np.array_equal(rhs, rhs_before)

        reference, reference_rhs = _reference_dirichlet(matrix, rhs, case["constraints"])
        assert constrained.format == "csr"
        assert np.array_equal(constrained.data, reference.data)
        assert np.array_equal(constrained.indices, reference.indices)
        assert np.array_equal(constrained.indptr, reference.indptr)
        assert np.array_equal(new_rhs, reference_rhs)

        potential = solve_sparse(constrained, new_rhs)
        assert np.array_equal(potential, solve_sparse(reference, reference_rhs))
        connectivity = mesh.element_connectivity()
        field = -element_gradient(mesh.node_coordinates()[connectivity],
                                  potential[connectivity])
        assert np.array_equal(field, _reference_field(mesh, potential))

    @pytest.mark.parametrize("index", range(0, GENERATED_CASES, 4))
    def test_parallel_plate_solve_matches_loops(self, index):
        case = _generated_case(index)
        mesh = case["mesh"]
        problem = ParallelPlateProblem(plate_width=mesh.width, gap=mesh.height,
                                       depth=2e-4, nx=mesh.nx, ny=mesh.ny)
        solution = problem.solve(case["voltage"])

        constraints = dict.fromkeys(mesh.bottom_nodes().tolist(), 0.0)
        constraints.update(dict.fromkeys(mesh.top_nodes().tolist(), case["voltage"]))
        matrix, rhs = _reference_dirichlet(
            assemble_stiffness(mesh, problem.permittivity), np.zeros(mesh.num_nodes),
            constraints)
        potential = solve_sparse(matrix, rhs)
        assert np.array_equal(solution.potential, potential)
        assert np.array_equal(solution.field, _reference_field(mesh, potential))


class TestDirichletChecks:
    @pytest.mark.parametrize("index", [1, 6, 14, 23])
    def test_non_canonical_inputs_match_loops(self, index):
        # The raw assembly triplets (duplicates per shared node) as COO, and
        # as a CSR with duplicates and unsorted column indices.
        case = _generated_case(index)
        mesh = case["mesh"]
        coords = mesh.node_coordinates()
        connectivity = mesh.element_connectivity()
        eps = np.broadcast_to(case["permittivity"], (mesh.num_elements,))
        values = np.concatenate([element_stiffness(coords[nodes], e).ravel()
                                 for nodes, e in zip(connectivity, eps)])
        rows = np.repeat(connectivity, 4, axis=1).ravel()
        cols = np.tile(connectivity, (1, 4)).ravel()
        shape = (mesh.num_nodes, mesh.num_nodes)
        order = np.argsort(rows, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=mesh.num_nodes))))
        for matrix in (sp.coo_matrix((values, (rows, cols)), shape=shape),
                       sp.csr_matrix((values[order], cols[order], indptr), shape=shape)):
            before = _raw_arrays(matrix)
            result, rhs = apply_dirichlet(matrix, case["rhs"], case["constraints"])
            for now, then in zip(_raw_arrays(matrix), before):
                assert np.array_equal(now, then)
            reference, reference_rhs = _reference_dirichlet(
                matrix, case["rhs"], case["constraints"])
            assert np.array_equal(result.data, reference.data)
            assert np.array_equal(result.indices, reference.indices)
            assert np.array_equal(result.indptr, reference.indptr)
            assert np.array_equal(rhs, reference_rhs)

    def test_missing_diagonal_is_pinned(self):
        # A structurally zero diagonal on a constrained node still gets its
        # unit pivot (the elimination inserts it).
        matrix = sp.csr_matrix(np.array([[0.0, 1.0, 0.0],
                                         [1.0, 2.0, -1.0],
                                         [0.0, -1.0, 3.0]]))
        constraints = {0: 2.0}
        result, rhs = apply_dirichlet(matrix, np.zeros(3), constraints)
        reference, reference_rhs = _reference_dirichlet(matrix, np.zeros(3), constraints)
        assert np.array_equal(result.toarray(), reference.toarray())
        assert np.array_equal(rhs, reference_rhs)
        assert result[0, 0] == 1.0

    @pytest.mark.parametrize("node", [-1, 9])
    def test_out_of_range_node_rejected(self, node):
        matrix = assemble_stiffness(RectangularMesh(1.0, 1.0, 2, 2))
        with pytest.raises(FEMError):
            apply_dirichlet(matrix, np.zeros(9), {0: 0.0, node: 1.0})
