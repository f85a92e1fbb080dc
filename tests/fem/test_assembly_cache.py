"""FE assembly through the linalg StructureCache (pattern reuse)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import FEMError
from repro.fem.assembly import (apply_dirichlet, assemble_stiffness,
                                free_block, gap_affine_stiffness,
                                structure_cache_for)
from repro.fem.elements import element_stiffness
from repro.fem import electrostatics
from repro.fem.electrostatics import ParallelPlateProblem
from repro.fem.mesh import RectangularMesh
from repro.linalg import StructureCache


def _reference_assembly(mesh, permittivity) -> sp.csr_matrix:
    """The historical per-element COO loop, kept as the golden reference."""
    coords = mesh.node_coordinates()
    eps = np.full(mesh.num_elements, float(permittivity))
    rows, cols, values = [], [], []
    for element, nodes in enumerate(mesh.element_connectivity()):
        ke = element_stiffness(coords[nodes], eps[element])
        for a in range(4):
            for b in range(4):
                rows.append(int(nodes[a]))
                cols.append(int(nodes[b]))
                values.append(float(ke[a, b]))
    return sp.coo_matrix((values, (rows, cols)),
                         shape=(mesh.num_nodes, mesh.num_nodes)).tocsr()


class TestAssembly:
    def test_matches_reference_loop(self):
        mesh = RectangularMesh(width=1e-3, height=2e-4, nx=7, ny=5)
        cached = assemble_stiffness(mesh, 3.2, structure_cache=StructureCache())
        reference = _reference_assembly(mesh, 3.2)
        assert abs(cached - reference).max() < 1e-12 * abs(reference).max()

    def test_per_element_permittivity(self):
        mesh = RectangularMesh(width=1e-3, height=2e-4, nx=4, ny=3)
        eps = np.linspace(1.0, 2.0, mesh.num_elements)
        cache = StructureCache()
        matrix = assemble_stiffness(mesh, eps, structure_cache=cache)
        # Row sums of a Laplace stiffness vanish (to round-off of the
        # entry magnitude) regardless of eps.
        np.testing.assert_allclose(np.asarray(matrix.sum(axis=1)).ravel(),
                                   0.0, atol=1e-12 * abs(matrix).max())
        with pytest.raises(FEMError):
            assemble_stiffness(mesh, eps[:-1], structure_cache=cache)

    def test_pattern_reused_across_values_and_geometry(self):
        cache = StructureCache()
        mesh_a = RectangularMesh(width=1e-3, height=2e-4, nx=6, ny=4)
        mesh_b = RectangularMesh(width=5e-4, height=8e-5, nx=6, ny=4)
        assemble_stiffness(mesh_a, 1.0, structure_cache=cache)
        assemble_stiffness(mesh_a, 2.5, structure_cache=cache)
        assemble_stiffness(mesh_b, 1.0, structure_cache=cache)  # same topology
        assert cache.rebuilds == 1
        assert cache.reuses == 2

    def test_topology_change_rebuilds_safely(self):
        cache = StructureCache()
        coarse = RectangularMesh(width=1e-3, height=2e-4, nx=3, ny=3)
        fine = RectangularMesh(width=1e-3, height=2e-4, nx=5, ny=4)
        assemble_stiffness(coarse, 1.0, structure_cache=cache)
        fine_matrix = assemble_stiffness(fine, 1.0, structure_cache=cache)
        assert cache.rebuilds == 2
        reference = _reference_assembly(fine, 1.0)
        assert abs(fine_matrix - reference).max() < 1e-12


class TestSharedTopologyCaches:
    def test_process_cache_is_shared_per_topology(self):
        mesh_a = RectangularMesh(width=1e-3, height=2e-4, nx=9, ny=7)
        mesh_b = RectangularMesh(width=2e-3, height=1e-4, nx=9, ny=7)
        assert structure_cache_for(mesh_a) is structure_cache_for(mesh_b)
        other = RectangularMesh(width=1e-3, height=2e-4, nx=9, ny=8)
        assert structure_cache_for(other) is not structure_cache_for(mesh_a)

    def test_extraction_style_sweep_reuses_the_pattern(self):
        # The PXT sweep re-meshes only the gap height: its gap-affine
        # template assembles the two stiffness pieces once, the second on
        # the first one's pattern, and no gap of the sweep re-assembles.
        electrostatics._OPERATORS.clear()
        electrostatics._TEMPLATES.clear()
        mesh = RectangularMesh(width=1e-3, height=2e-4, nx=11, ny=6)
        cache = structure_cache_for(mesh)
        rebuilds_before = cache.rebuilds
        reuses_before = cache.reuses
        for gap in (1e-4, 1.5e-4, 2e-4):
            problem = ParallelPlateProblem(plate_width=1e-3, gap=gap,
                                           depth=1e-3, nx=11, ny=6)
            problem.solve(5.0)
        rebuilds = cache.rebuilds - rebuilds_before
        reuses = cache.reuses - reuses_before
        assert rebuilds <= 1 and reuses >= 1
        assert rebuilds + reuses == 2


class TestGapAffinePieces:
    @pytest.mark.parametrize("seed", range(4))
    def test_pieces_recombine_to_the_assembled_stiffness(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            nx, ny = (int(n) for n in rng.integers(1, 20, size=2))
            mesh = RectangularMesh(width=float(rng.uniform(1e-4, 3e-3)),
                                   height=float(rng.uniform(5e-6, 4e-4)),
                                   nx=nx, ny=ny)
            eps = float(rng.uniform(1.0, 12.0)) * 8.854e-12
            kxx, kyy = gap_affine_stiffness(mesh, eps)
            stiffness = assemble_stiffness(mesh, eps)
            for piece in (kxx, kyy):
                assert np.array_equal(piece.indptr, stiffness.indptr)
                assert np.array_equal(piece.indices, stiffness.indices)
            combined = mesh.height * kxx.data + kyy.data / mesh.height
            assert np.max(np.abs(combined - stiffness.data)) \
                <= 1e-14 * np.max(np.abs(stiffness.data))

    def test_free_block_maps_a_shared_pattern(self):
        mesh = RectangularMesh(width=1e-3, height=2e-4, nx=6, ny=5)
        kxx, kyy = gap_affine_stiffness(mesh, 1.0)
        free = np.setdiff1d(np.arange(mesh.num_nodes),
                            np.union1d(mesh.bottom_nodes(), mesh.top_nodes()))
        block, positions = free_block(kxx, free)
        assert block.has_sorted_indices
        assert np.array_equal(block.toarray(),
                              kxx[free][:, free].toarray())
        other = sp.csr_matrix((kyy.data[positions], block.indices,
                               block.indptr), shape=block.shape)
        assert np.array_equal(other.toarray(), kyy[free][:, free].toarray())


class TestElectrostaticsUnchanged:
    def test_parallel_plate_quantities_still_match_closed_forms(self):
        problem = ParallelPlateProblem(plate_width=2e-3, gap=1.5e-4,
                                       depth=5e-2, nx=16, ny=12)
        solution = problem.solve(10.0)
        assert solution.capacitance == pytest.approx(
            problem.analytic_capacitance(), rel=1e-9)
        assert solution.electrode_force() == pytest.approx(
            problem.analytic_force(10.0), rel=1e-9)

    def test_dirichlet_application_still_works_on_cached_matrices(self):
        mesh = RectangularMesh(width=1e-3, height=1e-4, nx=5, ny=4)
        matrix = assemble_stiffness(mesh, 1.0)
        rhs = np.zeros(mesh.num_nodes)
        constrained, rhs2 = apply_dirichlet(
            matrix, rhs, {int(n): 0.0 for n in mesh.bottom_nodes()}
            | {int(n): 1.0 for n in mesh.top_nodes()})
        # The original cached matrix must be untouched by the elimination.
        np.testing.assert_allclose(
            np.asarray(matrix.sum(axis=1)).ravel(), 0.0,
            atol=1e-12 * abs(matrix).max())
        assert constrained.shape == matrix.shape
        assert rhs2[int(list(mesh.top_nodes())[0])] == 1.0
