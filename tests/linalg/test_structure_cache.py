"""Tests for the sparsity-pattern and factorization caches."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import LinAlgError
from repro.linalg import (FactorizationCache, FactorizedSolver, StructureCache,
                          batched_factorize)


class TestStructureCache:
    def test_matches_scipy_coo_sum(self):
        rows = [0, 1, 1, 2, 0]
        cols = [0, 1, 1, 2, 2]
        vals = [1.0, 2.0, 3.0, 4.0, 5.0]
        cache = StructureCache()
        ours = cache.assemble(rows, cols, vals, 3)
        reference = sp.coo_matrix((vals, (rows, cols)), shape=(3, 3)).tocsr()
        np.testing.assert_allclose(ours.toarray(), reference.toarray())

    def test_pattern_reuse_and_value_update(self):
        rows, cols = [0, 1, 1, 0], [0, 1, 0, 0]
        cache = StructureCache()
        first = cache.assemble(rows, cols, [1.0, 1.0, 1.0, 1.0], 2)
        second = cache.assemble(rows, cols, [2.0, 5.0, -1.0, 3.0], 2)
        assert cache.rebuilds == 1 and cache.reuses == 1
        np.testing.assert_allclose(first.toarray(), [[2.0, 0.0], [1.0, 1.0]])
        np.testing.assert_allclose(second.toarray(), [[5.0, 0.0], [-1.0, 5.0]])

    def test_changed_pattern_invalidates(self):
        cache = StructureCache()
        cache.assemble([0, 1], [0, 1], [1.0, 1.0], 2)
        generation = cache.generation
        # Same length, different coordinates: must rebuild, not corrupt.
        result = cache.assemble([0, 1], [1, 1], [3.0, 4.0], 2)
        assert cache.generation == generation + 1
        np.testing.assert_allclose(result.toarray(), [[0.0, 3.0], [0.0, 4.0]])

    def test_changed_length_invalidates(self):
        cache = StructureCache()
        cache.assemble([0, 1], [0, 1], [1.0, 1.0], 2)
        result = cache.assemble([0, 1, 0], [0, 1, 1], [1.0, 1.0, 7.0], 2)
        assert cache.rebuilds == 2
        np.testing.assert_allclose(result.toarray(), [[1.0, 7.0], [0.0, 1.0]])

    def test_out_of_range_rejected(self):
        with pytest.raises(LinAlgError):
            StructureCache().assemble([0, 5], [0, 0], [1.0, 1.0], 2)

    def test_device_count_change_invalidates_mna_pattern(self):
        """Adding a device to a circuit changes the stamp stream: the shared
        pattern cache of a fresh MNASystem must rebuild, not reuse."""
        from repro.circuit import Circuit, OperatingPointAnalysis, SimulationOptions

        def ladder(n):
            circuit = Circuit(f"ladder-{n}")
            circuit.voltage_source("V1", "n0", "0", 1.0)
            for i in range(n):
                circuit.resistor(f"R{i}", f"n{i}", f"n{i + 1}", 100.0)
                circuit.resistor(f"Rg{i}", f"n{i + 1}", "0", 1e4)
            return circuit

        options = SimulationOptions(linear_solver="sparse")
        analysis = OperatingPointAnalysis(ladder(6), options)
        analysis.run()
        cache = analysis.system.structure_cache
        assert cache.rebuilds == 1 and cache.reuses >= 1
        # A different topology through the same cache must rebuild.
        bigger = OperatingPointAnalysis(ladder(7), options)
        bigger.run()
        assert bigger.system.structure_cache.rebuilds == 1


class TestFactorizationCache:
    def test_identical_matrix_hits(self):
        cache = FactorizationCache(FactorizedSolver("dense"))
        matrix = np.array([[2.0, 0.0], [0.0, 4.0]])
        first = cache.factorize(matrix)
        second = cache.factorize(matrix.copy())
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_value_change_misses(self):
        cache = FactorizationCache(FactorizedSolver("dense"))
        first = cache.factorize(np.eye(2))
        second = cache.factorize(2.0 * np.eye(2))
        assert second is not first and cache.misses == 2
        assert cache.handle is second
        np.testing.assert_array_equal(cache.matrix, 2.0 * np.eye(2))

    def test_only_the_last_matrix_is_held(self):
        cache = FactorizationCache(FactorizedSolver("dense"))
        for scale in (1.0, 2.0, 1.0):
            cache.factorize(scale * np.eye(2))
        assert cache.misses == 3 and cache.hits == 0

    def test_sparse_structure_change_misses(self):
        cache = FactorizationCache(FactorizedSolver("superlu"))
        diagonal = sp.csr_matrix((np.array([1.0, 2.0]), np.array([0, 1]),
                                  np.array([0, 1, 2])), shape=(2, 2))
        # Equal data array, entries in other columns.
        antidiagonal = sp.csr_matrix((np.array([1.0, 2.0]), np.array([1, 0]),
                                      np.array([0, 1, 2])), shape=(2, 2))
        cache.factorize(diagonal)
        cache.factorize(antidiagonal)
        assert cache.misses == 2 and cache.hits == 0
        cache.factorize(antidiagonal.copy())
        assert cache.hits == 1

    def test_dense_and_sparse_forms_do_not_match(self):
        cache = FactorizationCache()
        cache.factorize(np.eye(3))
        cache.factorize(sp.csr_matrix(np.eye(3)))
        assert cache.misses == 2

    def test_stacks_and_lane_lists_hit_on_equality(self):
        rng = np.random.default_rng(0)
        stack = rng.standard_normal((3, 4, 4)) + 4.0 * np.eye(4)
        cache = FactorizationCache()
        dense, fresh = cache.fetch(stack, batched_factorize)
        assert fresh
        assert cache.fetch(stack.copy(), batched_factorize) == (dense, False)

        def superlu(lanes):
            return batched_factorize(lanes, "superlu")

        lanes = [sp.csr_matrix(matrix) for matrix in stack]
        held, fresh = cache.fetch(lanes, superlu)
        assert fresh and held is not dense
        copies = [lane.copy() for lane in lanes]
        assert cache.fetch(copies, superlu) == (held, False)
        copies[1].data[0] += 1.0
        assert cache.fetch(copies, superlu)[1]
        assert cache.hits == 2 and cache.misses == 3

    def test_failed_factorization_keeps_the_held_pair(self):
        cache = FactorizationCache(FactorizedSolver("dense"))
        handle = cache.factorize(np.eye(2))
        with pytest.raises(LinAlgError):
            cache.factorize(np.zeros((2, 2)))
        assert cache.handle is handle
        assert cache.factorize(np.eye(2)) is handle
