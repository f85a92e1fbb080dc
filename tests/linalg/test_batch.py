"""Tests for the batched factorization layer and batched CSR assembly."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import LinAlgError
from repro.linalg import (BATCH_BACKENDS, BatchedDenseLU, BatchedSparseLU,
                          FactorizedSolver, StructureCache, batched_factorize)
from repro.telemetry import registry

SINGULAR_LANES = "linalg.batch.singular_lanes"


def _stack(batch: int = 5, n: int = 8, seed: int = 11):
    rng = np.random.default_rng(seed)
    matrices = rng.standard_normal((batch, n, n)) + n * np.eye(n)
    rhs = rng.standard_normal((batch, n))
    return matrices, rhs


class TestBatchedDenseLU:
    def test_matches_serial_dense_solver(self):
        matrices, rhs = _stack()
        handle = BatchedDenseLU(matrices)
        assert not handle.failed.any()
        solutions = handle.solve(rhs)
        solver = FactorizedSolver("dense")
        for b in range(matrices.shape[0]):
            reference = solver.solve(matrices[b], rhs[b])
            np.testing.assert_allclose(solutions[b], reference,
                                       rtol=1e-12, atol=1e-12)

    def test_singular_lane_masks_nan_others_survive(self):
        matrices, rhs = _stack()
        matrices[2] = 0.0
        handle = BatchedDenseLU(matrices)
        # An exactly singular lane is found by the first solve, not before.
        assert not handle.failed.any()
        solutions = handle.solve(rhs)
        assert list(handle.failed) == [False, False, True, False, False]
        assert np.isnan(solutions[2]).all()
        for b in (0, 1, 3, 4):
            np.testing.assert_allclose(matrices[b] @ solutions[b], rhs[b],
                                       atol=1e-9)

    def test_nonfinite_lane_flagged(self):
        matrices, rhs = _stack()
        matrices[0, 3, 3] = np.nan
        handle = BatchedDenseLU(matrices)
        # Non-finite input is flagged as soon as the handle exists.
        assert handle.failed[0]
        assert not handle.failed[1:].any()
        solutions = handle.solve(rhs)
        assert np.isnan(solutions[0]).all()
        assert np.isfinite(solutions[1:]).all()

    def test_singular_lane_counted_once(self):
        matrices, rhs = _stack()
        matrices[3] = 0.0
        registry.reset(names=[SINGULAR_LANES])
        handle = BatchedDenseLU(matrices)
        handle.solve(rhs)
        handle.solve(rhs)
        handle.solve_transposed(rhs)
        assert registry.counter_value(SINGULAR_LANES) == 1

    def test_healthy_batch_counts_no_singular_lane(self):
        matrices, rhs = _stack()
        registry.reset(names=[SINGULAR_LANES])
        handle = BatchedDenseLU(matrices)
        handle.solve(rhs)
        handle.solve_transposed(rhs)
        assert registry.counter_value(SINGULAR_LANES) == 0

    def test_solve_transposed(self):
        matrices, rhs = _stack()
        handle = BatchedDenseLU(matrices)
        solutions = handle.solve_transposed(rhs)
        for b in range(matrices.shape[0]):
            np.testing.assert_allclose(matrices[b].T @ solutions[b], rhs[b],
                                       atol=1e-9)

    def test_shape_validation(self):
        with pytest.raises(LinAlgError):
            BatchedDenseLU(np.zeros((4, 3)))
        handle = BatchedDenseLU(_stack()[0])
        with pytest.raises(LinAlgError):
            handle.solve(np.zeros((2, 8)))


def _generated_stack(batch: int, n: int, seed: int):
    """Well-conditioned random lanes with injected singular/non-finite ones.

    Singular lanes are exact: a zero row or a zero column stays exactly zero
    through every elimination step, so LU meets an exactly zero pivot
    whatever the BLAS kernel's operation order.  (A duplicated row is
    singular only up to rounding and is deliberately not used.)
    """
    rng = np.random.default_rng(seed)
    matrices = rng.standard_normal((batch, n, n)) + 2.0 * n * np.eye(n)
    rhs = rng.standard_normal((batch, n))
    for b in range(batch):
        draw = rng.random()
        i, j = rng.integers(n, size=2)
        if draw < 0.1:
            matrices[b, i, j] = rng.choice([np.nan, np.inf, -np.inf])
        elif draw < 0.2:
            matrices[b, i, :] = 0.0
        elif draw < 0.3:
            matrices[b, :, j] = 0.0
    return matrices, rhs


class TestBatchedDenseLUGenerated:
    """Stacked-gesv lanes against the serial dense solver, lane by lane."""

    @pytest.mark.parametrize("n", [1, 3, 14, 26])
    @pytest.mark.parametrize("batch", [1, 2, 7, 64])
    def test_matches_serial_solver(self, batch, n):
        solver = FactorizedSolver("dense")
        for seed in range(4):
            matrices, rhs = _generated_stack(batch, n, 1000 * batch + 10 * n
                                             + seed)
            expected_failed = np.zeros(batch, dtype=bool)
            references = {}
            for b in range(batch):
                if not np.isfinite(matrices[b]).all():
                    expected_failed[b] = True
                    continue
                try:
                    lane = solver.factorize(matrices[b])
                except LinAlgError:
                    expected_failed[b] = True
                    continue
                references[b] = (lane.solve(rhs[b]),
                                 lane.solve_transposed(rhs[b]))
            handle = BatchedDenseLU(matrices)
            solutions = handle.solve(rhs)
            transposed = handle.solve_transposed(rhs)
            assert np.array_equal(handle.failed, expected_failed)
            assert np.isnan(solutions[expected_failed]).all()
            assert np.isnan(transposed[expected_failed]).all()
            for b, (forward, backward) in references.items():
                np.testing.assert_allclose(solutions[b], forward,
                                           rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(transposed[b], backward,
                                           rtol=1e-12, atol=1e-12)
            # The chord contract: re-solving the held handle is bitwise.
            assert np.array_equal(handle.solve(rhs), solutions,
                                  equal_nan=True)
            assert np.array_equal(handle.solve_transposed(rhs), transposed,
                                  equal_nan=True)


class TestBatchedSparseLU:
    def test_matches_dense_solutions(self):
        matrices, rhs = _stack()
        lanes = [sp.csr_matrix(m) for m in matrices]
        handle = BatchedSparseLU(lanes)
        assert not handle.failed.any()
        dense = BatchedDenseLU(matrices).solve(rhs)
        np.testing.assert_allclose(handle.solve(rhs), dense,
                                   rtol=1e-10, atol=1e-10)

    def test_solve_transposed(self):
        matrices, rhs = _stack()
        handle = BatchedSparseLU([sp.csr_matrix(m) for m in matrices])
        solutions = handle.solve_transposed(rhs)
        for b in range(matrices.shape[0]):
            np.testing.assert_allclose(matrices[b].T @ solutions[b], rhs[b],
                                       atol=1e-9)

    def test_singular_lane_masks_nan(self):
        matrices, rhs = _stack()
        matrices[1] = 0.0
        # Keep the pattern identical across lanes: explicit zeros.
        lanes = [sp.csr_matrix(m) for m in matrices]
        handle = BatchedSparseLU(lanes)
        assert handle.failed[1]
        solutions = handle.solve(rhs)
        assert np.isnan(solutions[1]).all()
        np.testing.assert_allclose(matrices[0] @ solutions[0], rhs[0],
                                   atol=1e-9)

    def test_empty_batch_rejected(self):
        with pytest.raises(LinAlgError):
            BatchedSparseLU([])


class TestBatchedFactorize:
    def test_auto_follows_representation(self):
        matrices, _ = _stack()
        assert batched_factorize(matrices).backend == "dense"
        lanes = [sp.csr_matrix(m) for m in matrices]
        assert batched_factorize(lanes).backend == "superlu"

    def test_explicit_backend_converts_input(self):
        matrices, rhs = _stack()
        lanes = [sp.csr_matrix(m) for m in matrices]
        as_dense = batched_factorize(lanes, "dense")
        as_sparse = batched_factorize(matrices, "superlu")
        np.testing.assert_allclose(as_dense.solve(rhs), as_sparse.solve(rhs),
                                   rtol=1e-10, atol=1e-10)

    def test_unknown_backend_rejected(self):
        with pytest.raises(LinAlgError):
            batched_factorize(_stack()[0], "qr")
        assert "auto" in BATCH_BACKENDS


class TestStructureCacheBatch:
    def test_lanes_match_serial_assembly_exactly(self):
        rng = np.random.default_rng(3)
        rows = np.array([0, 0, 1, 2, 2, 1, 0])
        cols = np.array([0, 1, 1, 2, 0, 2, 0])
        values = rng.standard_normal((rows.size, 4))
        cache = StructureCache()
        lanes = cache.assemble_batch(rows, cols, values, 3)
        assert len(lanes) == 4
        for b, lane in enumerate(lanes):
            reference = cache.assemble(rows, cols, values[:, b], 3)
            assert np.array_equal(lane.toarray(), reference.toarray())

    def test_pattern_reduction_shared(self):
        rows = np.array([0, 1, 1])
        cols = np.array([0, 0, 1])
        cache = StructureCache()
        cache.assemble_batch(rows, cols, np.ones((3, 2)), 2)
        cache.assemble_batch(rows, cols, np.full((3, 2), 2.0), 2)
        assert cache.reuses >= 1

    def test_shape_validation(self):
        cache = StructureCache()
        with pytest.raises(LinAlgError):
            cache.assemble_batch([0], [0], np.ones(1), 1)  # not (T, B)
        with pytest.raises(LinAlgError):
            cache.assemble_batch([0, 1], [0, 0], np.ones((3, 2)), 2)
