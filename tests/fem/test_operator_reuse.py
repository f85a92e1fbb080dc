"""The held FE operator of the parallel-plate problem: cold == warm, bitwise.

:meth:`ParallelPlateProblem.solve` keeps one operator per exact geometry
(mesh plus permittivity) -- the stiffness, the eliminated matrix, its
factorization and the post-processing gather arrays -- and only lifts the
drive into a new right-hand side per point after the first.  These tests pin that reuse never changes a
bit: on generated geometries and drives, a solve from a cleared table, a
solve on a held operator and the direct elimination path agree exactly,
and so do serial and pool campaign rows.  They also pin the table's keys
(exact float equality), its bound, and that a failed geometry leaves no
entry behind.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.campaign import CampaignRunner
from repro.errors import FEMError
from repro.fem import ParallelPlateProblem
from repro.fem import electrostatics
from repro.fem.assembly import apply_dirichlet, assemble_stiffness
from repro.fem.solver import solve_sparse
from repro.pxt import ParameterExtractor
from repro.telemetry import registry

OUTPUTS = ("capacitance", "charge", "force", "energy", "field")


@pytest.fixture(autouse=True)
def empty_table():
    electrostatics._OPERATORS.clear()
    yield
    electrostatics._OPERATORS.clear()


def _cases(seed: int, count: int = 6):
    """Seeded geometries: gap, mesh divisions, permittivity and drives
    (always including 0 V and a negative drive)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        gap = float(rng.uniform(5e-6, 4e-4))
        nx, ny = (int(n) for n in rng.integers(2, 18, size=2))
        epsilon_r = float(rng.uniform(1.0, 12.0))
        voltages = [0.0, -float(rng.uniform(0.1, 30.0)),
                    *(float(v) for v in rng.uniform(-50.0, 50.0, 3))]
        yield gap, nx, ny, epsilon_r, voltages


def _problem(gap, nx, ny, epsilon_r):
    return ParallelPlateProblem(plate_width=1.3e-3, gap=gap, depth=2e-4,
                                epsilon_r=epsilon_r, nx=nx, ny=ny)


def _direct(problem, voltage):
    """Today's elimination arithmetic, with nothing held."""
    mesh = problem.mesh
    constraints = dict.fromkeys(mesh.bottom_nodes().tolist(), 0.0)
    constraints.update(dict.fromkeys(mesh.top_nodes().tolist(), voltage))
    matrix, rhs = apply_dirichlet(
        assemble_stiffness(mesh, permittivity=problem.permittivity),
        np.zeros(mesh.num_nodes), constraints)
    return solve_sparse(matrix, rhs)


def _same(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestColdEqualsWarm:
    @pytest.mark.parametrize("seed", range(4))
    def test_problem_solves_are_bitwise_equal(self, seed):
        for gap, nx, ny, epsilon_r, voltages in _cases(seed):
            for voltage in voltages:
                electrostatics._OPERATORS.clear()
                cold = _problem(gap, nx, ny, epsilon_r).solve(voltage)
                warm = _problem(gap, nx, ny, epsilon_r).solve(voltage)
                assert len(electrostatics._OPERATORS) == 1
                assert _same(cold.potential, warm.potential)
                assert _same(cold.field, warm.field)
                assert _same(warm.potential,
                             _direct(_problem(gap, nx, ny, epsilon_r),
                                     voltage))
                for name in ("energy", "electrode_charge", "electrode_force",
                             "uniform_field_estimate"):
                    got, want = getattr(warm, name), getattr(cold, name)
                    if callable(got):
                        got, want = got(), want()
                    assert float(got).hex() == float(want).hex()

    @pytest.mark.parametrize("orientation", ["paper", "closing"])
    def test_extraction_points_are_bitwise_equal(self, orientation):
        for gap, nx, ny, epsilon_r, voltages in _cases(11, count=4):
            extractor = ParameterExtractor(
                area=1e-6, gap=gap, epsilon_r=epsilon_r,
                gap_orientation=orientation, nx=nx, ny=ny)
            displacements = [0.0, 0.2 * gap, -0.35 * gap]
            cold = []
            for x in displacements:
                for v in voltages:
                    electrostatics._OPERATORS.clear()
                    cold.append(extractor.solve_point(x, v))
            warm = [extractor.solve_point(x, v)
                    for x in displacements for v in voltages]
            assert len(electrostatics._OPERATORS) == len(displacements)
            for got, want in zip(warm, cold):
                for name in OUTPUTS:
                    assert getattr(got, name).hex() == getattr(want, name).hex()

    def test_pool_rows_equal_serial_rows(self):
        extractor = ParameterExtractor(area=1e-6, gap=1.1e-4, nx=9, ny=7,
                                       gap_orientation="closing")
        spec = extractor.campaign_spec([-2e-5, 0.0, 3e-5],
                                       [0.0, -4.0, 2.5, 17.0])
        evaluator = extractor.campaign_evaluator()
        serial = CampaignRunner().run(spec, evaluator)
        runner = CampaignRunner(backend="pool", processes=2, chunk_size=5)
        # Workers forked from an empty table, then from a warm one.
        electrostatics._OPERATORS.clear()
        pool = runner.run(spec, evaluator)
        extractor.solve_point(0.0, 1.0)
        again = runner.run(spec, evaluator)
        assert serial.num_failures == 0
        assert pool.to_rows() == serial.to_rows()
        assert again.to_rows() == serial.to_rows()


class TestOperatorTable:
    def test_a_geometry_solved_once_costs_a_cold_solve(self, monkeypatch):
        # The first solve of a geometry is the cold path; the constrained
        # columns a reuse needs are taken at the first reuse only.
        calls = []
        original = electrostatics.apply_dirichlet
        monkeypatch.setattr(electrostatics, "apply_dirichlet",
                            lambda *args: calls.append(1) or original(*args))
        problem = _problem(1.4e-4, 6, 5, 1.0)
        problem.solve(2.0)
        (operator,) = electrostatics._OPERATORS.values()
        assert len(calls) == 1 and "_lift" not in vars(operator)
        problem.solve(3.0)
        problem.solve(-1.0)
        assert len(calls) == 1 and "_lift" in vars(operator)

    def test_one_ulp_apart_gaps_get_distinct_operators(self):
        gap = 1.5e-4
        neighbour = float(np.nextafter(gap, np.inf))
        assert neighbour != gap
        before = registry.counter_value("linalg.factorizations")
        _problem(gap, 8, 6, 1.0).solve(3.0)
        _problem(neighbour, 8, 6, 1.0).solve(3.0)
        assert len(electrostatics._OPERATORS) == 2
        assert registry.counter_value("linalg.factorizations") - before == 2
        heights = {mesh.height for mesh, _ in electrostatics._OPERATORS}
        assert heights == {gap, neighbour}

    def test_permittivity_is_part_of_the_key(self):
        _problem(1e-4, 6, 4, 1.0).solve(1.0)
        _problem(1e-4, 6, 4, 2.0).solve(1.0)
        _problem(1e-4, 6, 4, 1.0).solve(2.0)
        assert len(electrostatics._OPERATORS) == 2

    def test_table_never_exceeds_its_bound(self):
        limit = electrostatics._OPERATOR_LIMIT
        assert limit >= 8  # a PXT grid's 8 displacements fit
        gaps = np.linspace(5e-5, 2e-4, 3 * limit + 1)
        for gap in gaps:
            _problem(float(gap), 5, 4, 1.0).solve(1.0)
            assert 1 <= len(electrostatics._OPERATORS) <= limit

    def test_eight_displacement_grid_factors_once_per_geometry(self):
        # The acceptance counter: 64 factorizations per grid before the
        # operator was held, one per displacement with it.
        extractor = ParameterExtractor(area=1e-6, gap=1.5e-4, nx=20, ny=14)
        displacements = [(-0.3 + 0.6 * i / 7.0) * extractor.gap
                         for i in range(8)]
        voltages = [2.0 + 13.0 * i / 7.0 for i in range(8)]
        result = CampaignRunner(backend="serial").run(
            extractor.campaign_spec(displacements, voltages),
            extractor.campaign_evaluator())
        assert result.num_failures == 0
        assert result.solver_stats["factorizations"] == 8
        assert result.solver_stats["factorization_cache_hits"] == 56


class TestFaultPath:
    @staticmethod
    def _singular():
        # eps0 * 1e-320 underflows to 0: every stiffness entry is zero and
        # the interior rows of the eliminated matrix are empty.
        return _problem(1e-4, 5, 4, 1e-320)

    def test_failed_factorization_raises_with_report_and_stores_nothing(self):
        with pytest.raises(FEMError) as info:
            self._singular().solve(1.0)
        assert info.value.report is not None
        assert not electrostatics._OPERATORS
        before = registry.counter_value("linalg.factorizations")
        with pytest.raises(FEMError):
            self._singular().solve(1.0)
        assert registry.counter_value("linalg.factorizations") - before == 1
        assert not electrostatics._OPERATORS

    def test_retry_after_a_failed_factorization_refactors(self, monkeypatch):
        problem = _problem(1.2e-4, 7, 5, 1.0)

        def broken(matrix):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(spla, "splu", broken)
        with pytest.raises(FEMError) as info:
            problem.solve(4.0)
        assert info.value.report is not None
        assert not electrostatics._OPERATORS
        monkeypatch.undo()
        solved = problem.solve(4.0)
        assert len(electrostatics._OPERATORS) == 1
        assert _same(solved.potential, _direct(problem, 4.0))
