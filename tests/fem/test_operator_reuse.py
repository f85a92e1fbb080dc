"""The held FE operator of the parallel-plate problem: cold == warm, bitwise.

:meth:`ParallelPlateProblem.solve` keeps one operator per exact geometry
(mesh plus permittivity): the unit drive's potential and centroid field,
solved once on a gap-affine template per ``(nx, ny, width,
permittivity)``.  Every drive scales them.  These tests pin, on generated
geometries and drives:

* a solve from cleared tables and a solve on held ones agree bit for bit,
  and so do serial and pool campaign rows;
* ``solve(V)`` is bit for bit ``V * solve(1)``;
* the direct elimination path (one assembly, ``apply_dirichlet`` and
  SuperLU per drive) agrees to 1e-12 relative -- rounding, not bits, since
  the operator factors the free-node block of ``s Kxx + Kyy / s`` by
  banded LU -- also on elongated meshes and the PXT mesh.

They also pin the tables' keys (exact float equality) and bounds, the
cost (a geometry is one factorization, a drive point none, a template is
built once), that a failed geometry leaves no entry behind and that a
non-finite drive raises.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.campaign import CampaignRunner
from repro.constants import EPSILON_0
from repro.errors import FEMError
from repro.fem import ElectrostaticSolution, ParallelPlateProblem
from repro.fem import electrostatics
from repro.fem.assembly import apply_dirichlet, assemble_stiffness
from repro.fem.elements import element_gradient
from repro.fem.solver import solve_sparse
from repro.pxt import ParameterExtractor
from repro.telemetry import registry

OUTPUTS = ("capacitance", "charge", "force", "energy", "field")


def _clear():
    electrostatics._OPERATORS.clear()
    electrostatics._TEMPLATES.clear()


@pytest.fixture(autouse=True)
def empty_table():
    _clear()
    yield
    _clear()


#: Divisions every generated set ends with: elongated meshes (a band
#: half as wide as the free-node block, and a narrow one) and the PXT mesh.
FIXED_DIVISIONS = ((40, 3), (3, 40), (20, 14))


def _cases(seed: int, count: int = 6):
    """Seeded geometries: gap, mesh divisions, permittivity and drives
    (always including 0 V and a negative drive); ``count`` random
    divisions, then :data:`FIXED_DIVISIONS`."""
    rng = np.random.default_rng(seed)
    for index in range(count + len(FIXED_DIVISIONS)):
        gap = float(rng.uniform(5e-6, 4e-4))
        nx, ny = (int(n) for n in rng.integers(2, 18, size=2))
        if index >= count:
            nx, ny = FIXED_DIVISIONS[index - count]
        epsilon_r = float(rng.uniform(1.0, 12.0))
        voltages = [0.0, -float(rng.uniform(0.1, 30.0)),
                    *(float(v) for v in rng.uniform(-50.0, 50.0, 3))]
        yield gap, nx, ny, epsilon_r, voltages


def _problem(gap, nx, ny, epsilon_r):
    return ParallelPlateProblem(plate_width=1.3e-3, gap=gap, depth=2e-4,
                                epsilon_r=epsilon_r, nx=nx, ny=ny)


def _direct(problem, voltage):
    """The elimination arithmetic with nothing held: the potential and
    the centroid field."""
    mesh = problem.mesh
    constraints = dict.fromkeys(mesh.bottom_nodes().tolist(), 0.0)
    constraints.update(dict.fromkeys(mesh.top_nodes().tolist(), voltage))
    matrix, rhs = apply_dirichlet(
        assemble_stiffness(mesh, permittivity=problem.permittivity),
        np.zeros(mesh.num_nodes), constraints)
    potential = solve_sparse(matrix, rhs)
    connectivity = mesh.element_connectivity()
    field = -element_gradient(mesh.node_coordinates()[connectivity],
                              potential[connectivity])
    return potential, field


def _same(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _close(got, want, rtol: float = 1e-12) -> bool:
    """Equal to ``rtol`` relative to the largest entry of ``want``."""
    return got.shape == want.shape and \
        np.max(np.abs(got - want), initial=0.0) \
        <= rtol * np.max(np.abs(want), initial=0.0)


class TestColdEqualsWarm:
    @pytest.mark.parametrize("seed", range(4))
    def test_problem_solves_are_bitwise_equal(self, seed):
        for gap, nx, ny, epsilon_r, voltages in _cases(seed):
            for voltage in voltages:
                _clear()
                cold = _problem(gap, nx, ny, epsilon_r).solve(voltage)
                warm = _problem(gap, nx, ny, epsilon_r).solve(voltage)
                assert len(electrostatics._OPERATORS) == 1
                assert _same(cold.potential, warm.potential)
                assert _same(cold.field, warm.field)
                potential, field = _direct(_problem(gap, nx, ny, epsilon_r),
                                           voltage)
                assert _close(warm.potential, potential)
                assert _close(warm.field, field)
                direct = ElectrostaticSolution(
                    mesh=warm.mesh, potential=potential, field=field,
                    depth=warm.depth, permittivity=warm.permittivity,
                    voltage=warm.voltage)
                for name in ("energy", "electrode_charge", "electrode_force",
                             "uniform_field_estimate"):
                    got, want, near = (getattr(solution, name) for solution
                                       in (warm, cold, direct))
                    if callable(got):
                        got, want, near = got(), want(), near()
                    assert float(got).hex() == float(want).hex()
                    assert _close(np.array(got), np.array(near))

    @pytest.mark.parametrize("seed", range(4))
    def test_a_drive_is_the_unit_solve_scaled(self, seed):
        for gap, nx, ny, epsilon_r, voltages in _cases(seed):
            unit = _problem(gap, nx, ny, epsilon_r).solve(1.0)
            for voltage in voltages:
                _clear()
                solved = _problem(gap, nx, ny, epsilon_r).solve(voltage)
                assert _same(solved.potential, voltage * unit.potential)
                assert _same(solved.field, voltage * unit.field)

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
                    _clear()
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
        # Workers forked from empty tables, then from warm ones.
        _clear()
        pool = runner.run(spec, evaluator)
        extractor.solve_point(0.0, 1.0)
        again = runner.run(spec, evaluator)
        assert serial.num_failures == 0
        assert pool.to_rows() == serial.to_rows()
        assert again.to_rows() == serial.to_rows()


class TestOperatorTable:
    def test_a_geometry_solved_once_costs_a_cold_solve(self, monkeypatch):
        # The first solve of a geometry is its only solve: one
        # factorization of the unit drive; later drives are scalings.
        solves = []
        original = electrostatics.solve_sparse
        monkeypatch.setattr(electrostatics, "solve_sparse",
                            lambda *args: solves.append(1) or original(*args))
        before = registry.counter_value("linalg.factorizations")
        problem = _problem(1.4e-4, 6, 5, 1.0)
        problem.solve(2.0)
        assert len(solves) == 1
        problem.solve(3.0)
        problem.solve(-1.0)
        assert len(solves) == 1
        assert registry.counter_value("linalg.factorizations") - before == 1

    def test_distinct_gaps_factor_once_each_on_one_template(self,
                                                            monkeypatch):
        builds = []
        original = electrostatics._Template.build
        monkeypatch.setattr(electrostatics._Template, "build",
                            lambda *args: builds.append(1) or original(*args))
        before = registry.counter_value("linalg.factorizations")
        gaps = np.linspace(6e-5, 2.4e-4, 2 * electrostatics._OPERATOR_LIMIT
                           + 3)
        for gap in gaps:
            for voltage in (1.5, -4.0):
                _problem(float(gap), 7, 5, 2.2).solve(voltage)
        assert registry.counter_value("linalg.factorizations") - before \
            == gaps.size
        assert len(builds) == 1
        assert len(electrostatics._TEMPLATES) == 1

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
        assert len(electrostatics._TEMPLATES) == 2

    def test_template_key_is_divisions_width_and_permittivity(self):
        for width, gap in ((1.3e-3, 1e-4), (1.3e-3, 2e-4), (0.9e-3, 1e-4)):
            ParallelPlateProblem(plate_width=width, gap=gap, depth=2e-4,
                                 nx=6, ny=4).solve(1.0)
        assert sorted(electrostatics._TEMPLATES) == [
            (6, 4, 0.9e-3, EPSILON_0), (6, 4, 1.3e-3, EPSILON_0)]

    def test_table_never_exceeds_its_bound(self):
        limit = electrostatics._OPERATOR_LIMIT
        assert limit >= 8  # a PXT grid's 8 displacements fit
        gaps = np.linspace(5e-5, 2e-4, 3 * limit + 1)
        for gap in gaps:
            _problem(float(gap), 5, 4, 1.0).solve(1.0)
            assert 1 <= len(electrostatics._OPERATORS) <= limit
        template_limit = electrostatics._TEMPLATE_LIMIT
        for index in range(3 * template_limit + 1):
            _problem(1e-4, 5, 4, 1.0 + index).solve(1.0)
            assert 1 <= len(electrostatics._TEMPLATES) <= template_limit

    def test_eight_displacement_grid_factors_once_per_geometry(self):
        # The acceptance counter: 64 factorizations per grid before the
        # operator was held, one per displacement with it; no drive point
        # reaches a factorization, held or fresh.
        extractor = ParameterExtractor(area=1e-6, gap=1.5e-4, nx=20, ny=14)
        displacements = [(-0.3 + 0.6 * i / 7.0) * extractor.gap
                         for i in range(8)]
        voltages = [2.0 + 13.0 * i / 7.0 for i in range(8)]
        result = CampaignRunner(backend="serial").run(
            extractor.campaign_spec(displacements, voltages),
            extractor.campaign_evaluator())
        assert result.num_failures == 0
        assert result.solver_stats["factorizations"] == 8
        assert result.solver_stats["factorization_cache_hits"] == 0


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

    @staticmethod
    def _break_template(monkeypatch, problem, value):
        """Hold a template whose free-node block has ``value`` in every
        entry of its first column (0: exactly singular)."""
        mesh = problem.mesh
        key = (mesh.nx, mesh.ny, mesh.width, problem.permittivity)
        template = electrostatics._template(mesh, problem.permittivity)
        broken = dataclasses.replace(template, kxx=template.kxx.copy(),
                                     kyy=template.kyy.copy())
        # DIA data is indexed by column: column 0 of every diagonal.
        broken.kxx[:, 0] = value
        broken.kyy[:, 0] = value
        monkeypatch.setitem(electrostatics._TEMPLATES, key, broken)

    def test_retry_after_a_failed_factorization_refactors(self, monkeypatch):
        problem = _problem(1.2e-4, 7, 5, 1.0)
        self._break_template(monkeypatch, problem, 0.0)
        with pytest.raises(FEMError, match="banded LU") as info:
            problem.solve(4.0)
        # The structural diagnosis reads the DIA block.
        assert info.value.report.diagnosis["zero_cols"] == ["unknown[0]"]
        assert not electrostatics._OPERATORS
        monkeypatch.undo()
        solved = problem.solve(4.0)
        assert len(electrostatics._OPERATORS) == 1
        assert _close(solved.potential, _direct(problem, 4.0)[0])

    def test_non_finite_block_raises_with_report(self, monkeypatch):
        problem = _problem(1.2e-4, 7, 5, 1.0)
        self._break_template(monkeypatch, problem, np.nan)
        with pytest.raises(FEMError, match="banded LU") as info:
            problem.solve(4.0)
        assert info.value.report is not None
        assert not electrostatics._OPERATORS

    @pytest.mark.parametrize("voltage", [np.nan, np.inf, -np.inf])
    def test_non_finite_drive_raises_cold_and_warm(self, voltage):
        problem = _problem(1.1e-4, 6, 5, 1.0)
        with pytest.raises(FEMError, match="non-finite") as info:
            problem.solve(voltage)
        assert info.value.report is not None
        problem.solve(2.0)
        with pytest.raises(FEMError, match="non-finite") as info:
            problem.solve(voltage)
        assert info.value.report is not None
