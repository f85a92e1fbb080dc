"""Tests for the PXT extractor, sweeps, fitting and report generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import EPSILON_0
from repro.errors import ExtractionError
from repro.fem import SpringMassChain, harmonic_response
from repro.fem.electrostatics import ElectrostaticSolution
from repro.pxt import (
    ParameterExtractor,
    displacement_sweep,
    fit_rational,
    fit_second_order,
    voltage_sweep,
)
from repro.pxt.report import ExtractionReport

AREA, GAP = 1e-4, 0.15e-3


@pytest.fixture(scope="module")
def extractor():
    return ParameterExtractor(area=AREA, gap=GAP, nx=10, ny=8)


class TestSweeps:
    def test_displacement_sweep_bounds(self):
        sweep = displacement_sweep(GAP, fraction=0.3, points=7)
        assert sweep.min() == pytest.approx(-0.3 * GAP)
        assert sweep.max() == pytest.approx(0.3 * GAP)
        assert sweep.size == 7

    def test_one_sided_sweep(self):
        sweep = displacement_sweep(GAP, fraction=0.2, points=5, symmetric=False)
        assert sweep.min() == 0.0

    def test_voltage_sweep(self):
        sweep = voltage_sweep(15.0, points=4)
        assert sweep[0] == 0.0 and sweep[-1] == 15.0

    def test_validation(self):
        with pytest.raises(ExtractionError):
            displacement_sweep(GAP, fraction=1.5)
        with pytest.raises(ExtractionError):
            displacement_sweep(-1.0)
        with pytest.raises(ExtractionError):
            voltage_sweep(0.0, minimum=5.0)


class TestExtractor:
    def test_solve_point_matches_analytics(self, extractor):
        point = extractor.solve_point(displacement=1e-5, voltage=10.0)
        assert point.capacitance == pytest.approx(
            extractor.analytic_capacitance(1e-5), rel=1e-6)
        assert point.force == pytest.approx(extractor.analytic_force(10.0, 1e-5), rel=1e-6)
        assert point.charge == pytest.approx(point.capacitance * 10.0, rel=1e-6)

    def test_zero_voltage_point(self, extractor):
        point = extractor.solve_point(displacement=0.0, voltage=0.0)
        assert point.force == 0.0 and point.charge == 0.0
        assert point.capacitance == pytest.approx(EPSILON_0 * AREA / GAP, rel=1e-6)

    def test_solve_point_sums_the_field_energy_once(self, extractor,
                                                    monkeypatch):
        energy = vars(ElectrostaticSolution)["energy"]
        reads = []

        class CountingEnergy:
            # Non-data, like a cached property: a value held in the
            # solution's own dict is read past this descriptor.
            def __get__(self, solution, owner=None):
                reads.append(solution)
                return energy.__get__(solution, owner)

        monkeypatch.setattr(ElectrostaticSolution, "energy", CountingEnergy())
        for displacement, voltage in ((1e-5, 10.0), (0.0, 0.0), (-1e-5, -5.0)):
            extractor.solve_point(displacement, voltage)
        assert len(reads) == 3

    def test_capacitance_model_tracks_1_over_gap(self, extractor):
        displacements = displacement_sweep(GAP, fraction=0.3, points=9)
        model = extractor.capacitance_model(displacements)
        error = model.max_relative_error(extractor.analytic_capacitance)
        assert error < 5e-3

    def test_force_model_grid(self, extractor):
        model = extractor.force_model(displacements=[-2e-5, 0.0, 2e-5], voltages=[5.0, 10.0])
        assert model(0.0, 10.0) == pytest.approx(extractor.analytic_force(10.0, 0.0), rel=1e-6)
        # Quadratic in V: the bilinear table interpolates, so mid-voltage error
        # is bounded but non-zero.
        assert model.max_relative_error(
            lambda x, v: extractor.analytic_force(v, x)) < 0.35

    def test_force_vs_voltage_at_zero_displacement(self, extractor):
        model = extractor.force_vs_voltage([0.0, 5.0, 10.0, 15.0])
        assert model(10.0) == pytest.approx(extractor.analytic_force(10.0, 0.0), rel=1e-6)

    def test_gap_closing_rejected(self, extractor):
        with pytest.raises(ExtractionError):
            extractor.solve_point(displacement=-GAP, voltage=1.0)

    def test_closing_orientation(self):
        closing = ParameterExtractor(area=AREA, gap=GAP, gap_orientation="closing",
                                     nx=6, ny=4)
        assert closing.effective_gap(1e-5) == pytest.approx(GAP - 1e-5)

    def test_sweep_collects_cartesian_product(self, extractor):
        sweep = extractor.sweep([0.0, 1e-5], [5.0, 10.0])
        assert len(sweep.points) == 4
        assert sweep.displacements().size == 2
        assert sweep.voltages().size == 2
        nearest = sweep.at(0.0, 10.0)
        assert nearest.voltage == 10.0 and nearest.displacement == 0.0

    def test_validation(self):
        with pytest.raises(ExtractionError):
            ParameterExtractor(area=-1.0, gap=GAP)
        with pytest.raises(ExtractionError):
            ParameterExtractor(area=AREA, gap=GAP, gap_orientation="diagonal")


class TestReport:
    def test_report_render_and_accuracy(self, extractor):
        sweep = extractor.sweep([0.0], [5.0, 10.0])
        report = ExtractionReport(extractor, sweep)
        text = report.render()
        assert "PXT extraction report" in text
        assert "V =  10.00 V" in text
        assert report.worst_force_deviation() < 1e-3


class TestSecondOrderFit:
    def _response(self, mass=1e-4, stiffness=200.0, damping=0.04):
        chain = SpringMassChain(masses=(mass,), stiffnesses=(stiffness,),
                                dampings=(damping,))
        m, c, k = chain.matrices()
        frequencies = np.linspace(10.0, 1000.0, 250)
        return frequencies, harmonic_response(m, c, k, frequencies).dof(0)

    def test_recovers_exact_parameters(self):
        frequencies, response = self._response()
        fit = fit_second_order(frequencies, response)
        assert fit.mass == pytest.approx(1e-4, rel=1e-6)
        assert fit.stiffness == pytest.approx(200.0, rel=1e-6)
        assert fit.damping == pytest.approx(0.04, rel=1e-6)
        assert fit.natural_frequency_hz == pytest.approx(
            np.sqrt(200.0 / 1e-4) / (2 * np.pi), rel=1e-6)
        assert fit.quality_factor == pytest.approx(np.sqrt(200.0 * 1e-4) / 0.04, rel=1e-6)

    def test_evaluate_reproduces_input(self):
        frequencies, response = self._response()
        fit = fit_second_order(frequencies, response)
        assert np.allclose(fit.evaluate(frequencies), response, rtol=1e-6)

    def test_validation(self):
        with pytest.raises(ExtractionError):
            fit_second_order(np.array([1.0, 2.0]), np.array([1.0 + 0j, 2.0 + 0j]))
        with pytest.raises(ExtractionError):
            fit_second_order(np.array([1.0, 2.0, 3.0]), np.array([0j, 1j, 2j]))


class TestExtractSecondOrderFit:
    def test_full_and_rom_paths_agree(self):
        from repro.fem import CantileverBeam
        from repro.pxt import extract_second_order_fit

        beam = CantileverBeam(300e-6, 20e-6, 2e-6, 160e9, 2330.0, elements=20)
        stiffness, mass = beam.assemble()
        damping = 1e-9 * stiffness
        f1 = beam.analytic_first_frequency()
        # Fit only around the fundamental so the single-resonance model holds.
        frequencies = np.linspace(0.5 * f1, 1.5 * f1, 120)
        full = extract_second_order_fit(mass, damping, stiffness, frequencies,
                                        drive_dof=-2)
        reduced = extract_second_order_fit(mass, damping, stiffness,
                                           frequencies, drive_dof=-2,
                                           method="rom", rom_order=8)
        assert reduced.natural_frequency_hz == pytest.approx(
            full.natural_frequency_hz, rel=1e-6)
        assert reduced.stiffness == pytest.approx(full.stiffness, rel=1e-4)
        assert reduced.mass == pytest.approx(full.mass, rel=1e-4)
        assert full.natural_frequency_hz == pytest.approx(f1, rel=1e-2)


class TestRationalFit:
    def test_fits_second_order_compliance(self):
        frequencies = np.linspace(10.0, 1000.0, 200)
        omega = 2.0 * np.pi * frequencies
        response = 1.0 / (200.0 - 1e-4 * omega ** 2 + 1j * omega * 0.04)
        fit = fit_rational(frequencies, response, num_order=0, den_order=2)
        assert fit.max_relative_error(frequencies, response) < 1e-3
        # Denominator coefficients recover k-normalised mass and damping.
        assert fit.numerator[0] == pytest.approx(1.0 / 200.0, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ExtractionError):
            fit_rational(np.array([1.0, 2.0]), np.array([1 + 0j, 2 + 0j]),
                         num_order=3, den_order=3)
        with pytest.raises(ExtractionError):
            fit_rational(np.array([1.0]), np.array([1 + 0j]), den_order=0)
