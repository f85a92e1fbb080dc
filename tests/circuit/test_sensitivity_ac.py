"""AC small-signal sensitivities: exact adjoint solves vs central FD."""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.circuit import ACAnalysis, Circuit, SimulationOptions
from repro.circuit.analysis.sensitivity import resolve_parameters
from repro.circuit.devices.mechanical import Damper, Mass, Spring
from repro.circuit.devices.passive import Resistor
from repro.circuit.devices.sources import VoltageSource
from repro.telemetry import registry
from repro.transducers import TransverseElectrostaticTransducer

OPTIONS = SimulationOptions(reltol=1e-9, abstol=1e-15, vntol=1e-12)

FREQUENCIES = [1e3, 1.1e4, 4e4]
PARAMS = ("V1.dc", "R1.resistance", "XT.A", "XT.d", "K1.stiffness", "M1.mass")
OUTPUTS = ("v(nm)", "v(n2)")


def build_circuit() -> Circuit:
    """AC-driven electrostatic transducer with a spring-mass-damper load."""
    circuit = Circuit()
    n1 = circuit.electrical_node("n1")
    n2 = circuit.electrical_node("n2")
    ground = circuit.ground
    circuit.add(VoltageSource("V1", n1, ground, 5.0, ac=1.0))
    circuit.add(Resistor("R1", n1, n2, 1e4))
    nm = circuit.mechanical_node("nm")
    transducer = TransverseElectrostaticTransducer(
        area=4e-8, gap=2e-6, gap_orientation="closing")
    transducer.add_to_circuit(circuit, "XT", "n2", "0", "nm", "0",
                              closed_form=True)
    circuit.add(Mass("M1", nm, ground, 1e-9))
    circuit.add(Spring("K1", nm, ground, 5.0))
    circuit.add(Damper("B1", nm, ground, 1e-6))
    return circuit


def ac_outputs_at(offsets: np.ndarray, frequencies=FREQUENCIES) -> np.ndarray:
    circuit = build_circuit()
    refs = resolve_parameters(circuit, PARAMS)
    for ref, offset in zip(refs, offsets):
        ref.device.set_parameter(ref.parameter, ref.value + offset)
    result = ACAnalysis(circuit, frequencies, OPTIONS).run()
    return np.array([[result[name][f] for name in OUTPUTS]
                     for f in range(len(frequencies))])


def central_fd(frequencies) -> np.ndarray:
    """``(F, M, P)`` central differences of whole AC analyses."""
    refs = resolve_parameters(build_circuit(), PARAMS)
    matrix = np.zeros((len(frequencies), len(OUTPUTS), len(PARAMS)),
                      dtype=complex)
    for k, ref in enumerate(refs):
        step = 1e-5 * abs(ref.value)
        offsets = np.zeros(len(PARAMS))
        offsets[k] = step
        matrix[:, :, k] = (ac_outputs_at(offsets, frequencies)
                           - ac_outputs_at(-offsets, frequencies)) / (2.0 * step)
    return matrix


def assert_matches_fd(matrix: np.ndarray, reference: np.ndarray) -> None:
    scale = np.abs(reference).max(axis=2, keepdims=True)
    np.testing.assert_allclose(matrix, reference, rtol=2e-4,
                               atol=2e-4 * scale.max())


@pytest.fixture(scope="module")
def fd_reference() -> np.ndarray:
    return central_fd(FREQUENCIES)


@pytest.fixture(scope="module")
def adjoint():
    analysis = ACAnalysis(build_circuit(), FREQUENCIES, OPTIONS)
    return analysis.sensitivities(PARAMS, OUTPUTS, method="adjoint")


class TestACSensitivities:
    def test_matches_central_fd(self, adjoint, fd_reference):
        assert_matches_fd(adjoint.matrix, fd_reference)

    def test_direct_agrees_with_adjoint(self, adjoint):
        direct = ACAnalysis(build_circuit(), FREQUENCIES, OPTIONS) \
            .sensitivities(PARAMS, OUTPUTS, method="direct")
        np.testing.assert_allclose(direct.matrix, adjoint.matrix,
                                   rtol=1e-9, atol=1e-12)
        assert direct.method == "direct"

    def test_values_match_the_plain_sweep(self, adjoint):
        sweep = ACAnalysis(build_circuit(), FREQUENCIES, OPTIONS).run()
        for m, name in enumerate(OUTPUTS):
            np.testing.assert_allclose(
                adjoint.values[:, m],
                np.asarray(sweep[name], dtype=complex), rtol=1e-9)

    def test_solve_accounting(self, adjoint):
        stats = adjoint.stats
        # One op Newton solve; per frequency one factorization and one
        # transposed back-substitution per output.
        assert stats["newton_solves"] == 1
        assert stats["adjoint_solves"] == len(FREQUENCIES) * len(OUTPUTS)
        # dx0/dp chain: one direct back-substitution per parameter, total.
        assert stats["direct_solves"] == len(PARAMS)

    def test_magnitude_derivative_matches_fd(self, adjoint, fd_reference):
        magnitudes = np.abs(adjoint.values)
        expected = np.real(np.conj(adjoint.values)[:, :, None]
                           * fd_reference) / magnitudes[:, :, None]
        computed = adjoint.magnitude_matrix()
        scale = np.abs(expected).max()
        np.testing.assert_allclose(computed, expected, rtol=2e-4,
                                   atol=2e-4 * scale)

    def test_stiffness_sensitivity_flips_sign_across_resonance(self, adjoint):
        # Below the mechanical resonance a stiffer spring lowers |v(nm)|;
        # the sign of d|y|/dk flips across it (classic detuning behaviour).
        trace = adjoint.magnitude_derivative("v(nm)", "K1.stiffness")
        assert trace[0] * trace[-1] < 0.0


class TestCachedAssembly:
    """One frequency-free assembly per parameter direction, any grid."""

    GRID = np.logspace(3.0, 6.0, 13)

    def test_cached_engages_and_matches_direct(self):
        result = ACAnalysis(build_circuit(), self.GRID, OPTIONS).sensitivities(
            PARAMS, OUTPUTS)
        assert_matches_fd(result.matrix, central_fd(self.GRID))

    def test_one_assembly_per_difference(self):
        analysis = ACAnalysis(build_circuit(), self.GRID, OPTIONS)
        with telemetry.session(mode="summary"):
            before = registry.snapshot()
            analysis.sensitivities(PARAMS, OUTPUTS)
            digest = registry.delta(before)["histograms"]["mna.assembly.ac_s"]
        assert digest["count"] == 1 + 2 * len(PARAMS)
