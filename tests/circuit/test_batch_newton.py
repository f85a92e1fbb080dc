"""Batched Newton drivers: per-lane parity with the serial analyses."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import Circuit, SimulationOptions
from repro.circuit.analysis.batch import (ParameterColumns, batched_dcsweeps,
                                          batched_operating_points)
from repro.circuit.analysis.dcsweep import DCSweepAnalysis
from repro.circuit.analysis.op import OperatingPointAnalysis
from repro.errors import AnalysisError, NetlistError
from repro.transducers import TransverseElectrostaticTransducer


def build_ladder(sections: int = 4) -> Circuit:
    """Nonlinear diode ladder: every device is batch-safe."""
    circuit = Circuit("ladder")
    circuit.voltage_source("VS", "n0", "0", 5.0)
    for i in range(sections):
        circuit.resistor(f"R{i}", f"n{i}", f"n{i + 1}", 100.0)
        circuit.diode(f"D{i}", f"n{i + 1}", "0")
    return circuit


def build_actuator() -> Circuit:
    """Electrostatic actuator: the transducer is NOT batch-safe."""
    circuit = Circuit("actuator")
    circuit.voltage_source("VB", "a", "0", 4.0)
    circuit.mass("M1", "m", 1e-9)
    circuit.spring("K1", "m", "0", 2.0)
    circuit.damper("D1", "m", "0", 1e-5)
    transducer = TransverseElectrostaticTransducer(area=4e-8, gap=2e-6)
    transducer.add_to_circuit(circuit, "XDCR", "a", "0", "m", "0")
    return circuit


def serial_op(circuit, columns: ParameterColumns, lane: int,
              options: SimulationOptions):
    columns.set_lane(lane)
    try:
        return OperatingPointAnalysis(circuit, options).run()
    finally:
        columns.restore()


class TestParameterColumns:
    def test_lane_values_and_context_restore(self):
        circuit = build_ladder()
        columns = ParameterColumns(circuit, [("VS", "dc", [4.0, 7.0, 6.0])])
        assert columns.batch == 3
        with columns:
            columns.set_lane(1)
            assert circuit["VS"].get_parameter("dc") == 7.0
        # Exiting the context puts the construction-time value back.
        assert circuit["VS"].get_parameter("dc") == 5.0

    def test_restores_original_value(self):
        circuit = build_ladder()
        columns = ParameterColumns(circuit,
                                   [("R0", "resistance", [10.0, 20.0])])
        with columns:
            columns.set_arrays()
        assert circuit["R0"].get_parameter("resistance") == 100.0

    def test_ragged_columns_rejected(self):
        circuit = build_ladder()
        with pytest.raises(AnalysisError, match="lanes"):
            ParameterColumns(circuit, [("VS", "dc", [1.0, 2.0]),
                                       ("R0", "resistance", [1.0, 2.0, 3.0])])

    def test_unknown_device_rejected(self):
        with pytest.raises(NetlistError, match="no device"):
            ParameterColumns(build_ladder(), [("RX", "resistance", [1.0])])

    def test_targets(self):
        circuit = build_ladder()
        columns = ParameterColumns(circuit, [("VS", "dc", [1.0])])
        assert columns.targets(circuit["VS"])
        assert not columns.targets(circuit["R0"])


class TestBatchedOperatingPoints:
    @pytest.mark.parametrize("options", [
        SimulationOptions(),
        SimulationOptions(linear_solver="sparse", sparse_threshold=1),
    ], ids=["dense", "superlu"])
    def test_parity_with_serial(self, options):
        circuit = build_ladder()
        vdd = np.array([3.0, 4.0, 5.0, 6.0, 7.0])
        columns = ParameterColumns(circuit, [("VS", "dc", vdd)])
        results = batched_operating_points(circuit, options, columns)
        assert all(op is not None for op in results)
        for lane, op in enumerate(results):
            reference = serial_op(circuit, columns, lane, options)
            assert op.iterations == reference.iterations
            for key, value in reference.items():
                scale = max(1.0, abs(value))
                assert abs(op[key] - value) / scale <= 1e-12

    def test_nonfinite_lane_retired_others_solve(self):
        circuit = build_ladder()
        vdd = np.array([4.0, np.nan, 5.0])
        columns = ParameterColumns(circuit, [("VS", "dc", vdd)])
        results = batched_operating_points(circuit, SimulationOptions(),
                                           columns)
        assert results[1] is None
        assert results[0] is not None and results[2] is not None

    def test_mixed_behavioral_circuit_parity(self):
        circuit = build_actuator()
        gaps = np.array([1.8e-6, 2.0e-6, 2.2e-6])
        columns = ParameterColumns(circuit, [("XDCR", "d", gaps)])
        options = SimulationOptions()
        results = batched_operating_points(circuit, options, columns)
        assert all(op is not None for op in results)
        for lane, op in enumerate(results):
            reference = serial_op(circuit, columns, lane, options)
            assert op.iterations == reference.iterations
            for key in reference:
                scale = max(1.0, abs(reference[key]))
                assert abs(op[key] - reference[key]) / scale <= 1e-12


class TestBatchedDCSweeps:
    def test_parity_with_serial_sweep(self):
        circuit = build_ladder()
        sweep = np.linspace(0.0, 6.0, 7)
        rscale = np.array([80.0, 100.0, 120.0])
        columns = ParameterColumns(circuit, [("R0", "resistance", rscale)])
        options = SimulationOptions()
        results = batched_dcsweeps(circuit, "VS", sweep, options, columns)
        assert all(result is not None for result in results)
        for lane, result in enumerate(results):
            columns.set_lane(lane)
            try:
                reference = DCSweepAnalysis(circuit, "VS", sweep,
                                            options).run()
            finally:
                columns.restore()
            assert set(result.keys()) == set(reference.keys())
            for key in reference.keys():
                ref_col = reference.column(key)
                scale = np.maximum(1.0, np.abs(ref_col))
                assert np.all(
                    np.abs(result.column(key) - ref_col) / scale <= 1e-12)

    def test_swept_source_cannot_be_column_target(self):
        circuit = build_ladder()
        columns = ParameterColumns(circuit, [("VS", "dc", [1.0, 2.0])])
        with pytest.raises(AnalysisError, match="cannot also sweep"):
            batched_dcsweeps(circuit, "VS", [0.0, 1.0], SimulationOptions(),
                             columns)

    def test_non_source_sweep_rejected(self):
        circuit = build_ladder()
        columns = ParameterColumns(circuit, [("VS", "dc", [1.0])])
        with pytest.raises(AnalysisError, match="independent source"):
            batched_dcsweeps(circuit, "R0", [0.0], SimulationOptions(),
                             columns)

    def test_failing_lane_retired(self):
        circuit = build_ladder()
        columns = ParameterColumns(
            circuit, [("R0", "resistance", [100.0, np.nan])])
        results = batched_dcsweeps(circuit, "VS", [0.0, 1.0],
                                   SimulationOptions(), columns)
        assert results[0] is not None
        assert results[1] is None


class TestBatchedChord:
    """jacobian_reuse="chord" rides one held batched factorization.

    The drive levels are milder than the full-Newton tests above: chord
    Newton (batched or serial -- the batch mirrors the serial contract) is
    only contractive near the solution, and the diode ladder far into
    forward conduction defeats it in both implementations alike.  Lanes
    that fail retire to ``None`` for the serial path's source stepping.
    """

    def test_chord_op_parity_with_serial(self):
        options = SimulationOptions(jacobian_reuse="chord")
        circuit = build_ladder()
        vdd = np.array([0.4, 0.6, 0.8, 1.0, 1.2])
        columns = ParameterColumns(circuit, [("VS", "dc", vdd)])
        results = batched_operating_points(circuit, options, columns)
        assert all(op is not None for op in results)
        for lane, op in enumerate(results):
            reference = serial_op(circuit, columns, lane, options)
            for key, value in reference.items():
                # Chord accepts at the Newton update tolerance while riding
                # a stale Jacobian, and the batch-wide refactor schedule is
                # not the per-lane serial one, so parity holds to the Newton
                # tolerance rather than to machine precision.
                tol = options.vntol + options.reltol * abs(value)
                assert abs(op[key] - value) <= tol

    def test_chord_mixed_behavioral_parity(self):
        options = SimulationOptions(jacobian_reuse="chord")
        circuit = build_actuator()
        gaps = np.array([1.8e-6, 2.0e-6, 2.2e-6])
        columns = ParameterColumns(circuit, [("XDCR", "d", gaps)])
        results = batched_operating_points(circuit, options, columns)
        assert all(op is not None for op in results)
        for lane, op in enumerate(results):
            reference = serial_op(circuit, columns, lane, options)
            for key in reference:
                scale = max(1.0, abs(reference[key]))
                assert abs(op[key] - reference[key]) / scale <= 1e-12

    def test_chord_holds_factorization_across_iterations_and_solves(self):
        from repro.circuit.analysis.batch import batched_newton
        from repro.circuit.analysis.op import NewtonWorkspace
        from repro.circuit.mna import MNASystem

        circuit = build_ladder()
        system = MNASystem(circuit)
        columns = ParameterColumns(circuit,
                                   [("VS", "dc", np.array([0.5, 0.7, 0.9]))])
        options = SimulationOptions(jacobian_reuse="chord")
        ws = NewtonWorkspace(options)
        with columns:
            x0 = np.zeros((3, system.size))
            x, solved, iters = batched_newton(system, x0, "op", options,
                                              columns, workspace=ws)
            assert solved.all()
            # The solve rode the held factorization with residual-only
            # assemblies after the first iteration.
            assert ws.chord_iterations > 0
            assert ws.chord_tag is not None
            before = ws.chord_iterations
            # A warm restart from the solution reuses the held factorization
            # from iteration one (same chord tag).
            x2, solved2, iters2 = batched_newton(system, x, "op", options,
                                                 columns, workspace=ws)
            assert solved2.all()
            assert ws.chord_iterations > before
            assert np.all(iters2 <= iters)

    def test_chord_hostile_lane_retired_others_solve(self):
        # Within a starved budget chord Newton cannot climb into deep
        # forward conduction (serially too); the batch retires exactly that
        # lane so the campaign's serial re-run can rescue it with source
        # stepping.
        options = SimulationOptions(jacobian_reuse="chord",
                                    max_newton_iterations=10)
        circuit = build_ladder()
        vdd = np.array([0.6, 5.0, 0.5])
        columns = ParameterColumns(circuit, [("VS", "dc", vdd)])
        results = batched_operating_points(circuit, options, columns)
        assert results[1] is None
        assert results[0] is not None and results[2] is not None

    def test_chord_dcsweep_parity_with_serial(self):
        options = SimulationOptions(jacobian_reuse="chord")
        circuit = build_ladder()
        sweep = np.linspace(0.0, 1.5, 7)
        rscale = np.array([80.0, 100.0, 120.0])
        columns = ParameterColumns(circuit, [("R0", "resistance", rscale)])
        results = batched_dcsweeps(circuit, "VS", sweep, options, columns)
        assert all(result is not None for result in results)
        for lane, result in enumerate(results):
            columns.set_lane(lane)
            try:
                reference = DCSweepAnalysis(circuit, "VS", sweep,
                                            options).run()
            finally:
                columns.restore()
            for key in reference.keys():
                ref_col = reference.column(key)
                scale = np.maximum(1.0, np.abs(ref_col))
                assert np.all(
                    np.abs(result.column(key) - ref_col) / scale <= 1e-12)
