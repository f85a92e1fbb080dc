"""Batched campaign execution: parity with serial, backend resolution.

Evaluator builders are module-level so the batch-pool backend can pickle
them to worker processes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ad.functions import exp
from repro.campaign import (CampaignRunner, CircuitEvaluator, CornerSet,
                            FunctionEvaluator, GridSweep, MonteCarlo, Normal,
                            PointList)
from repro.campaign.runner import BATCH_POOL_POINTS
from repro.circuit import Circuit, SimulationOptions
from repro.circuit.analysis import batch as batch_analysis
from repro.circuit.analysis.batch import ParameterColumns, batched_newton
from repro.circuit.devices.behavioral import BehavioralDevice, Port
from repro.circuit.mna import MNASystem
from repro.errors import CampaignError
from repro.natures import ELECTRICAL
from repro.telemetry import registry

SECTIONS = 6


def build_ladder(params):
    """Nonlinear diode ladder; every device stamps batch-safe."""
    circuit = Circuit("ladder")
    circuit.voltage_source("VS", "n0", "0", params.get("vdd", 5.0))
    for i in range(SECTIONS):
        resistance = params.get("rscale", 100.0) if i == 0 else 100.0
        circuit.resistor(f"R{i}", f"n{i}", f"n{i + 1}", resistance)
        circuit.diode(f"D{i}", f"n{i + 1}", "0")
    return circuit


PARAM_MAP = {"vdd": "VS.dc", "rscale": "R0.resistance"}


def double_rscale(value):
    return 2.0 * value


def last_node(result, params):
    return {"v_last": float(result.column(f"v(n{SECTIONS})")[-1])}


def build_tunable_ladder(params):
    """The ladder with ``R0`` set the way ``param_map`` sets it, without the
    constructor's range check: a negative ``rscale`` builds, and its Newton
    solve runs to the iteration cap."""
    circuit = build_ladder({"vdd": params.get("vdd", 5.0)})
    circuit["R0"].set_parameter("resistance", params.get("rscale", 100.0))
    return circuit


def sweep_points(result, params):
    """Every point of the last node's sweep (NaN where a point failed)."""
    return {f"v{index}": float(value) for index, value in
            enumerate(result.column(f"v(n{SECTIONS})"))}


def _diode_behavior(ctx):
    v = ctx.across("e")
    ctx.contribute("e", ctx.param("isat") * (exp(v / ctx.param("vt")) - 1.0))


def build_behavioral_diode(params):
    """Guard-free behavioral diode behind a resistor."""
    circuit = Circuit("behavioral diode")
    circuit.voltage_source("V1", "n1", "0", params.get("vdd", 2.0))
    circuit.resistor("R1", "n1", "n2", 1e3)
    circuit.add(BehavioralDevice(
        "DB", [Port("e", circuit.electrical_node("n2"), circuit.ground,
                    ELECTRICAL)],
        _diode_behavior, params={"isat": params.get("isat", 1e-9),
                                 "vt": 0.05}))
    return circuit


def fallback_counters(before):
    counters = registry.delta(before)["counters"]
    return (counters.get("mna.batch.lane_stamps", 0),
            counters.get("campaign.batch.serial_reruns", 0))


def spring_fn(point):
    return {"force": point["vdd"] ** 2}


def batch_evaluator(**kwargs):
    return CircuitEvaluator(build_ladder, param_map=PARAM_MAP, **kwargs)


def assert_rows_bitwise(reference, other):
    """Rows with the same error strings and bit-identical values."""
    assert len(reference) == len(other)
    for a, b in zip(reference, other):
        assert a.params == b.params
        assert a.error == b.error
        assert list(a.outputs) == list(b.outputs)
        assert np.array(list(a.outputs.values())).tobytes() == \
            np.array(list(b.outputs.values())).tobytes()


def assert_rows_identical_nan(serial, batch, rtol=1e-12):
    """:func:`assert_rows_identical`, with NaN values matching NaN."""
    assert len(serial) == len(batch)
    for a, b in zip(serial, batch):
        assert a.params == b.params
        assert a.error == b.error
        assert list(a.outputs) == list(b.outputs)
        want = np.array(list(a.outputs.values()))
        got = np.array(list(b.outputs.values()))
        assert np.array_equal(np.isnan(want), np.isnan(got))
        scale = np.maximum(1.0, np.abs(want))
        assert np.all((np.abs(got - want) / scale <= rtol)[~np.isnan(want)])


def assert_rows_identical(serial, batch, rtol=1e-12):
    """Value rows within rtol; error rows byte-equal."""
    assert len(serial) == len(batch)
    for a, b in zip(serial, batch):
        assert a.params == b.params
        assert a.error == b.error
        if a.error is None:
            assert set(a.outputs) == set(b.outputs)
            for key, value in a.outputs.items():
                scale = max(1.0, abs(value))
                assert abs(b.outputs[key] - value) / scale <= rtol


class TestBatchParity:
    def test_grid_sweep_op(self):
        spec = GridSweep(vdd=[3.0, 4.0, 5.0, 6.0], rscale=[80.0, 120.0])
        serial = CampaignRunner(backend="serial").run(
            spec, CircuitEvaluator(build_ladder))
        batch = CampaignRunner(backend="batch").run(spec, batch_evaluator())
        assert_rows_identical(serial, batch)

    def test_monte_carlo_op(self):
        spec = MonteCarlo({"vdd": Normal(5.0, 0.5),
                           "rscale": Normal(100.0, 10.0)},
                          samples=24, seed=42)
        serial = CampaignRunner(backend="serial").run(
            spec, CircuitEvaluator(build_ladder))
        before = registry.snapshot()
        batch = CampaignRunner(backend="batch").run(spec, batch_evaluator())
        # Every ladder device stamps batched; no lane goes back to serial.
        assert fallback_counters(before) == (0, 0)
        assert_rows_identical(serial, batch)

    def test_monte_carlo_op_superlu(self):
        options = SimulationOptions(linear_solver="sparse", sparse_threshold=1)
        spec = MonteCarlo({"vdd": Normal(5.0, 0.5)}, samples=12, seed=7)
        serial = CampaignRunner(backend="serial").run(
            spec, CircuitEvaluator(build_ladder, options=options))
        batch = CampaignRunner(backend="batch").run(
            spec, batch_evaluator(options=options))
        assert_rows_identical(serial, batch)

    def test_corner_set_op(self):
        spec = CornerSet({
            "slow": {"vdd": 4.5, "rscale": 120.0},
            "nom": {"vdd": 5.0, "rscale": 100.0},
            "fast": {"vdd": 5.5, "rscale": 80.0},
        })
        serial = CampaignRunner(backend="serial").run(
            spec, CircuitEvaluator(build_ladder))
        batch = CampaignRunner(backend="batch").run(spec, batch_evaluator())
        assert_rows_identical(serial, batch)

    def test_dc_sweep_with_reduce(self):
        spec = GridSweep(rscale=[60.0, 100.0, 140.0, 180.0])
        args = {"source_name": "VS", "values": np.linspace(0.0, 6.0, 5)}
        serial = CampaignRunner(backend="serial").run(
            spec, CircuitEvaluator(build_ladder, analysis="dc",
                                   analysis_args=args, reduce=last_node))
        batch = CampaignRunner(backend="batch").run(
            spec, batch_evaluator(analysis="dc", analysis_args=args,
                                  reduce=last_node))
        assert_rows_identical(serial, batch)

    def test_param_map_transform(self):
        spec = GridSweep(vdd=[4.0, 5.0, 6.0, 7.0], rscale=[50.0, 60.0])
        evaluator = CircuitEvaluator(
            build_ladder,
            param_map={"vdd": "VS.dc",
                       "rscale": ("R0.resistance", double_rscale)})
        batch = CampaignRunner(backend="batch").run(spec, evaluator)

        def doubled(params):
            params = dict(params)
            params["rscale"] = 2.0 * params["rscale"]
            return build_ladder(params)

        serial = CampaignRunner(backend="serial").run(
            spec, CircuitEvaluator(doubled))
        assert_rows_identical(serial, batch)

    def test_mixed_convergence_error_rows_byte_equal(self):
        # A NaN lane fails in both paths; the batch retires it to the serial
        # path, so its error row must be byte-identical to serial's.
        spec = GridSweep(vdd=[4.0, float("nan"), 5.0, 6.0])
        serial = CampaignRunner(backend="serial").run(
            spec, CircuitEvaluator(build_ladder))
        before = registry.snapshot()
        batch = CampaignRunner(backend="batch").run(spec, batch_evaluator())
        # The one retired lane is the one serial rerun.
        assert fallback_counters(before) == (0, 1)
        errors = [row.error for row in serial if row.error is not None]
        assert errors, "expected at least one failing point"
        assert_rows_identical(serial, batch)

    @pytest.mark.parametrize("compile_", [True, False],
                             ids=["compiled", "interpreter"])
    def test_behavioral_device_honors_compile_option(self, compile_):
        # With behavioral_compile=False the guard-free behavioral device is
        # not batch-safe: it must stamp per lane with lane-scalar parameters
        # instead of handing (B,) lanes to the AD interpreter.
        options = SimulationOptions(behavioral_compile=compile_)
        spec = GridSweep(vdd=[1.0, 2.0, 3.0], isat=[1e-9, 3e-9])
        serial = CampaignRunner(backend="serial").run(
            spec, CircuitEvaluator(build_behavioral_diode, options=options))
        before = registry.snapshot()
        batch = CampaignRunner(backend="batch").run(
            spec, CircuitEvaluator(build_behavioral_diode, options=options,
                                   param_map={"vdd": "V1.dc",
                                              "isat": "DB.isat"}))
        assert_rows_identical(serial, batch)
        lane_stamps, reruns = fallback_counters(before)
        assert reruns == 0
        assert (lane_stamps > 0) is not compile_

    def test_pooled_batch_ships_fallback_counters_without_telemetry(self):
        # With telemetry off the pool workers' registry counters must still
        # reach the result: a 2-process batch reports what the in-process
        # batches of its two slices report together.
        options = SimulationOptions(behavioral_compile=False)
        spec = GridSweep(vdd=list(np.linspace(1.0, 3.0, 35)),
                         isat=[1e-9, 3e-9])
        points = spec.points()
        assert len(points) > BATCH_POOL_POINTS
        evaluator = CircuitEvaluator(
            build_behavioral_diode, options=options,
            param_map={"vdd": "V1.dc", "isat": "DB.isat"})
        pooled = CampaignRunner(backend="batch", processes=2).run(
            spec, evaluator).metrics["counters"]
        inline = {"counters": {}, "gauges": {}, "histograms": {}}
        half = len(points) // 2
        for part in (points[:half], points[half:]):
            registry.merge(inline, CampaignRunner(backend="batch").run(
                PointList(part), evaluator).metrics)
        assert inline["counters"] == pooled
        assert pooled["mna.batch.lane_stamps"] > 0
        assert pooled.get("campaign.batch.serial_reruns", 0) == 0

    def test_batch_pool_composes(self):
        spec = MonteCarlo({"vdd": Normal(5.0, 0.5)}, samples=80, seed=3)
        serial = CampaignRunner(backend="serial").run(
            spec, CircuitEvaluator(build_ladder))
        runner = CampaignRunner(backend="batch", processes=2)
        assert runner._resolve_backend(batch_evaluator(), 80) == "batch-pool"
        pooled = runner.run(spec, batch_evaluator())
        assert_rows_identical(serial, pooled)

    def test_stuck_lane_leaves_the_block_and_matches_serial(self):
        # One lane of a 128-lane group runs to the iteration cap.  The
        # block narrows to its open lanes as they converge, so the stuck
        # lane does not drag the other 127 through 100 iterations, and the
        # lane's row is serial's error row byte for byte.
        rng = np.random.default_rng(5)
        points = [{"vdd": float(v), "rscale": float(r)} for v, r in
                  zip(rng.normal(5.0, 0.5, 128), rng.normal(100.0, 10.0, 128))]
        points[77]["rscale"] = -50.0
        circuit = build_tunable_ladder({})
        system = MNASystem(circuit)
        options = SimulationOptions()
        columns = ParameterColumns(circuit, [
            ("VS", "dc", [point["vdd"] for point in points]),
            ("R0", "resistance", [point["rscale"] for point in points])])
        before = registry.snapshot()
        with columns:
            _, solved, iterations = batched_newton(
                system, np.zeros((128, system.size)), "op", options, columns)
        factorizations = registry.delta(before)["counters"][
            "linalg.factorizations"]
        assert list(np.flatnonzero(~solved)) == [77]
        assert iterations[77] == options.max_newton_iterations
        assert factorizations <= 2 * iterations.sum() + 128

        spec = PointList(points)
        serial = CampaignRunner(backend="serial").run(
            spec, CircuitEvaluator(build_tunable_ladder))
        batch = CampaignRunner(backend="batch").run(
            spec, CircuitEvaluator(build_tunable_ladder, param_map=PARAM_MAP))
        assert serial[77].error is not None
        assert_rows_identical(serial, batch)
        assert batch[77].error == serial[77].error


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_groups_match_across_backends(seed, monkeypatch):
    # A seeded Monte-Carlo group past the pool threshold, with NaN and
    # stuck lanes, solved three ways: one in-process block, two pooled
    # slices and point by point.  The two batch runs are bit for bit the
    # same; both match serial (1e-12, byte-equal error rows).
    rng = np.random.default_rng(seed)
    samples = BATCH_POOL_POINTS + 32
    vdd = rng.normal(5.0, 1.0, samples)
    rscale = rng.uniform(50.0, 150.0, samples)
    vdd[rng.choice(samples, 2, replace=False)] = np.nan
    rscale[rng.choice(samples, 2, replace=False)] = -50.0
    spec = PointList([{"vdd": float(v), "rscale": float(r)}
                      for v, r in zip(vdd, rscale)])
    options = SimulationOptions(max_newton_iterations=12)
    analyses = {
        "op": {},
        "dc": {"analysis": "dc", "reduce": sweep_points,
               "analysis_args": {"source_name": "VS",
                                 "values": [0.5, 30.0, 1.0, 60.0, 3.0],
                                 "continue_on_failure": True}},
    }
    for analysis, kwargs in analyses.items():
        if analysis == "dc":
            # The swept source cannot also be a column.
            spec = PointList([{"rscale": point["rscale"]}
                              for point in spec.points()])
        serial = CampaignRunner(backend="serial").run(
            spec, CircuitEvaluator(build_tunable_ladder, options=options,
                                   **kwargs))
        evaluator = CircuitEvaluator(build_tunable_ladder, options=options,
                                     param_map=PARAM_MAP, **kwargs)
        blocks = []

        def spy(system, x0, *args, **kwargs):
            blocks.append(len(x0))
            return batched_newton(system, x0, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(batch_analysis, "batched_newton", spy)
            inline = CampaignRunner(backend="batch").run(spec, evaluator)
        # The whole group is one Newton block (per sweep point).
        assert set(blocks) == {samples}
        pooled = CampaignRunner(backend="batch", processes=2).run(
            spec, evaluator)
        assert_rows_bitwise(inline, pooled)
        failed = [row for row in serial if row.error is not None] \
            if analysis == "op" else \
            [row for row in serial if np.isnan(list(row.outputs.values())).any()]
        assert failed
        assert_rows_identical_nan(serial, inline)


class TestBackendResolution:
    def test_batch_requires_capable_evaluator(self):
        spec = GridSweep(vdd=[1.0, 2.0])
        with pytest.raises(CampaignError, match="batch-capable"):
            CampaignRunner(backend="batch").run(
                spec, FunctionEvaluator(spring_fn))
        with pytest.raises(CampaignError, match="batch-capable"):
            # No param_map -> point-by-point only.
            CampaignRunner(backend="batch").run(
                spec, CircuitEvaluator(build_ladder))

    def test_auto_picks_batch_for_capable_evaluator(self):
        runner = CampaignRunner(backend="auto")
        resolved = runner._resolve_backend(batch_evaluator(), n_points=16)
        assert resolved == "batch"
        assert runner._resolve_backend(FunctionEvaluator(spring_fn),
                                       n_points=16) in ("serial", "pool")

    def test_unknown_backend_rejected(self):
        with pytest.raises(CampaignError, match="unknown backend"):
            CampaignRunner(backend="vectorized")



class TestBatchTelemetry:
    def test_campaign_histogram_extremes_are_its_own(self):
        """A campaign's telemetry reads the extremes it observed, not those
        of earlier campaigns in the same process."""
        wide = CampaignRunner(backend="batch", telemetry="summary").run(
            GridSweep(vdd=list(np.linspace(3.0, 7.0, 96))), batch_evaluator())
        assert wide.telemetry["metrics"]["histograms"]["batch.size"][
            "max"] == 96.0
        narrow = CampaignRunner(backend="batch", telemetry="summary").run(
            GridSweep(vdd=[3.0, 4.0, 5.0, 6.0, 7.0]), batch_evaluator())
        digest = narrow.telemetry["metrics"]["histograms"]["batch.size"]
        assert digest["max"] == 5.0 and digest["min"] == 5.0

    def test_batch_metrics_flow_into_campaign_telemetry(self):
        spec = GridSweep(vdd=[3.0, 4.0, 5.0, 6.0, 7.0])
        result = CampaignRunner(backend="batch", telemetry="summary").run(
            spec, batch_evaluator())
        histograms = result.telemetry["metrics"]["histograms"]
        assert histograms["batch.size"]["count"] >= 1
        assert histograms["batch.size"]["max"] == 5.0
        assert histograms["batch.solve_s"]["count"] >= 1
        summary = result.solver_summary()
        assert summary["telemetry"]["metrics"]["histograms"][
            "batch.size"]["count"] >= 1
