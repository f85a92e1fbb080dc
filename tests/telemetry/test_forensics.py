"""Failure forensics: reports, the ring buffer and replayable bundles.

The two acceptance scenarios live here: a structurally singular MNA matrix
(current source into a floating node with ``gmin=0``) and a genuinely
diverging Newton solve (current-driven diode with a starved iteration
budget) must each yield a :class:`FailureReport` that names the offending
unknown, and a dumped reproduction bundle must :func:`replay` to the same
failure deterministically.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import telemetry
from repro.circuit import Circuit, SimulationOptions
from repro.circuit.analysis.op import OperatingPointAnalysis
from repro.errors import AnalysisError, ConvergenceError
from repro.telemetry import forensics, registry


@pytest.fixture(autouse=True)
def clean_ring():
    forensics.clear()
    yield
    forensics.clear()


def build_floating_node(value: float = 1e-3) -> Circuit:
    """A current source into a node with no DC path: singular without gmin."""
    circuit = Circuit()
    circuit.current_source("I1", "n1", "0", value)
    circuit.capacitor("C1", "n1", "0", 1e-12)
    return circuit


def build_starved_diode(drive: float = 0.5) -> Circuit:
    """A current-driven diode: Newton from zero needs four iterations (the
    junction limiting cuts the huge first step to ~0.78 V and refuses
    convergence while it limits), so a budget of three cannot reach the
    ~0.8 V operating point."""
    circuit = Circuit()
    circuit.current_source("I1", "0", "n1", drive)
    circuit.diode("D1", "n1", "0")
    return circuit


def _singular_options() -> SimulationOptions:
    return SimulationOptions(forensics=True, gmin=0.0, max_source_steps=1)


def _diverging_options() -> SimulationOptions:
    return SimulationOptions(forensics=True, max_newton_iterations=3,
                             max_source_steps=1)


class TestFailureReport:
    def test_offending_unknown_prefers_residual_ranking(self):
        report = forensics.FailureReport(
            kind="newton", analysis="op", message="boom",
            offending=[("v(b)", -3.0), ("v(a)", 1.0)],
            diagnosis={"suspects": ["v(z)"]})
        assert report.offending_unknown == "v(b)"

    def test_offending_unknown_falls_back_to_diagnosis(self):
        report = forensics.FailureReport(
            kind="singular", analysis="op", message="boom",
            diagnosis={"suspects": ["v(z)"], "message": ""})
        assert report.offending_unknown == "v(z)"
        assert forensics.FailureReport(
            kind="newton", analysis="op", message="x").offending_unknown is None

    def test_json_round_trip(self):
        report = forensics.FailureReport(
            kind="newton", analysis="tran", message="diverged",
            error_type="ConvergenceError", time=1e-6, iterations=7,
            residual_norm=4.5, residual_trajectory=[1.0, 2.0, 4.5],
            offending=[("v(n1)", 4.5)], condition_estimate=1e9,
            last_good={"time": 9e-7, "values": {"v(n1)": 0.1}},
            context={"size": 3})
        clone = forensics.FailureReport.from_json(
            json.loads(json.dumps(report.to_json())))
        assert clone == report

    def test_describe_mentions_the_key_facts(self):
        report = forensics.FailureReport(
            kind="newton", analysis="op", message="diverged", time=2.0,
            iterations=5, residual_trajectory=[1.0, 8.0],
            offending=[("v(n1)", 8.0)], condition_estimate=3e7)
        text = report.describe()
        assert "diverged" in text and "v(n1)" in text
        assert "t=2" in text and "3.000e+07" in text

    def test_summary_is_flat_and_picklable_shaped(self):
        report = forensics.FailureReport(
            kind="singular", analysis="dc", message="zero pivot",
            diagnosis={"suspects": ["v(a)"]})
        summary = report.summary()
        assert summary["offending_unknown"] == "v(a)"
        assert all(isinstance(key, str) for key in summary)


class TestRingBuffer:
    def _report(self, tag: str) -> forensics.FailureReport:
        return forensics.FailureReport(kind="newton", analysis="op", message=tag)

    def test_record_last_and_recent(self):
        before = registry.counter_value("forensics.reports")
        first = forensics.record(self._report("first"))
        second = forensics.record(self._report("second"))
        assert forensics.last_failure() is second
        assert forensics.recent_failures() == [first, second]
        assert registry.counter_value("forensics.reports") == before + 2

    def test_ring_is_bounded(self):
        for index in range(40):
            forensics.record(self._report(str(index)))
        retained = forensics.recent_failures()
        assert len(retained) == forensics._RING_SIZE
        assert retained[-1].message == "39"

    def test_clear_empties_the_ring(self):
        forensics.record(self._report("x"))
        forensics.clear()
        assert forensics.last_failure() is None

    def test_capture_attaches_and_types_the_report(self):
        exc = ConvergenceError("no")
        report = forensics.capture(exc, self._report("no"))
        assert exc.report is report
        assert report.error_type == "ConvergenceError"
        assert forensics.last_failure() is report


class TestForcedSingular:
    def test_report_names_the_floating_node(self):
        with pytest.raises(ConvergenceError) as info:
            OperatingPointAnalysis(build_floating_node(),
                                   _singular_options()).run()
        report = info.value.report
        assert isinstance(report, forensics.FailureReport)
        assert report.kind == "singular"
        assert report.error_type == "SingularMatrixError"
        assert report.offending_unknown == "v(n1)"
        assert "v(n1)" in report.diagnosis["suspects"]

    def test_report_lands_in_the_ring_buffer(self):
        with pytest.raises(ConvergenceError):
            OperatingPointAnalysis(build_floating_node(),
                                   _singular_options()).run()
        assert forensics.last_failure().kind == "singular"

    def test_forensics_off_means_no_report(self):
        options = SimulationOptions(gmin=0.0, max_source_steps=1)
        with pytest.raises(ConvergenceError) as info:
            OperatingPointAnalysis(build_floating_node(), options).run()
        assert info.value.report is None
        assert forensics.last_failure() is None


class TestForcedDivergence:
    def test_report_names_the_diode_node(self):
        with pytest.raises(ConvergenceError) as info:
            OperatingPointAnalysis(build_starved_diode(),
                                   _diverging_options()).run()
        report = info.value.report
        assert isinstance(report, forensics.FailureReport)
        assert report.kind == "newton"
        assert report.error_type == "ConvergenceError"
        assert report.offending_unknown == "v(n1)"

    def test_residual_trajectory_is_recorded(self):
        with pytest.raises(ConvergenceError) as info:
            OperatingPointAnalysis(build_starved_diode(),
                                   _diverging_options()).run()
        trajectory = info.value.report.residual_trajectory
        assert len(trajectory) >= 2
        assert all(np.isfinite(trajectory))

    def test_generous_budget_converges(self):
        # Sanity: the circuit itself is solvable, only the budget was starved.
        result = OperatingPointAnalysis(build_starved_diode()).run()
        assert result["v(n1)"] == pytest.approx(0.8, abs=0.2)


class TestFingerprint:
    def test_same_factory_same_point_hash_equal(self):
        assert forensics.circuit_fingerprint(build_starved_diode(0.5)) \
            == forensics.circuit_fingerprint(build_starved_diode(0.5))

    def test_different_parameter_hashes_differ(self):
        assert forensics.circuit_fingerprint(build_starved_diode(0.5)) \
            != forensics.circuit_fingerprint(build_starved_diode(0.6))

    def test_resolve_qualified_names(self):
        resolved = forensics._resolve_qualified("repro.circuit.netlist:Circuit")
        assert resolved is Circuit


class TestBundles:
    def _dump(self, tmp_path, drive: float = 0.5):
        circuit = build_starved_diode(drive)
        options = _diverging_options()
        with pytest.raises(ConvergenceError) as info:
            OperatingPointAnalysis(circuit, options).run()
        path = tmp_path / "failure.json"
        bundle = forensics.dump_bundle(
            path, analysis="op", options=options, build=build_starved_diode,
            params={"drive": drive}, circuit=circuit, report=info.value.report)
        return path, bundle

    def test_dump_and_load_round_trip(self, tmp_path):
        path, bundle = self._dump(tmp_path)
        loaded = forensics.load_bundle(path)
        assert loaded.analysis == "op"
        assert loaded.params == {"drive": 0.5}
        assert loaded.fingerprint == bundle.fingerprint
        assert loaded.failure["error_type"] == "ConvergenceError"
        assert loaded.options["max_newton_iterations"] == 3

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "something-else/1"}))
        with pytest.raises(ValueError, match="not a forensics bundle"):
            forensics.load_bundle(path)

    def test_replay_reproduces_the_failure(self, tmp_path):
        path, _ = self._dump(tmp_path)
        outcome = forensics.replay(path, build=build_starved_diode)
        assert outcome.reproduced
        assert outcome.fingerprint_match is True
        assert isinstance(outcome.error, ConvergenceError)
        assert outcome.report.offending_unknown == "v(n1)"

    def test_replay_is_deterministic(self, tmp_path):
        path, _ = self._dump(tmp_path)
        first = forensics.replay(path, build=build_starved_diode)
        second = forensics.replay(path, build=build_starved_diode)
        assert first.reproduced and second.reproduced
        assert first.report.residual_trajectory \
            == second.report.residual_trajectory
        assert first.report.offending_unknown \
            == second.report.offending_unknown

    def test_replay_flags_a_mismatched_circuit(self, tmp_path):
        path, _ = self._dump(tmp_path, drive=0.5)
        outcome = forensics.replay(path, circuit=build_starved_diode(0.7))
        assert outcome.fingerprint_match is False

    def test_replay_names_unknown_option_fields(self, tmp_path):
        # A bundle dumped by a version with other SimulationOptions fields.
        path, _ = self._dump(tmp_path)
        payload = json.loads(path.read_text())
        payload["options"]["retired_knob"] = 0.5
        path.write_text(json.dumps(payload))
        with pytest.raises(AnalysisError, match="retired_knob"):
            forensics.replay(path, build=build_starved_diode)

    def test_replay_without_any_factory_raises(self):
        bundle = forensics.ReproductionBundle(analysis="op")
        with pytest.raises(ValueError, match="factory"):
            forensics.replay(bundle)


class TestCampaignForensics:
    def test_failed_rows_carry_the_summary(self):
        from repro.campaign import CampaignRunner, GridSweep

        def evaluate(point):
            circuit = build_starved_diode(point["drive"])
            options = _diverging_options() if point["drive"] > 0.1 \
                else SimulationOptions(forensics=True)
            result = OperatingPointAnalysis(circuit, options).run()
            return {"v": result["v(n1)"]}

        result = CampaignRunner(backend="serial").run(
            GridSweep(drive=[0.01, 0.5]), evaluate)
        assert result.rows[0].ok and result.rows[0].forensics is None
        failed = result.rows[1]
        assert not failed.ok
        assert failed.forensics["offending_unknown"] == "v(n1)"
        summaries = result.forensic_summaries()
        assert len(summaries) == 1
        assert summaries[0]["index"] == 1
        assert summaries[0]["kind"] == "newton"
