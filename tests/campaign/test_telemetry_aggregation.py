"""Cross-process telemetry aggregation: pool workers ship profile deltas.

The determinism contract: a campaign's merged telemetry (span counts and
metric counters) must be identical whether the points run serially in the
parent or split into chunks over pool workers -- only wall-clock timings may
differ between backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import CampaignRunner, GridSweep
from repro.campaign.runner import CircuitEvaluator
from repro.circuit import Circuit, SimulationOptions
from repro.circuit.devices.passive import Resistor
from repro.circuit.devices.sources import VoltageSource
from repro.errors import CampaignError
from repro.telemetry import registry


def build_divider(params: dict) -> Circuit:
    circuit = Circuit()
    n_in = circuit.electrical_node("in")
    n_out = circuit.electrical_node("out")
    circuit.add(VoltageSource("V1", n_in, circuit.ground, 5.0))
    circuit.add(Resistor("R1", n_in, n_out, float(params["r_top"])))
    circuit.add(Resistor("R2", n_out, circuit.ground, 1e3))
    return circuit


def _evaluator() -> CircuitEvaluator:
    return CircuitEvaluator(build_divider, analysis="op", outputs=["v(out)"])


SPEC = GridSweep({"r_top": np.linspace(500.0, 2000.0, 8)})


def _span_counts(result) -> dict[str, int]:
    return {name: entry["count"]
            for name, entry in result.telemetry["span_totals"].items()}


class TestCampaignTelemetry:
    def test_off_by_default(self):
        result = CampaignRunner().run(SPEC, _evaluator())
        assert result.telemetry is None
        assert result.telemetry_report() is None
        assert "telemetry" not in result.solver_summary()

    def test_invalid_mode_rejected(self):
        with pytest.raises(CampaignError):
            CampaignRunner(telemetry="everything")

    def test_serial_profile_collected(self):
        result = CampaignRunner(telemetry="summary").run(SPEC, _evaluator())
        assert result.num_failures == 0
        assert result.telemetry["mode"] == "summary"
        counts = _span_counts(result)
        assert counts["op.run"] == len(SPEC)
        assert result.telemetry["wall_s"] > 0.0

    def test_pool_matches_serial_deterministically(self):
        for mode in ("summary", "off"):
            serial = CampaignRunner(backend="serial", telemetry=mode).run(
                SPEC, _evaluator())
            pool = CampaignRunner(backend="pool", processes=2, chunk_size=2,
                                  telemetry=mode).run(SPEC, _evaluator())
            assert serial.num_failures == 0 and pool.num_failures == 0
            # Counters cross the process boundary at every telemetry level.
            assert serial.metrics["counters"] == pool.metrics["counters"]
            assert serial.metrics["counters"]["linalg.factorizations"] > 0
            if mode == "off":
                assert serial.telemetry is None and pool.telemetry is None
                continue
            assert serial.telemetry["metrics"] is serial.metrics
            assert _span_counts(serial) == _span_counts(pool)
            serial_hist = serial.metrics.get("histograms", {})
            pool_hist = pool.metrics.get("histograms", {})
            assert set(serial_hist) == set(pool_hist)
            for name in serial_hist:  # counts agree; timings are machine noise
                assert serial_hist[name]["count"] == pool_hist[name]["count"]

    @pytest.mark.parametrize("mode", ["off", "summary"])
    def test_chunk_takes_one_registry_snapshot(self, mode, monkeypatch):
        # One snapshot before the chunk's items and one delta after them,
        # whatever the telemetry level: no per-channel snapshots.
        calls = {"snapshot": 0, "delta": 0}
        real_snapshot, real_delta = registry.snapshot, registry.delta

        def snapshot():
            calls["snapshot"] += 1
            return real_snapshot()

        def delta(before, after=None):
            calls["delta"] += 1
            return real_delta(before,
                              real_snapshot() if after is None else after)

        monkeypatch.setattr(registry, "snapshot", snapshot)
        monkeypatch.setattr(registry, "delta", delta)
        result = CampaignRunner(telemetry=mode).run(SPEC, _evaluator())
        assert calls == {"snapshot": 1, "delta": 1}
        assert result.metrics["counters"]["linalg.factorizations"] > 0

    def test_solver_summary_includes_profile(self):
        result = CampaignRunner(telemetry="summary").run(SPEC, _evaluator())
        summary = result.solver_summary()
        assert summary["telemetry"]["mode"] == "summary"
        assert summary["telemetry"]["span_totals"]["op.run"]["count"] == len(SPEC)
        # The exported block is a copy, not a view of the result's profile.
        summary["telemetry"]["span_totals"]["op.run"]["count"] = -1
        assert result.telemetry["span_totals"]["op.run"]["count"] == len(SPEC)

    def test_telemetry_report_renders(self):
        result = CampaignRunner(telemetry="summary").run(SPEC, _evaluator())
        report = result.telemetry_report()
        assert report.spans == []  # aggregate-only across processes
        table = report.profile_summary()
        assert "op.run" in table

    def test_derived_results_carry_no_profile(self):
        result = CampaignRunner(telemetry="summary").run(SPEC, _evaluator())
        assert result.filter(lambda row: True).telemetry is None
