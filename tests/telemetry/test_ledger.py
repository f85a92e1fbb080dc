"""Run records, the persistent ledger store, diffing and regression gating."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.telemetry.ledger import (LedgerError, LedgerSchemaError,
                                    RegressionPolicy, RunLedger, RunRecord,
                                    SCHEMA, canonical_json, check_regressions,
                                    content_id, diff)
from repro.telemetry.ledger.cli import main as ledger_main

#: The regression-gate baseline CI judges benchmark sessions against.
BASELINE = Path(__file__).resolve().parents[2] / "benchmarks" / "BASELINE.json"


def make_record(label="run", wall_s=1.0, newton_iterations=40,
                solve_s_sum=0.8, counter=12, git_sha="a" * 40,
                created="2026-08-07T00:00:00+00:00"):
    """A fully populated record with deterministic provenance."""
    return RunRecord(
        label,
        span_totals={
            "tran.run": {"count": 1, "total_s": wall_s, "self_s": 0.1},
            "newton.solve": {"count": newton_iterations,
                             "total_s": solve_s_sum, "self_s": solve_s_sum},
        },
        metrics={
            "counters": {"linalg.factorizations": counter},
            "gauges": {"step.size": 2e-4},
            "histograms": {
                "batch.size": {"count": 4, "sum": 64.0, "min": 8.0,
                               "max": 32.0},
                "batch.solve_s": {"count": 4, "sum": solve_s_sum,
                                  "min": 0.01, "max": 0.5},
            },
        },
        convergence={"newton_solves": 10,
                     "newton_iterations": newton_iterations,
                     "step_rejection_rate": 0.125},
        benchmarks={"bench_a.py::test_fig5": {
            "outcome": "passed", "duration_s": wall_s,
            "benchmark": {"rounds": 5, "min_s": 0.9 * wall_s,
                          "mean_s": wall_s, "max_s": 1.1 * wall_s}}},
        wall_s=wall_s,
        options_fingerprint="deadbeef",
        provenance={"git_sha": git_sha, "created_utc": created,
                    "host": "ci-host", "platform": "linux",
                    "versions": {"python": "3.11", "numpy": "2.4",
                                 "scipy": "1.17"}},
    )


class TestRoundTrip:
    def test_serialize_load_is_identity(self, tmp_path):
        record = make_record()
        path = record.dump(tmp_path / "record.json")
        loaded = RunRecord.load(path)
        assert loaded.to_json() == record.to_json()
        assert loaded.record_id == record.record_id

    def test_record_id_is_deterministic_and_content_addressed(self):
        a, b = make_record(), make_record()
        assert a.record_id == b.record_id
        assert a.record_id == content_id(a.to_json())
        # Any payload change moves the ID.
        assert make_record(wall_s=2.0).record_id != a.record_id

    def test_diff_of_round_tripped_record_is_empty(self, tmp_path):
        record = make_record()
        path = record.dump(tmp_path / "record.json")
        delta_view = diff(record, RunRecord.load(path))
        assert delta_view.structurally_identical
        assert not delta_view.changed()

    def test_records_never_alias_nested_state(self):
        record = make_record()
        clone = RunRecord.from_json(record.to_json())
        clone.benchmarks["bench_a.py::test_fig5"]["benchmark"]["mean_s"] = 99.0
        assert record.benchmarks["bench_a.py::test_fig5"]["benchmark"][
            "mean_s"] == 1.0

    def test_schema_mismatch_raises_clearly(self):
        payload = make_record().to_json()
        payload["schema"] = "repro-run-record/999"
        with pytest.raises(LedgerSchemaError, match="repro-run-record/999"):
            RunRecord.from_json(payload)
        assert issubclass(LedgerSchemaError, LedgerError)

    def test_canonical_json_is_stable_under_key_order(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1})


class TestFromReport:
    def test_accepts_campaign_profile_mapping(self):
        profile = {"mode": "summary",
                   "span_totals": {"op.run": {"count": 3, "total_s": 0.3,
                                              "self_s": 0.2}},
                   "metrics": {"counters": {"linalg.factorizations": 3},
                               "gauges": {}, "histograms": {}},
                   "wall_s": 0.3}
        record = RunRecord.from_report(profile, label="campaign")
        assert record.label == "campaign"
        assert record.span_totals["op.run"]["count"] == 3
        assert record.wall_s == pytest.approx(0.3)

    def test_newton_iterations_derived_from_solve_histograms(self):
        # Session-level reports drop per-analysis convergence diagnostics;
        # the record derives Newton work from the solve-time histogram
        # counts (one linear solve per iteration) so figure-5 records
        # always diff on conv.newton_iterations.
        report = {"mode": "summary", "span_totals": {}, "wall_s": 1.0,
                  "metrics": {"counters": {}, "gauges": {}, "histograms": {
                      "newton.op.solve_s": {"count": 7, "sum": 0.1,
                                            "min": 0.01, "max": 0.02},
                      "newton.tran.solve_s": {"count": 35, "sum": 0.5,
                                              "min": 0.01, "max": 0.02},
                      "linalg.factorize.dense_s": {"count": 9, "sum": 0.1,
                                                   "min": 0.01, "max": 0.02},
                  }}}
        record = RunRecord.from_report(report, label="figure5")
        assert record.convergence == {"newton_iterations": 42}
        # An attached convergence summary always wins over the derivation.
        explicit = dict(report, convergence={"newton_iterations": 5})
        assert RunRecord.from_report(explicit).convergence == \
            {"newton_iterations": 5}


class TestDiff:
    def test_reports_wall_time_and_newton_iteration_deltas(self):
        baseline = make_record(wall_s=1.0, newton_iterations=40)
        current = make_record(wall_s=1.5, newton_iterations=48)
        delta_view = diff(baseline, current)

        wall = delta_view.get("wall_s")
        assert wall.family == "time"
        assert wall.absolute == pytest.approx(0.5)
        assert wall.relative == pytest.approx(0.5)

        newton = delta_view.get("conv.newton_iterations")
        assert newton.family == "counter"
        assert newton.absolute == pytest.approx(8)

        table = delta_view.format_table()
        assert "wall_s" in table
        assert "conv.newton_iterations" in table

    def test_headline_rows_present_even_when_unchanged(self):
        table = diff(make_record(), make_record()).format_table()
        assert "wall_s" in table
        assert "conv.newton_iterations" in table
        assert "no changed metrics" in table

    def test_histogram_digests_compare_by_mean_not_point_value(self):
        baseline = make_record(solve_s_sum=0.8)
        current = make_record(solve_s_sum=1.6)
        delta_view = diff(baseline, current)
        mean = delta_view.get("hist.batch.solve_s.mean")
        assert mean.family == "time"
        assert mean.baseline == pytest.approx(0.2)
        assert mean.current == pytest.approx(0.4)
        count = delta_view.get("hist.batch.solve_s.count")
        assert count.family == "counter"
        assert not count.changed

    def test_non_seconds_histogram_mean_is_gauge_family(self):
        delta_view = diff(make_record(), make_record())
        assert delta_view.get("hist.batch.size.mean").family == "gauge"

    def test_structural_changes_are_listed_not_judged(self):
        baseline = make_record()
        current = make_record()
        current.span_totals["new.phase"] = {"count": 1, "total_s": 0.1,
                                            "self_s": 0.1}
        del current.metrics["counters"]["linalg.factorizations"]
        delta_view = diff(baseline, current)
        assert "span.new.phase" in delta_view.added
        assert "counter.linalg.factorizations" in delta_view.removed
        assert not delta_view.structurally_identical

    def test_convergence_ints_are_counters_floats_are_gauges(self):
        delta_view = diff(make_record(), make_record())
        assert delta_view.get("conv.newton_iterations").family == "counter"
        assert delta_view.get("conv.step_rejection_rate").family == "gauge"

    def test_label_mismatch_is_called_out(self):
        table = diff(make_record(label="a"),
                     make_record(label="b")).format_table()
        assert "WARNING" in table


class TestRegressionGate:
    def test_identical_records_pass(self):
        verdict = check_regressions(make_record(), make_record())
        assert verdict.ok
        assert verdict.status == "ok"
        assert verdict.families == []

    def test_injected_2x_slowdown_fails_and_names_the_time_family(self):
        baseline = make_record(wall_s=1.0)
        slowed = make_record(wall_s=2.0)  # 2x the wall-time metric family
        verdict = check_regressions(slowed, baseline)
        assert not verdict.ok
        assert "time" in verdict.families
        names = {failure["name"] for failure in verdict.failures}
        assert "wall_s" in names
        # The rendered verdict names the family too (what CI logs show).
        assert "time" in verdict.format()
        assert verdict.to_json()["families"] == verdict.families

    def test_counter_drift_is_exact_by_default(self):
        baseline = make_record(newton_iterations=40)
        drifted = make_record(newton_iterations=41)
        verdict = check_regressions(drifted, baseline)
        assert not verdict.ok
        assert verdict.families == ["counter"]

    def test_a_missing_pinned_counter_fails_the_check(self, tmp_path):
        # Fails closed: the counter is only on the baseline side, which
        # the structural view lists, and no opt-in flag is needed.
        payload = RunRecord.load(BASELINE).to_json()
        del payload["metrics"]["counters"]["linalg.factorizations"]
        record = tmp_path / "record.json"
        record.write_text(json.dumps(payload))
        verdict = check_regressions(RunRecord.load(record),
                                    RunRecord.load(BASELINE))
        assert not verdict.ok
        assert [failure["name"] for failure in verdict.failures] \
            == ["counter.linalg.factorizations"]
        assert ledger_main(["check", str(record),
                            "--baseline", str(BASELINE)]) == 1
        assert ledger_main(["check", str(BASELINE),
                            "--baseline", str(BASELINE)]) == 0

    def test_time_noise_within_tolerance_passes(self):
        baseline = make_record(wall_s=1.0)
        noisy = make_record(wall_s=1.2)  # +20% < default 25% tolerance
        # Only perturb wall_s; keep span timings equal so the single
        # perturbed metric is the one under test.
        noisy.span_totals = dict(baseline.span_totals)
        assert check_regressions(noisy, baseline).ok

    def test_absolute_floor_ignores_microsecond_jitter(self):
        baseline = make_record(wall_s=1e-4)
        jittery = make_record(wall_s=3e-4)  # 3x, but well under the 5 ms floor
        jittery.span_totals = dict(baseline.span_totals)
        assert check_regressions(jittery, baseline).ok

    def test_speedups_never_fail_time_checks(self):
        baseline = make_record(wall_s=2.0)
        faster = make_record(wall_s=0.5)
        faster.span_totals = dict(baseline.span_totals)
        assert check_regressions(faster, baseline).ok

    def test_gauges_unchecked_unless_opted_in(self):
        baseline = make_record()
        drifted = make_record()
        drifted.metrics["gauges"]["step.size"] = 1.0  # huge drift
        assert check_regressions(drifted, baseline).ok
        strict = RegressionPolicy(check_gauges=True)
        verdict = check_regressions(drifted, baseline, strict)
        assert not verdict.ok
        assert verdict.families == ["gauge"]

    def test_structural_failure_is_opt_in(self):
        baseline = make_record()
        current = make_record()
        current.span_totals["new.phase"] = {"count": 1, "total_s": 0.0,
                                            "self_s": 0.0}
        assert check_regressions(current, baseline).ok
        policy = RegressionPolicy(fail_on_structural=True)
        verdict = check_regressions(current, baseline, policy)
        assert not verdict.ok
        assert any("new.phase" in name for name in verdict.structural)


class TestRunLedger:
    def test_append_load_latest(self, tmp_path):
        ledger = RunLedger(tmp_path)
        record = make_record()
        record_id = ledger.append(record)
        assert record_id == record.record_id
        assert ledger.load("latest").record_id == record_id
        assert ledger.load(record_id[:6]).record_id == record_id
        assert len(ledger) == 1

    def test_append_deduplicates_by_content(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(make_record())
        ledger.append(make_record())
        assert len(ledger) == 1
        ledger.append(make_record(wall_s=2.0))
        assert len(ledger) == 2

    def test_retention_bound_trims_oldest_on_append(self, tmp_path):
        ledger = RunLedger(tmp_path, retain=3)
        ids = [ledger.append(make_record(wall_s=1.0 + i)) for i in range(5)]
        assert len(ledger) == 3
        assert ledger.ids() == ids[-3:]  # oldest two dropped, order kept

    def test_gc_respects_retention_and_reports_removals(self, tmp_path):
        ledger = RunLedger(tmp_path, retain=10)
        for i in range(6):
            ledger.append(make_record(wall_s=1.0 + i))
        assert ledger.gc() == 0  # within bound: nothing to do
        assert ledger.gc(keep=2) == 4
        assert len(ledger) == 2
        assert ledger.gc(keep=0) == 2
        assert len(ledger) == 0

    def test_unknown_and_ambiguous_refs_raise(self, tmp_path):
        ledger = RunLedger(tmp_path)
        with pytest.raises(LedgerError, match="no records"):
            ledger.load("latest")
        ledger.append(make_record())
        with pytest.raises(LedgerError, match="no record with id prefix"):
            ledger.load("zzzzzz")

    def test_corrupt_line_fails_loudly(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(make_record())
        with open(ledger.path, "a", encoding="utf-8") as handle:
            handle.write("{not json\n")
        with pytest.raises(LedgerError, match="corrupt"):
            ledger.load("latest")

    def test_empty_ledger_latest_is_none(self, tmp_path):
        assert RunLedger(tmp_path).latest() is None

    def test_retain_must_be_positive(self, tmp_path):
        with pytest.raises(LedgerError):
            RunLedger(tmp_path, retain=0)


class TestSummary:
    def test_summary_has_identity_and_headlines(self):
        summary = make_record().summary()
        assert summary["id"] == make_record().record_id
        assert summary["git_sha"] == "a" * 12
        assert summary["newton_iterations"] == 40
        assert summary["benchmarks"] == 1
        json.dumps(summary)  # JSON-serializable

    def test_schema_tag_is_stamped(self):
        assert make_record().to_json()["schema"] == SCHEMA

    def test_telemetry_report_renders_profile_with_histograms(self):
        text = make_record().telemetry_report().profile_summary()
        assert "tran.run" in text
        assert "batch.solve_s" in text
        assert text.splitlines()[-1].startswith("wall time:")


class TestCommittedBaseline:
    """``benchmarks/BASELINE.json`` can gate: it loads and pins counters."""

    def test_loads_with_a_counter_set(self):
        baseline = RunRecord.load(BASELINE)
        assert baseline.metrics["counters"]
        assert check_regressions(baseline, baseline).ok

    def test_one_extra_factorization_regresses_on_its_counter(self):
        payload = RunRecord.load(BASELINE).to_json()
        payload["metrics"]["counters"]["linalg.factorizations"] += 1
        verdict = check_regressions(RunRecord.from_json(payload),
                                    RunRecord.load(BASELINE))
        assert not verdict.ok
        assert verdict.families == ["counter"]
