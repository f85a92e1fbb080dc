"""Exporters: Chrome trace_event files, structured JSON, profile tables."""

from __future__ import annotations

import json

import pytest

from repro import telemetry


def _collect_tree():
    with telemetry.session() as sess:
        with telemetry.span("run", kind="test") as run:
            with telemetry.span("run.phase_a"):
                pass
            with telemetry.span("run.phase_b"):
                with telemetry.span("run.leaf", n=3):
                    pass
            run.set("steps", 2)
    return sess.report


class TestChromeTrace:
    def test_events_are_complete_events_with_microsecond_units(self):
        report = _collect_tree()
        events = report.chrome_trace()
        assert len(events) == 4
        assert all(event["ph"] == "X" for event in events)
        assert all(set(event) >= {"name", "ph", "ts", "dur", "pid", "tid", "cat"}
                   for event in events)
        by_name = {event["name"]: event for event in events}
        assert by_name["run"]["cat"] == "run"
        assert by_name["run"]["args"]["steps"] == 2
        assert by_name["run.leaf"]["args"]["n"] == 3

    def test_children_nest_within_parents(self):
        report = _collect_tree()
        by_name = {e["name"]: e for e in report.chrome_trace()}
        parent = by_name["run"]
        for child_name in ("run.phase_a", "run.phase_b"):
            child = by_name[child_name]
            assert child["ts"] >= parent["ts"]
            assert child["ts"] + child["dur"] <= \
                parent["ts"] + parent["dur"] + 1e-3  # rounding slack (µs)
        leaf = by_name["run.leaf"]
        phase_b = by_name["run.phase_b"]
        assert leaf["ts"] >= phase_b["ts"]

    def test_written_file_is_loadable_json(self, tmp_path):
        report = _collect_tree()
        path = report.write_chrome_trace(tmp_path / "trace.json")
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["displayTimeUnit"] == "ms"
        assert isinstance(payload["traceEvents"], list)
        assert all(event["ph"] == "X" for event in payload["traceEvents"])
        # Every value must already be JSON-primitive (round trip is lossless).
        assert payload["traceEvents"] == report.chrome_trace()


class TestStructuredJson:
    def test_report_to_json_round_trips_through_json(self):
        report = _collect_tree()
        payload = report.to_json()
        restored = json.loads(json.dumps(payload))
        assert restored["mode"] == "full"
        assert restored["spans"][0]["name"] == "run"
        names = {child["name"] for child in restored["spans"][0]["children"]}
        assert names == {"run.phase_a", "run.phase_b"}
        assert restored["span_totals"]["run"]["count"] == 1

    def test_convergence_included_when_attached(self):
        report = _collect_tree()
        diag = telemetry.ConvergenceDiagnostics()
        diag.add_newton(telemetry.NewtonTrace("op", [1.0, 1e-9], converged=True))
        report.convergence = diag
        payload = report.to_json()
        assert payload["convergence"]["summary"]["newton_solves"] == 1
        assert payload["convergence"]["newton"][0]["residuals"] == [1.0, 1e-9]


class TestProfileSummary:
    def test_table_lists_heaviest_spans(self):
        report = _collect_tree()
        table = report.profile_summary()
        lines = table.splitlines()
        assert lines[0].startswith("span")
        assert any("run.leaf" in line for line in lines)
        assert lines[-1].startswith("wall time:")

    def test_limit_caps_rows_and_reports_omissions(self):
        report = _collect_tree()
        short = report.profile_summary(limit=1)
        lines = short.splitlines()
        # header + rule + 1 row + omission footer + wall-time footer
        assert len(lines) == 5
        assert "3 rows omitted" in lines[-2]
        # An untruncated table has no omission footer.
        full = report.profile_summary(limit=100)
        assert "omitted" not in full

    def test_sort_keys_reorder_rows(self):
        report = _collect_tree()
        # Inflate one span's count so count-order differs from self-order.
        report.span_totals["run.leaf"]["count"] = 99
        by_count = report.profile_summary(sort="count").splitlines()
        assert by_count[2].startswith("run.leaf")
        by_total = report.profile_summary(sort="total").splitlines()
        assert by_total[2].startswith("run ")
        with pytest.raises(ValueError):
            report.profile_summary(sort="bogus")

    def test_percent_of_total_column_present(self):
        report = _collect_tree()
        header = report.profile_summary().splitlines()[0]
        assert "total %" in header and "self %" in header


class TestProfileHistograms:
    def _report_with_histograms(self):
        report = _collect_tree()
        report.metrics = {
            "counters": {}, "gauges": {},
            "histograms": {
                "batch.size": {"count": 4, "sum": 64.0, "min": 8.0,
                               "max": 32.0},
                "batch.solve_s": {"count": 4, "sum": 0.08, "min": 0.01,
                                  "max": 0.03},
            },
        }
        return report

    def test_histogram_section_appended(self):
        table = self._report_with_histograms().profile_summary()
        assert "histogram" in table
        assert "batch.size" in table and "batch.solve_s" in table
        # The wall-time footer stays the very last line.
        assert table.splitlines()[-1].startswith("wall time:")

    def test_digest_mean_and_units(self):
        table = self._report_with_histograms().profile_summary()
        size_line = next(line for line in table.splitlines()
                         if line.startswith("batch.size"))
        assert "16" in size_line  # mean = 64/4, plain number
        solve_line = next(line for line in table.splitlines()
                          if line.startswith("batch.solve_s"))
        assert "ms" in solve_line  # _s names format as durations

    def test_no_histograms_no_section(self):
        table = _collect_tree().profile_summary()
        assert "histogram" not in table

    def test_unknown_extremes_print_as_a_placeholder(self):
        report = self._report_with_histograms()
        report.metrics["histograms"]["batch.size"] = {"count": 4, "sum": 64.0}
        table = report.profile_summary()
        size_line = next(line for line in table.splitlines()
                         if line.startswith("batch.size"))
        assert size_line.split()[1:] == ["4", "16", "-", "-"]

    def test_zero_count_digest_never_divides(self):
        report = self._report_with_histograms()
        report.metrics["histograms"]["empty_s"] = \
            {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0}
        table = report.profile_summary()
        assert "empty_s" in table


class TestProfileCounters:
    def _report_with_counters(self):
        report = _collect_tree()
        report.metrics = {
            "counters": {"hdl.compile.count": 2.0,
                         "hdl.compile.cache_hits": 14.0,
                         "linalg.factorizations": 5.0},
            "gauges": {}, "histograms": {},
        }
        return report

    def test_counter_section_appended(self):
        table = self._report_with_counters().profile_summary()
        assert "counter" in table
        assert "hdl.compile.count" in table
        assert "hdl.compile.cache_hits" in table
        # Values print as plain numbers; the footer stays last.
        hits = next(line for line in table.splitlines()
                    if line.startswith("hdl.compile.cache_hits"))
        assert hits.split()[-1] == "14"
        assert table.splitlines()[-1].startswith("wall time:")

    def test_no_counters_no_section(self):
        table = _collect_tree().profile_summary()
        assert "counter" not in table
