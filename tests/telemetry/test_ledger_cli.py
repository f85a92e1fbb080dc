"""The ``python -m repro.telemetry.ledger`` command line."""

from __future__ import annotations

import json

import pytest

from repro.telemetry.ledger import RunLedger, RunRecord
from repro.telemetry.ledger.cli import main

from test_ledger import BASELINE, make_record  # noqa: E402 -- sibling test module


@pytest.fixture
def ledger_dir(tmp_path):
    """A ledger directory pre-seeded with a baseline and a slowed run."""
    ledger = RunLedger(tmp_path)
    baseline_id = ledger.append(make_record(wall_s=1.0))
    slowed_id = ledger.append(make_record(wall_s=2.0))
    return tmp_path, baseline_id, slowed_id


class TestRecord:
    def test_requires_ledger_and_a_source(self, tmp_path, capsys):
        assert main(["record", "--from-report", "x.json"]) == 2
        assert main(["record", "--ledger", str(tmp_path)]) == 2
        assert "record:" in capsys.readouterr().err

    def test_from_report_ingests_telemetry_json(self, tmp_path, capsys):
        report = {"mode": "summary", "wall_s": 0.5,
                  "span_totals": {"op.run": {"count": 2, "total_s": 0.4,
                                             "self_s": 0.3}},
                  "metrics": {"counters": {"linalg.factorizations": 2},
                              "gauges": {}, "histograms": {}}}
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        out_path = tmp_path / "record.json"
        code = main(["record", "--ledger", str(tmp_path / "ledger"),
                     "--from-report", str(path), "--label", "figure5",
                     "--options-fingerprint", "cafe1234",
                     "--out", str(out_path)])
        assert code == 0
        record_id = capsys.readouterr().out.strip()
        record = RunLedger(tmp_path / "ledger").load(record_id)
        assert RunRecord.load(out_path).record_id == record_id
        assert record.label == "figure5"
        assert record.options_fingerprint == "cafe1234"
        assert record.span_totals["op.run"]["count"] == 2


class TestShow:
    def test_lists_ledger(self, ledger_dir, capsys):
        path, baseline_id, slowed_id = ledger_dir
        assert main(["show", "--ledger", str(path)]) == 0
        out = capsys.readouterr().out
        assert baseline_id in out and slowed_id in out
        assert "2 record(s)" in out

    def test_renders_one_record(self, ledger_dir, capsys):
        path, baseline_id, _ = ledger_dir
        assert main(["show", "--ledger", str(path), baseline_id[:6]]) == 0
        out = capsys.readouterr().out
        assert "tran.run" in out          # profile table
        assert "bench_a.py::test_fig5" in out  # benchmark table
        assert "ci-host" in out           # provenance

    def test_json_mode_round_trips(self, ledger_dir, capsys):
        path, baseline_id, _ = ledger_dir
        assert main(["show", "--ledger", str(path), baseline_id,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-run-record/1"


class TestCompare:
    def test_reports_wall_time_and_newton_deltas(self, ledger_dir, capsys):
        path, baseline_id, slowed_id = ledger_dir
        assert main(["compare", "--ledger", str(path),
                     baseline_id, slowed_id]) == 0
        out = capsys.readouterr().out
        assert "wall_s" in out
        assert "conv.newton_iterations" in out

    def test_compare_against_standalone_file(self, ledger_dir, tmp_path,
                                             capsys):
        path, _, slowed_id = ledger_dir
        baseline_file = tmp_path / "BASELINE.json"
        make_record(wall_s=1.0).dump(baseline_file)
        assert main(["compare", "--ledger", str(path),
                     str(baseline_file), slowed_id]) == 0
        assert "wall_s" in capsys.readouterr().out

    def test_json_output(self, ledger_dir, capsys):
        path, baseline_id, slowed_id = ledger_dir
        assert main(["compare", "--ledger", str(path), baseline_id,
                     slowed_id, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {delta["name"] for delta in payload["deltas"]}
        assert "wall_s" in names


class TestCheck:
    def test_ok_exits_zero(self, ledger_dir, capsys):
        path, baseline_id, _ = ledger_dir
        assert main(["check", baseline_id, "--ledger", str(path),
                     "--baseline", baseline_id]) == 0
        assert "verdict: ok" in capsys.readouterr().out

    def test_regression_exits_one_and_names_family(self, ledger_dir, capsys):
        path, baseline_id, slowed_id = ledger_dir
        code = main(["check", slowed_id, "--ledger", str(path),
                     "--baseline", baseline_id])
        assert code == 1
        out = capsys.readouterr().out
        assert "verdict: regressed" in out
        assert "time" in out

    def test_json_verdict(self, ledger_dir, capsys):
        path, baseline_id, slowed_id = ledger_dir
        code = main(["check", slowed_id, "--ledger", str(path),
                     "--baseline", baseline_id, "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "regressed"
        assert "time" in payload["families"]

    def test_generous_tolerance_passes_the_same_pair(self, ledger_dir):
        path, baseline_id, slowed_id = ledger_dir
        assert main(["check", slowed_id, "--ledger", str(path),
                     "--baseline", baseline_id,
                     "--time-tol", "3.0"]) == 0

    def test_baseline_file_reference(self, ledger_dir, tmp_path):
        path, _, slowed_id = ledger_dir
        baseline_file = tmp_path / "BASELINE.json"
        make_record(wall_s=1.0).dump(baseline_file)
        assert main(["check", slowed_id, "--ledger", str(path),
                     "--baseline", str(baseline_file)]) == 1


    def test_extra_factorization_fails_the_committed_baseline(
            self, tmp_path, capsys):
        payload = RunRecord.load(BASELINE).to_json()
        payload["metrics"]["counters"]["linalg.factorizations"] += 1
        record = RunRecord.from_json(payload).dump(tmp_path / "RECORD.json")
        assert main(["check", record, "--baseline", str(BASELINE),
                     "--time-tol", "3.0"]) == 1
        out = capsys.readouterr().out
        assert "[counter] counter.linalg.factorizations" in out


class TestGcAndErrors:
    def test_gc_tightens_retention(self, ledger_dir, capsys):
        path, _, slowed_id = ledger_dir
        assert main(["gc", "--ledger", str(path), "--keep", "1"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert RunLedger(path).ids() == [slowed_id]

    def test_unknown_ref_exits_two(self, ledger_dir, capsys):
        path, _, _ = ledger_dir
        assert main(["show", "--ledger", str(path), "zzzzzz"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_ledger_for_compare_exits_two(self, capsys):
        assert main(["compare", "latest", "latest"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_module_is_executable(self, ledger_dir):
        import subprocess
        import sys
        path, baseline_id, _ = ledger_dir
        proc = subprocess.run(
            [sys.executable, "-m", "repro.telemetry.ledger", "show",
             "--ledger", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert baseline_id in proc.stdout
