"""Self-checks of the benchmark (not part of the library's test suite).

Run from the root of a checkout (a few minutes on two cores)::

    python3 -m pytest perfbench/selftest.py -q

They check that every per-layer metric is non-zero on the workloads its
layer row names (a wrapper silently detached by a rename reads 0), that
deterministic counts repeat exactly across runs and between traced and
untraced runs, that seeds drive the inputs, and that an oracle breach or a
missing library makes the command fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import run  # noqa: E402
from perfbench.workloads import WORKLOADS, make_workload  # noqa: E402

DESIGN, BENCHMARK, UNITS = run.DESIGN, run.BENCHMARK, run.UNITS
SEED = 7
_runs: dict[tuple, tuple[dict, dict]] = {}


def bench(workload: str, trace: int, repeat: int = 0) -> tuple[dict, dict]:
    """``(detail, result)`` of one short run, memoized per repeat."""
    key = (workload, trace, repeat)
    if key not in _runs:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[-2].startswith("detail: ")
        _runs[key] = (json.loads(lines[-2][len("detail: "):]),
                      json.loads(lines[-1]))
    return _runs[key]


def values(result: dict) -> dict[str, float]:
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def deterministic(result: dict) -> dict[str, float]:
    return {name: value for name, value in values(result).items()
            if UNITS["per_layer"][name] == "count"}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_result_line_carries_every_metric(workload):
    for trace, table in ((0, "end_to_end"), (1, "per_layer")):
        _, result = bench(workload, trace)
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == set(UNITS[table])
        for name, entry in result["metrics"].items():
            assert entry["unit"] == UNITS[table][name]
    assert all(entry["value"] > 0
               for entry in bench(workload, 0)[1]["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_layer_metrics_nonzero_where_their_row_applies(workload):
    got = values(bench(workload, 1)[1])
    # Exactly 0 is what a detached wrapper reads.  (hdl.per_instance_s is a
    # difference of two timings and may come out slightly negative.)
    design = {name: DESIGN["per_layer"][name] for name in UNITS["per_layer"]}
    zero = [name for name, spec in design.items()
            if workload in spec["on"] and not spec.get("waste")
            and got[name] == 0]
    assert not zero, f"{workload}: layer metrics read 0: {zero}"
    # A bypassed layer does no counted work.
    busy = [name for name, spec in design.items()
            if workload in spec["not_on"]
            and UNITS["per_layer"][name] == "count" and got[name] != 0]
    assert not busy, f"{workload}: bypassed layers did work: {busy}"


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_repeat_across_runs_and_tracing(workload):
    untraced = [bench(workload, 0, repeat)[0]["counts"] for repeat in (0, 1)]
    traced_detail, traced = bench(workload, 1, 0)
    assert untraced[0] == untraced[1] == traced_detail["counts"]
    assert deterministic(traced) == deterministic(bench(workload, 1, 1)[1])
    counts, layer = untraced[0], values(traced)
    assert layer["hdl.kernels"] == counts["hdl.kernels"]
    if workload == "tran_behavioral":
        assert layer["tran.accepted"] == counts["tran.accepted"]
        assert layer["tran.rejected"] == counts["tran.rejected"]
    else:
        assert layer["campaign.error_rows"] == counts["campaign.error_rows"]
        assert layer["linalg.factorize.calls"] + layer["linalg.batch.lanes"] \
            == counts["linalg.factorizations"]


def test_seed_drives_inputs():
    for name in WORKLOADS:
        a, b, c = (make_workload(name, seed) for seed in (1, 1, 2))
        if name == "tran_behavioral":
            assert a.cells == b.cells != c.cells
        else:
            assert a.spec.points() == b.spec.points() != c.spec.points()


def test_jitter_leaves_kernel_count_unchanged():
    workload = make_workload("tran_behavioral", 11)
    workload.warm_up()
    assert workload.checks() == []


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(60)]
    value, percentile, beyond = run.tail(samples)
    assert (percentile, beyond) == (83, 10)
    assert sum(s > value for s in samples) == 10


def test_oracle_breach_exits_nonzero(monkeypatch, capsys):
    cls = WORKLOADS["mc_op_batch"]
    original = cls.unit

    def drifted(self):
        result = original(self)
        row = result.rows[0]
        name = next(iter(row.outputs))
        row.outputs[name] *= 1.0 + 1e-9
        return result
    monkeypatch.setattr(cls, "unit", drifted)
    code = run.main(["--workload", "mc_op_batch", "--seed", "1",
                     "--seconds", "0", "--trace", "1"])
    assert code == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] \
        is False


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", "mc_op_batch", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
