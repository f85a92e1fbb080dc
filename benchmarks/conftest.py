"""Shared helpers for the benchmark harness.

Every benchmark module reproduces one table or figure of the paper.  The
reproduced rows are printed through :func:`report` so that running

``pytest benchmarks/ --benchmark-only -s``

shows the regenerated tables next to the timing numbers.

Passing ``--trace-out DIR`` additionally wraps every benchmark test in a
full-mode :func:`repro.telemetry.session` and writes one Chrome/Perfetto
``trace_event`` JSON file per test into ``DIR`` (open in ``ui.perfetto.dev``
to see where a benchmark spends its time).  Without the flag nothing is
collected, so the timing numbers stay undisturbed.

Passing ``--bench-out FILE`` writes a machine-readable JSON ledger of the
run: one entry per executed test (outcome + call duration) enriched with
pytest-benchmark's min/mean/max statistics where a ``benchmark`` fixture
ran, stamped with a provenance block (git SHA, UTC timestamp, hostname,
Python/NumPy/SciPy versions) so every BENCH_N.json artifact is
self-describing.  CI archives the ledger next to the Perfetto traces, so
timing history is diffable across commits without scraping terminal output.

Passing ``--ledger DIR`` additionally appends one
:class:`repro.telemetry.ledger.RunRecord` for the whole benchmark session
into the persistent run ledger at ``DIR`` -- the durable form the
``python -m repro.telemetry.ledger`` CLI diffs and regression-gates.
"""

from __future__ import annotations

import json
import os
import platform
import re
import sys
import time

import pytest

#: Ledger schema tag; bump on incompatible change.  Version 2 added the
#: self-describing ``provenance`` block (version-1 files remain ingestable
#: by ``repro.telemetry.ledger``, which captures provenance on their behalf).
_LEDGER_SCHEMA = "repro-bench-ledger/2"


def report(title: str, lines) -> None:
    """Print a reproduced table/figure block (visible with ``-s``)."""
    print()
    print(f"==== {title} ====")
    for line in lines:
        print(f"  {line}")


def pytest_addoption(parser):
    parser.addoption(
        "--trace-out", default=None, metavar="DIR",
        help="write a Perfetto trace_event JSON per benchmark test into DIR")
    parser.addoption(
        "--bench-out", default=None, metavar="FILE",
        help="write a machine-readable JSON ledger of benchmark results to FILE")
    parser.addoption(
        "--ledger", default=None, metavar="DIR",
        help="append a RunRecord for this benchmark session to the "
             "persistent run ledger at DIR")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call" or not (item.config.getoption("--bench-out")
                                  or item.config.getoption("--ledger")):
        return
    ledger = getattr(item.config, "_bench_ledger", None)
    if ledger is None:
        ledger = item.config._bench_ledger = []
    ledger.append({"test": item.nodeid, "outcome": rep.outcome,
                   "duration_s": rep.duration})


def _benchmark_stats(config) -> dict:
    """Per-test pytest-benchmark statistics, keyed by node id (best effort)."""
    stats = {}
    session = getattr(config, "_benchmarksession", None)
    for bench in getattr(session, "benchmarks", []) or []:
        raw = getattr(bench, "stats", None)
        raw = getattr(raw, "stats", raw)  # Metadata wraps Stats on some versions
        try:
            digest = {"rounds": int(raw.rounds),
                      "min_s": float(raw.min),
                      "mean_s": float(raw.mean),
                      "max_s": float(raw.max)}
        except Exception:
            continue
        stats[bench.fullname] = digest
    return stats


def pytest_sessionfinish(session, exitstatus):
    path = session.config.getoption("--bench-out", default=None)
    ledger_dir = session.config.getoption("--ledger", default=None)
    if not path and not ledger_dir:
        return
    from repro.telemetry import ledger as run_ledger

    stats = _benchmark_stats(session.config)
    results = []
    for entry in getattr(session.config, "_bench_ledger", []):
        # pytest-benchmark's fullname may be relative to a different root
        # than the node id; fall back to suffix matching on the test name.
        bench = stats.get(entry["test"])
        if bench is None:
            test_name = entry["test"].rsplit("::", 1)[-1]
            for fullname, digest in stats.items():
                if fullname.rsplit("::", 1)[-1] == test_name:
                    bench = digest
                    break
        results.append({**entry, "benchmark": bench})
    payload = {
        "schema": _LEDGER_SCHEMA,
        "created_s": time.time(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "provenance": run_ledger.capture_provenance(),
        "exit_status": int(exitstatus),
        "results": results,
    }
    if path:
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nbenchmark ledger written: {path} ({len(results)} tests)")
    if ledger_dir:
        record = run_ledger.RunRecord.from_bench_ledger(payload)
        record_id = run_ledger.RunLedger(ledger_dir).append(record)
        print(f"\nrun record {record_id} appended to {ledger_dir}")


@pytest.fixture(autouse=True)
def perfetto_trace(request):
    """Opt-in per-test Perfetto trace collection (``--trace-out DIR``)."""
    directory = request.config.getoption("--trace-out", default=None)
    if not directory:
        yield
        return
    from repro import telemetry

    with telemetry.session(mode="full") as sess:
        yield
    os.makedirs(directory, exist_ok=True)
    name = re.sub(r"[^\w.=-]+", "_", request.node.name)
    path = sess.report.write_chrome_trace(
        os.path.join(directory, f"{name}.json"))
    print(f"perfetto trace written: {path}")
