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

Passing ``--record FILE`` writes the session as one standalone
:class:`repro.telemetry.ledger.RunRecord` (the format of the committed
``benchmarks/BASELINE.json``): each test's outcome, call duration and
pytest-benchmark min/mean/max, the provenance block (git SHA, UTC
timestamp, host, Python/NumPy/SciPy versions), the summed wall time and
the metrics-registry delta between session start and end.  That delta
holds this process's counters only: a pool campaign's worker counters
stay in its ``CampaignResult.metrics``.  ``python -m
repro.telemetry.ledger check FILE --baseline benchmarks/BASELINE.json``
judges the record, counters exactly.
"""

from __future__ import annotations

import os
import re

import pytest


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
        "--record", default=None, metavar="FILE",
        help="write this benchmark session's RunRecord (timings, provenance "
             "and metrics-registry delta) to FILE")


def pytest_sessionstart(session):
    if session.config.getoption("--record"):
        from repro.telemetry import registry

        session.config._record_start = registry.snapshot()
        session.config._record_tests = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    tests = getattr(item.config, "_record_tests", None)
    if rep.when == "call" and tests is not None:
        tests[item.nodeid] = {"outcome": rep.outcome,
                              "duration_s": rep.duration}


def _benchmark_stats(config) -> dict:
    """Per-test pytest-benchmark statistics, keyed by node id."""
    stats = {}
    session = getattr(config, "_benchmarksession", None)
    for bench in getattr(session, "benchmarks", []) or []:
        raw = getattr(bench, "stats", None)
        raw = getattr(raw, "stats", raw)  # Metadata wraps Stats
        if raw is not None and raw.rounds:
            stats[bench.fullname] = {"rounds": int(raw.rounds),
                                     "min_s": float(raw.min),
                                     "mean_s": float(raw.mean),
                                     "max_s": float(raw.max)}
    return stats


def pytest_sessionfinish(session):
    path = session.config.getoption("--record", default=None)
    if not path:
        return
    from repro.telemetry import registry
    from repro.telemetry.ledger import RunRecord

    stats = _benchmark_stats(session.config)
    tests = session.config._record_tests
    record = RunRecord(
        "bench",
        metrics=registry.delta(session.config._record_start),
        benchmarks={nodeid: {**entry, "benchmark": stats.get(nodeid)}
                    for nodeid, entry in tests.items()},
        wall_s=sum(entry["duration_s"] for entry in tests.values()))
    record.dump(path)
    print(f"\nrun record {record.record_id} written: {path} "
          f"({len(tests)} tests, {len(record.metrics['counters'])} counters)")


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
