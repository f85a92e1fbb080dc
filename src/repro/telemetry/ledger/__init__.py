"""repro.telemetry.ledger -- persistent cross-run observability.

PR 6/7 made every *single* run observable; this package makes runs
comparable **across processes and commits**:

* :class:`RunRecord` -- one run's schema-versioned, self-describing
  payload: identity (git SHA, UTC timestamp, host, toolchain versions,
  options fingerprint) plus span totals, metrics-registry deltas
  (counters / gauges / histogram digests), a convergence summary and
  per-benchmark timings (``pytest benchmarks/... --record FILE`` writes
  one per benchmark session).
* :class:`RunLedger` -- an append-only JSONL store with content-addressed
  record IDs and a bounded retention count.
* :func:`diff` -- structured deltas between two records: per-family
  metric deltas (absolute + relative; histogram digests compare by mean,
  not point value), span-tree structural changes and convergence drift.
* :func:`check_regressions` -- a :class:`RegressionPolicy` of per-family
  thresholds (noise-tolerant for wall-time, exact for counters) turning a
  diff into a machine-readable :class:`RegressionVerdict` -- the CI gate.
* ``python -m repro.telemetry.ledger`` -- ``record`` / ``show`` /
  ``compare`` / ``check`` / ``gc`` on ledgers and standalone record files.

Typical use::

    from repro.telemetry import ledger

    with telemetry.session(mode="summary") as sess:
        run_workload()
    record = ledger.RunRecord.from_report(sess.report, label="figure5")
    store = ledger.RunLedger(".runledger")
    record_id = store.append(record)

    verdict = ledger.check_regressions(record, store.load("latest"))
    assert verdict.ok, verdict.format()
"""

from .diffing import (FAMILIES, Delta, RecordDiff, RegressionPolicy,
                      RegressionVerdict, check_regressions, diff)
from .record import (SCHEMA, LedgerError, LedgerSchemaError, RunLedger,
                     RunRecord, canonical_json, capture_provenance,
                     content_id, current_git_sha)

__all__ = [
    "SCHEMA", "FAMILIES",
    "RunRecord", "RunLedger", "LedgerError", "LedgerSchemaError",
    "capture_provenance", "current_git_sha", "content_id", "canonical_json",
    "Delta", "RecordDiff", "diff",
    "RegressionPolicy", "RegressionVerdict", "check_regressions",
]
