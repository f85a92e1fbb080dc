"""``python -m repro.telemetry.ledger`` -- the run-ledger command line.

Subcommands:

* ``record``  -- ingest a telemetry-report JSON into a ledger directory
  (prints the record ID),
* ``show``    -- list the ledger, or render one record (provenance,
  profile table, benchmark timings; ``--json`` for the raw payload),
* ``compare`` -- structured diff of two records (wall-time, Newton
  iterations, every changed metric),
* ``check``   -- regression gate: judge a record against a baseline under
  per-family thresholds; exits 1 on ``verdict: regressed``,
* ``gc``      -- apply/tighten the ledger's retention bound.

Record references are ``latest``, a content-ID prefix, or a path to a
standalone record JSON file (e.g. a committed baseline).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .diffing import RegressionPolicy, check_regressions, diff
from .record import LedgerError, RunLedger, RunRecord

__all__ = ["main"]


def _resolve(ref: str, ledger: RunLedger | None) -> RunRecord:
    """A record from an ID prefix / ``latest`` / standalone JSON path."""
    if os.path.isfile(ref):
        return RunRecord.load(ref)
    if ledger is None:
        raise LedgerError(
            f"{ref!r} is not a record file and no --ledger directory was "
            "given to resolve it in")
    return ledger.load(ref)


def _ledger(args) -> RunLedger | None:
    if getattr(args, "ledger", None) is None:
        return None
    return RunLedger(args.ledger, retain=getattr(args, "retain", 200))


def _cmd_record(args) -> int:
    ledger = _ledger(args)
    if ledger is None:
        print("record: --ledger DIR is required", file=sys.stderr)
        return 2
    if not args.from_report:
        print("record: nothing to record (pass --from-report)",
              file=sys.stderr)
        return 2
    with open(args.from_report, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    record = RunRecord.from_report(
        payload, args.label, options_fingerprint=args.options_fingerprint)
    record_id = ledger.append(record)
    if args.out:
        record.dump(args.out)
    print(record_id)
    return 0


def _cmd_show(args) -> int:
    ledger = _ledger(args)
    if args.ref is None:
        if ledger is None:
            print("show: --ledger DIR is required to list records",
                  file=sys.stderr)
            return 2
        entries = ledger.entries()
        if not entries:
            print(f"ledger {ledger.path}: empty")
            return 0
        print(f"ledger {ledger.path}: {len(entries)} record(s), "
              f"retain={ledger.retain}")
        for record_id, record in entries:
            summary = record.summary()
            print(f"  {record_id}  {summary['label']:<12} "
                  f"{summary['created_utc'] or '?':<25} "
                  f"git={summary['git_sha'] or '?':<12} "
                  f"wall={summary['wall_s']:.3f}s "
                  f"spans={summary['spans']} bench={summary['benchmarks']}")
        return 0
    record = _resolve(args.ref, ledger)
    if args.json:
        json.dump(record.to_json(), sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    summary = record.summary()
    print(f"record {summary['id']}  label={summary['label']}")
    for key in ("created_utc", "git_sha", "host"):
        print(f"  {key}: {summary.get(key) or '?'}")
    versions = record.provenance.get("versions", {})
    if versions:
        print("  versions: " + ", ".join(f"{name}={version or '?'}"
                                         for name, version
                                         in sorted(versions.items())))
    if record.options_fingerprint:
        print(f"  options_fingerprint: {record.options_fingerprint}")
    print(f"  wall_s: {record.wall_s:.6f}")
    if record.convergence:
        print("  convergence: " + ", ".join(
            f"{name}={value:g}" for name, value
            in sorted(record.convergence.items())))
    if record.span_totals or record.metrics["histograms"]:
        print()
        print(record.telemetry_report().profile_summary(limit=args.limit))
    if record.benchmarks:
        print()
        print(f"{'benchmark':<60} {'outcome':>8} {'duration':>12}")
        for name, entry in sorted(record.benchmarks.items()):
            print(f"{name:<60} {entry.get('outcome') or '?':>8} "
                  f"{entry.get('duration_s', 0.0):>11.3f}s")
    return 0


def _cmd_compare(args) -> int:
    ledger = _ledger(args)
    baseline = _resolve(args.a, ledger)
    current = _resolve(args.b, ledger)
    delta_view = diff(baseline, current)
    if args.json:
        json.dump(delta_view.to_json(), sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(delta_view.format_table(limit=args.limit))
    return 0


def _cmd_check(args) -> int:
    ledger = _ledger(args)
    record = _resolve(args.ref, ledger)
    baseline = _resolve(args.baseline, ledger)
    policy = RegressionPolicy(
        time_rel_tol=args.time_tol,
        time_abs_floor_s=args.time_floor,
        counter_rel_tol=args.counter_tol,
        gauge_rel_tol=args.gauge_tol,
        check_gauges=args.check_gauges,
        fail_on_structural=args.fail_on_structural)
    verdict = check_regressions(record, baseline, policy)
    if args.json:
        json.dump(verdict.to_json(), sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(verdict.format())
    return 0 if verdict.ok else 1


def _cmd_gc(args) -> int:
    ledger = _ledger(args)
    if ledger is None:
        print("gc: --ledger DIR is required", file=sys.stderr)
        return 2
    removed = ledger.gc(args.keep)
    print(f"removed {removed} record(s); {len(ledger)} kept")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.ledger",
        description="Persistent cross-run observability: record, diff and "
                    "regression-gate repro runs.")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_ledger_arg(sub):
        sub.add_argument("--ledger", metavar="DIR", default=None,
                         help="run-ledger directory (holds records.jsonl)")
        sub.add_argument("--retain", type=int, default=200, metavar="N",
                         help="retention bound applied on append (default 200)")

    sub = commands.add_parser("record", help="ingest a telemetry report")
    add_ledger_arg(sub)
    sub.add_argument("--from-report", metavar="FILE",
                     help="TelemetryReport.to_json() file to ingest")
    sub.add_argument("--label", default="bench",
                     help="record label (default: bench)")
    sub.add_argument("--options-fingerprint", default=None, metavar="HASH",
                     help="configuration fingerprint to stamp on the record")
    sub.add_argument("--out", metavar="FILE", default=None,
                     help="also write the record as a standalone JSON file")
    sub.set_defaults(func=_cmd_record)

    sub = commands.add_parser(
        "show", help="list the ledger or render one record")
    add_ledger_arg(sub)
    sub.add_argument("ref", nargs="?", default=None,
                     help="record reference: id prefix, 'latest' or a JSON "
                          "file (omit to list the ledger)")
    sub.add_argument("--json", action="store_true",
                     help="emit the raw record payload")
    sub.add_argument("--limit", type=int, default=20,
                     help="profile-table row cap (default 20)")
    sub.set_defaults(func=_cmd_show)

    sub = commands.add_parser(
        "compare", help="structured diff of two records (A = baseline)")
    add_ledger_arg(sub)
    sub.add_argument("a", help="baseline record reference")
    sub.add_argument("b", help="current record reference")
    sub.add_argument("--json", action="store_true",
                     help="emit the structured diff as JSON")
    sub.add_argument("--limit", type=int, default=40,
                     help="changed-metric row cap (default 40)")
    sub.set_defaults(func=_cmd_compare)

    sub = commands.add_parser(
        "check", help="regression-gate a record against a baseline "
                      "(exit 1 on verdict: regressed)")
    add_ledger_arg(sub)
    sub.add_argument("ref", nargs="?", default="latest",
                     help="record to judge (default: latest)")
    sub.add_argument("--baseline", required=True,
                     help="baseline record reference (id prefix, 'latest' "
                          "or a JSON file such as benchmarks/BASELINE.json)")
    sub.add_argument("--time-tol", type=float, default=0.25, metavar="REL",
                     help="relative slowdown allowed for time metrics "
                          "(default 0.25 = 25%%)")
    sub.add_argument("--time-floor", type=float, default=5e-3, metavar="S",
                     help="absolute slowdown floor in seconds (default 5 ms)")
    sub.add_argument("--counter-tol", type=float, default=0.0, metavar="REL",
                     help="relative drift allowed for counters (default 0 = "
                          "exact)")
    sub.add_argument("--gauge-tol", type=float, default=0.25, metavar="REL",
                     help="relative drift allowed for gauges (with "
                          "--check-gauges)")
    sub.add_argument("--check-gauges", action="store_true",
                     help="also judge gauge-family metrics")
    sub.add_argument("--fail-on-structural", action="store_true",
                     help="fail when phases/benchmarks appear or vanish")
    sub.add_argument("--json", action="store_true",
                     help="emit the verdict as JSON")
    sub.set_defaults(func=_cmd_check)

    sub = commands.add_parser("gc", help="apply/tighten the retention bound")
    add_ledger_arg(sub)
    sub.add_argument("--keep", type=int, default=None, metavar="N",
                     help="records to keep (default: the retain bound)")
    sub.set_defaults(func=_cmd_gc)

    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LedgerError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
