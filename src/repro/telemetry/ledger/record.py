"""Run records and the persistent JSONL ledger store.

A :class:`RunRecord` is the durable unit of observability: one run's
identity (git SHA, UTC timestamp, host, toolchain versions, an optional
options fingerprint) together with what the telemetry layer collects
in-process -- span totals, a metrics-registry delta (counters / gauges /
histogram digests), a convergence summary and per-benchmark timings (a
``pytest benchmarks/... --record FILE`` session writes one).  Records are
plain JSON and schema-versioned, so a record written today stays loadable
(or fails loudly, never silently) tomorrow.

A :class:`RunLedger` is a directory holding an append-only
``records.jsonl`` file: one record per line, each line carrying a
content-addressed ID (SHA-256 over the canonical payload), with a bounded
retention count so an always-on CI recorder cannot grow without limit.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import platform
import socket
import subprocess
import sys
from datetime import datetime, timezone
from typing import Mapping

__all__ = ["SCHEMA", "LedgerError", "LedgerSchemaError", "RunRecord",
           "RunLedger", "capture_provenance", "current_git_sha",
           "content_id", "canonical_json"]

#: Record schema tag; bump on incompatible change.
SCHEMA = "repro-run-record/1"


class LedgerError(ValueError):
    """A ledger operation failed (unknown record, ambiguous reference, ...)."""


class LedgerSchemaError(LedgerError):
    """A payload carries a schema this version cannot interpret."""


# ------------------------------------------------------------------ identity
def canonical_json(payload) -> str:
    """Deterministic JSON text of ``payload`` (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_id(payload, length: int = 12) -> str:
    """Content-addressed ID: SHA-256 hex prefix of the canonical payload."""
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
    return digest.hexdigest()[:length]


def current_git_sha(cwd: str | None = None) -> str | None:
    """The checkout's HEAD SHA (``GITHUB_SHA`` fallback, None outside git)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=cwd,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return os.environ.get("GITHUB_SHA") or None


def _package_version(name: str) -> str | None:
    try:
        return __import__(name).__version__
    except Exception:  # noqa: BLE001 -- absent/broken package: just unknown
        return None


def capture_provenance() -> dict:
    """Identity of *this* run: who/where/when/with-what.

    The dict is the ``provenance`` block of a :class:`RunRecord` -- git SHA,
    UTC timestamp, hostname and Python/NumPy/SciPy versions, so any record
    is self-describing without consulting the CI job that produced it.
    """
    return {
        "git_sha": current_git_sha(),
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": _package_version("numpy"),
            "scipy": _package_version("scipy"),
        },
    }


# -------------------------------------------------------------------- record
class RunRecord:
    """One run's durable observability payload.

    Parameters
    ----------
    label:
        Human-chosen name of what ran (``"bench"``, ``"campaign"``,
        ``"figure5"``, ...); diffing two records of different labels is
        legal but the tables call the mismatch out.
    span_totals:
        Per-span-name ``{count, total_s, self_s}`` aggregates (the
        :func:`repro.telemetry.aggregate_spans` shape).
    metrics:
        Registry snapshot/delta: ``{"counters", "gauges", "histograms"}``.
    convergence:
        Scalar convergence digest (the
        :meth:`~repro.telemetry.ConvergenceDiagnostics.summary` shape).
    benchmarks:
        Per-benchmark timings keyed by test id:
        ``{nodeid: {"outcome", "duration_s", "benchmark": {...} | None}}``.
    wall_s:
        Wall-clock seconds of the recorded work.
    options_fingerprint:
        Content hash of whatever configured the run (simulation options,
        evaluator payload, benchmark flags) so records of *different*
        experiments are never silently compared as equals.
    provenance:
        Identity block (defaults to :func:`capture_provenance` now).
    """

    def __init__(self, label: str = "run", *,
                 span_totals: Mapping | None = None,
                 metrics: Mapping | None = None,
                 convergence: Mapping | None = None,
                 benchmarks: Mapping | None = None,
                 wall_s: float = 0.0,
                 options_fingerprint: str | None = None,
                 provenance: Mapping | None = None) -> None:
        self.schema = SCHEMA
        self.label = str(label)
        self.span_totals = {str(name): dict(entry) for name, entry
                            in (span_totals or {}).items()}
        metrics = dict(metrics or {})
        self.metrics = {
            "counters": dict(metrics.get("counters", {})),
            "gauges": dict(metrics.get("gauges", {})),
            "histograms": {name: dict(digest) for name, digest
                           in metrics.get("histograms", {}).items()},
        }
        self.convergence = dict(convergence) if convergence else None
        # Benchmark entries and provenance nest (pytest-benchmark stats,
        # version dicts): deep-copy so two records never alias mutable state.
        self.benchmarks = {str(name): copy.deepcopy(dict(entry))
                           for name, entry in (benchmarks or {}).items()}
        self.wall_s = float(wall_s)
        self.options_fingerprint = options_fingerprint
        self.provenance = copy.deepcopy(dict(provenance)) \
            if provenance is not None else capture_provenance()

    # ------------------------------------------------------------ converters
    @classmethod
    def from_report(cls, report, label: str = "run", *,
                    options_fingerprint: str | None = None) -> "RunRecord":
        """Build a record from a :class:`~repro.telemetry.TelemetryReport`.

        Also accepts the merged campaign profile dict
        (``CampaignResult.telemetry``) -- any mapping with ``span_totals`` /
        ``metrics`` / ``wall_s`` keys.  Convergence diagnostics attached to
        the report are folded in as their scalar summary; when none are
        attached (session-level reports aggregate across analyses and drop
        the per-analysis diagnostics), ``newton_iterations`` is derived
        from the ``newton.<analysis>.solve_s`` histogram counts -- one
        linear solve per Newton iteration -- so any instrumented run's
        record diffs on Newton work.
        """
        if isinstance(report, Mapping):
            span_totals = report.get("span_totals", {})
            metrics = report.get("metrics", {})
            wall_s = report.get("wall_s", 0.0)
            convergence = report.get("convergence")
        else:
            span_totals = report.span_totals
            metrics = report.metrics
            wall_s = report.wall_s
            convergence = report.convergence
        if convergence is not None and not isinstance(convergence, Mapping):
            convergence = convergence.summary()
        if convergence is None:
            iterations = sum(
                int(digest.get("count", 0))
                for name, digest in dict(metrics or {}).get(
                    "histograms", {}).items()
                if name.startswith("newton.") and name.endswith(".solve_s"))
            if iterations:
                convergence = {"newton_iterations": iterations}
        return cls(label, span_totals=span_totals, metrics=metrics,
                   convergence=convergence, wall_s=wall_s,
                   options_fingerprint=options_fingerprint)

    def to_json(self) -> dict:
        """JSON-serializable payload (the unit the ledger stores)."""
        out = {
            "schema": self.schema,
            "label": self.label,
            "provenance": dict(self.provenance),
            "options_fingerprint": self.options_fingerprint,
            "wall_s": self.wall_s,
            "span_totals": {name: dict(entry)
                            for name, entry in self.span_totals.items()},
            "metrics": {
                "counters": dict(self.metrics["counters"]),
                "gauges": dict(self.metrics["gauges"]),
                "histograms": {name: dict(digest) for name, digest
                               in self.metrics["histograms"].items()},
            },
            "benchmarks": {name: copy.deepcopy(dict(entry))
                           for name, entry in self.benchmarks.items()},
        }
        if self.convergence is not None:
            out["convergence"] = dict(self.convergence)
        return out

    @classmethod
    def from_json(cls, payload: Mapping) -> "RunRecord":
        """Reconstruct a record, failing loudly on a schema mismatch."""
        schema = payload.get("schema")
        if schema != SCHEMA:
            raise LedgerSchemaError(
                f"run record has schema {schema!r} but this version reads "
                f"{SCHEMA!r}; re-record it or use a matching repro version")
        record = cls(payload.get("label", "run"),
                     span_totals=payload.get("span_totals"),
                     metrics=payload.get("metrics"),
                     convergence=payload.get("convergence"),
                     benchmarks=payload.get("benchmarks"),
                     wall_s=payload.get("wall_s", 0.0),
                     options_fingerprint=payload.get("options_fingerprint"),
                     provenance=payload.get("provenance", {}))
        return record

    @classmethod
    def load(cls, path) -> "RunRecord":
        """Load a standalone record JSON file (e.g. a committed baseline)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(json.load(handle))

    def dump(self, path) -> str:
        """Write the record as a standalone JSON file; returns the path."""
        path = str(path)
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    # -------------------------------------------------------------- identity
    @property
    def record_id(self) -> str:
        """Content-addressed ID over the full canonical payload."""
        return content_id(self.to_json())

    def telemetry_report(self):
        """The record's profile as a renderable ``TelemetryReport``.

        Aggregate-only (records never store span trees), so
        ``profile_summary()`` and ``to_json()`` work while the Chrome-trace
        exporter has nothing to draw.
        """
        from ..context import TelemetryReport

        return TelemetryReport("summary", [], self.span_totals, self.metrics,
                               self.wall_s)

    def summary(self) -> dict:
        """Flat scalar digest for listings: identity + headline counts."""
        git_sha = self.provenance.get("git_sha")
        out = {
            "id": self.record_id,
            "label": self.label,
            "created_utc": self.provenance.get("created_utc"),
            "git_sha": git_sha[:12] if git_sha else None,
            "host": self.provenance.get("host"),
            "wall_s": self.wall_s,
            "spans": len(self.span_totals),
            "counters": len(self.metrics["counters"]),
            "benchmarks": len(self.benchmarks),
        }
        if self.convergence:
            out["newton_iterations"] = \
                self.convergence.get("newton_iterations", 0)
        return out

    def __repr__(self) -> str:
        return (f"RunRecord({self.label!r}, id={self.record_id}, "
                f"{len(self.span_totals)} span names, "
                f"{len(self.benchmarks)} benchmarks, "
                f"{self.wall_s * 1e3:.1f} ms)")


# -------------------------------------------------------------------- ledger
class RunLedger:
    """Append-only run-record store: a directory with ``records.jsonl``.

    Each line is ``{"id": <content id>, "record": <payload>}``.  Appends of
    an already-stored payload are deduplicated by ID.  ``retain`` bounds the
    file: after every append the oldest records beyond the bound are dropped
    (explicit :meth:`gc` re-applies or tightens the bound on demand).
    """

    FILENAME = "records.jsonl"

    def __init__(self, directory, retain: int = 200) -> None:
        if retain < 1:
            raise LedgerError("retain must be at least 1")
        self.directory = str(directory)
        self.retain = int(retain)

    @property
    def path(self) -> str:
        return os.path.join(self.directory, self.FILENAME)

    # -------------------------------------------------------------- reading
    def _lines(self) -> list[dict]:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                raw = [line for line in handle if line.strip()]
        except FileNotFoundError:
            return []
        lines = []
        for number, line in enumerate(raw, start=1):
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LedgerError(
                    f"{self.path}:{number}: corrupt ledger line: {exc}") from exc
            lines.append(entry)
        return lines

    def ids(self) -> list[str]:
        """Stored record IDs, oldest first."""
        return [entry["id"] for entry in self._lines()]

    def entries(self) -> list[tuple[str, RunRecord]]:
        """Every stored ``(id, record)``, oldest first."""
        return [(entry["id"], RunRecord.from_json(entry["record"]))
                for entry in self._lines()]

    def load(self, ref: str) -> RunRecord:
        """Resolve a record reference: ``"latest"`` or an ID prefix."""
        entries = self._lines()
        if not entries:
            raise LedgerError(f"ledger {self.path} holds no records")
        if ref == "latest":
            return RunRecord.from_json(entries[-1]["record"])
        matches = [entry for entry in entries if entry["id"].startswith(ref)]
        if not matches:
            raise LedgerError(
                f"no record with id prefix {ref!r} in {self.path} "
                f"(known: {', '.join(e['id'] for e in entries[-5:])} ...)")
        distinct = {entry["id"] for entry in matches}
        if len(distinct) > 1:
            raise LedgerError(
                f"record id prefix {ref!r} is ambiguous: {sorted(distinct)}")
        return RunRecord.from_json(matches[-1]["record"])

    def latest(self) -> RunRecord | None:
        """The most recently appended record (None when empty)."""
        entries = self._lines()
        if not entries:
            return None
        return RunRecord.from_json(entries[-1]["record"])

    # -------------------------------------------------------------- writing
    def append(self, record: RunRecord) -> str:
        """Store one record; returns its content ID (deduplicated)."""
        payload = record.to_json()
        record_id = content_id(payload)
        entries = self._lines()
        if any(entry["id"] == record_id for entry in entries):
            return record_id
        entries.append({"id": record_id, "record": payload})
        if len(entries) > self.retain:
            entries = entries[-self.retain:]
        self._rewrite(entries)
        return record_id

    def gc(self, keep: int | None = None) -> int:
        """Drop the oldest records beyond ``keep`` (default: the retain bound).

        Returns how many records were removed.
        """
        keep = self.retain if keep is None else int(keep)
        if keep < 0:
            raise LedgerError("keep must be non-negative")
        entries = self._lines()
        removed = max(0, len(entries) - keep)
        if removed:
            self._rewrite(entries[len(entries) - keep:])
        return removed

    def _rewrite(self, entries: list[dict]) -> None:
        os.makedirs(self.directory, exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            for entry in entries:
                handle.write(canonical_json(entry))
                handle.write("\n")
        os.replace(tmp, self.path)

    def __len__(self) -> int:
        return len(self._lines())

    def __repr__(self) -> str:
        return (f"RunLedger({self.directory!r}, {len(self)} records, "
                f"retain={self.retain})")
