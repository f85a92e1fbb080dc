"""Structured diffs between run records and the regression verdict engine.

:func:`diff` compares two :class:`~repro.telemetry.ledger.RunRecord`\\ s
into a :class:`RecordDiff`: one :class:`Delta` per metric present on both
sides, plus the structural view (span names / metrics / benchmarks that
appeared or vanished).  Every delta carries a **family** that decides how
it is judged:

* ``"time"`` -- wall-clock quantities (span ``total_s``/``self_s``,
  histogram means of ``*_s`` timings, benchmark durations, ``wall_s``).
  Noisy by nature: regression checks use a relative threshold with an
  absolute floor, and histogram digests compare by their *mean*
  (sum/count), never by a single point value.
* ``"counter"`` -- event counts (span counts, registry counters, histogram
  observation counts, integer convergence totals such as Newton
  iterations).  Deterministic by contract, so checks are exact by default.
* ``"gauge"`` -- last-written state (registry gauges, float convergence
  digests like rejection rates).  Informational; not checked by default.

:func:`check_regressions` turns a diff against a baseline into a
machine-readable :class:`RegressionVerdict` under a
:class:`RegressionPolicy` of per-family thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..export import _fmt_seconds

__all__ = ["Delta", "RecordDiff", "diff", "RegressionPolicy",
           "RegressionVerdict", "check_regressions", "FAMILIES"]

#: Metric families a delta can belong to.
FAMILIES = ("time", "counter", "gauge")


@dataclass
class Delta:
    """One metric compared across two records."""

    #: Namespaced metric name (``span.op.run.count``, ``counter.linalg...``,
    #: ``hist.batch.solve_s.mean``, ``bench.<nodeid>.duration_s``, ...).
    name: str
    #: ``"time"``, ``"counter"`` or ``"gauge"`` -- see the module docstring.
    family: str
    baseline: float
    current: float

    @property
    def absolute(self) -> float:
        """Signed difference ``current - baseline``."""
        return self.current - self.baseline

    @property
    def relative(self) -> float | None:
        """``absolute / |baseline|`` (None for a zero baseline)."""
        if self.baseline == 0:
            return None
        return self.absolute / abs(self.baseline)

    @property
    def changed(self) -> bool:
        return self.current != self.baseline

    def to_json(self) -> dict:
        return {"name": self.name, "family": self.family,
                "baseline": self.baseline, "current": self.current,
                "absolute": self.absolute, "relative": self.relative}

    def format(self) -> str:
        rel = self.relative
        rel_text = f"{rel * 100.0:+.1f}%" if rel is not None else "n/a"
        if self.family == "time":
            return (f"{self.name}: {_fmt_seconds(self.baseline)} -> "
                    f"{_fmt_seconds(self.current)} ({rel_text})")
        return (f"{self.name}: {self.baseline:g} -> {self.current:g} "
                f"({rel_text})")


@dataclass
class RecordDiff:
    """Everything that differs (and could differ) between two records."""

    baseline_summary: dict
    current_summary: dict
    deltas: list[Delta] = field(default_factory=list)
    #: Namespaced names present only in the current record.
    added: list[str] = field(default_factory=list)
    #: Namespaced names present only in the baseline record.
    removed: list[str] = field(default_factory=list)

    # -------------------------------------------------------------- queries
    def get(self, name: str) -> Delta | None:
        """The delta of one namespaced metric (None when not compared)."""
        for delta in self.deltas:
            if delta.name == name:
                return delta
        return None

    def by_family(self, family: str) -> list[Delta]:
        """Every delta of one family."""
        return [delta for delta in self.deltas if delta.family == family]

    def changed(self, family: str | None = None) -> list[Delta]:
        """Deltas whose values differ (optionally restricted to a family)."""
        return [delta for delta in self.deltas if delta.changed
                and (family is None or delta.family == family)]

    @property
    def structurally_identical(self) -> bool:
        """No phases/metrics/benchmarks appeared or vanished."""
        return not self.added and not self.removed

    def to_json(self) -> dict:
        return {
            "baseline": dict(self.baseline_summary),
            "current": dict(self.current_summary),
            "deltas": [delta.to_json() for delta in self.deltas],
            "added": list(self.added),
            "removed": list(self.removed),
        }

    # ------------------------------------------------------------ rendering
    def format_table(self, limit: int = 40) -> str:
        """Human-readable comparison in the ``profile_summary`` table style.

        Always leads with the headline wall-time and Newton-iteration
        deltas, then tabulates every changed metric sorted by relative
        magnitude (truncation is reported, never silent), then the
        structural changes.
        """
        lines = [
            f"baseline: {_describe(self.baseline_summary)}",
            f"current:  {_describe(self.current_summary)}",
        ]
        if self.baseline_summary.get("label") != \
                self.current_summary.get("label"):
            lines.append("WARNING: records have different labels -- the "
                         "runs may not be comparable")
        for name in ("wall_s", "conv.newton_iterations"):
            delta = self.get(name)
            if delta is not None:
                lines.append(delta.format())
        rows = sorted(self.changed(), key=_delta_magnitude, reverse=True)
        if rows:
            shown = rows[:limit]
            name_width = max(len(delta.name) for delta in shown)
            name_width = max(name_width, len("metric"))
            header = (f"{'metric':<{name_width}}  {'family':>7}  "
                      f"{'baseline':>12}  {'current':>12}  {'delta':>12}  "
                      f"{'rel':>8}")
            lines += ["", header, "-" * len(header)]
            for delta in shown:
                lines.append(
                    f"{delta.name:<{name_width}}  {delta.family:>7}  "
                    f"{_fmt_value(delta.baseline, delta.family):>12}  "
                    f"{_fmt_value(delta.current, delta.family):>12}  "
                    f"{_fmt_signed(delta.absolute, delta.family):>12}  "
                    f"{_fmt_rel(delta.relative):>8}")
            if len(rows) > limit:
                lines.append(f"... {len(rows) - limit} changed metrics "
                             f"omitted (of {len(rows)}; raise limit= to "
                             "see them)")
        else:
            lines += ["", f"no changed metrics "
                          f"({len(self.deltas)} compared)"]
        if self.added:
            lines.append(f"added ({len(self.added)}): "
                         + ", ".join(sorted(self.added)))
        if self.removed:
            lines.append(f"removed ({len(self.removed)}): "
                         + ", ".join(sorted(self.removed)))
        return "\n".join(lines)


def _delta_magnitude(delta: Delta) -> float:
    rel = delta.relative
    return abs(rel) if rel is not None else float("inf")


def _describe(summary: Mapping) -> str:
    parts = [str(summary.get("id", "?")),
             f"label={summary.get('label', '?')}"]
    if summary.get("git_sha"):
        parts.append(f"git={summary['git_sha']}")
    if summary.get("created_utc"):
        parts.append(str(summary["created_utc"]))
    if summary.get("host"):
        parts.append(str(summary["host"]))
    return "  ".join(parts)


def _fmt_value(value: float, family: str) -> str:
    if family == "time":
        return _fmt_seconds(value)
    return f"{value:g}"


def _fmt_signed(value: float, family: str) -> str:
    sign = "+" if value >= 0 else "-"
    if family == "time":
        return sign + _fmt_seconds(abs(value))
    return f"{value:+g}"


def _fmt_rel(relative: float | None) -> str:
    if relative is None:
        return "n/a"
    return f"{relative * 100.0:+.1f}%"


# ----------------------------------------------------------------- building
def _compare(deltas: list[Delta], added: list[str], removed: list[str],
             prefix: str, baseline: Mapping, current: Mapping,
             family_of) -> None:
    """Fold one mapping pair into deltas + structural lists."""
    for name in sorted(set(baseline) | set(current)):
        qualified = f"{prefix}.{name}"
        if name not in current:
            removed.append(qualified)
        elif name not in baseline:
            added.append(qualified)
        else:
            deltas.append(Delta(qualified, family_of(name, baseline[name]),
                                float(baseline[name]), float(current[name])))


def _histogram_mean(digest: Mapping) -> float:
    count = digest.get("count", 0)
    return digest.get("sum", 0.0) / count if count else 0.0


def _convergence_family(name: str, value) -> str:
    # Integer digests (iteration/step/failure totals) are deterministic
    # counts; float digests (rates, step sizes) are state.
    return "counter" if isinstance(value, int) and not isinstance(value, bool) \
        else "gauge"


def diff(baseline, current) -> RecordDiff:
    """Structured comparison of two run records (``baseline`` vs ``current``).

    Span totals contribute a count (counter family) and total/self times
    (time family) per span name; registry counters compare exactly, gauges
    as state, histograms by observation count *and* digest mean; the
    convergence summary splits into integer counts and float state; each
    benchmark contributes its call duration and, when pytest-benchmark
    stats were captured, its mean round time.
    """
    out = RecordDiff(baseline.summary(), current.summary())
    deltas, added, removed = out.deltas, out.added, out.removed

    deltas.append(Delta("wall_s", "time", baseline.wall_s, current.wall_s))

    for name in sorted(set(baseline.span_totals) | set(current.span_totals)):
        if name not in current.span_totals:
            removed.append(f"span.{name}")
            continue
        if name not in baseline.span_totals:
            added.append(f"span.{name}")
            continue
        b, c = baseline.span_totals[name], current.span_totals[name]
        deltas.append(Delta(f"span.{name}.count", "counter",
                            float(b["count"]), float(c["count"])))
        deltas.append(Delta(f"span.{name}.total_s", "time",
                            float(b["total_s"]), float(c["total_s"])))
        deltas.append(Delta(f"span.{name}.self_s", "time",
                            float(b["self_s"]), float(c["self_s"])))

    _compare(deltas, added, removed, "counter",
             baseline.metrics["counters"], current.metrics["counters"],
             lambda name, value: "counter")
    _compare(deltas, added, removed, "gauge",
             baseline.metrics["gauges"], current.metrics["gauges"],
             lambda name, value: "gauge")

    b_hists = baseline.metrics["histograms"]
    c_hists = current.metrics["histograms"]
    for name in sorted(set(b_hists) | set(c_hists)):
        if name not in c_hists:
            removed.append(f"hist.{name}")
            continue
        if name not in b_hists:
            added.append(f"hist.{name}")
            continue
        b, c = b_hists[name], c_hists[name]
        deltas.append(Delta(f"hist.{name}.count", "counter",
                            float(b.get("count", 0)), float(c.get("count", 0))))
        mean_family = "time" if name.endswith("_s") else "gauge"
        deltas.append(Delta(f"hist.{name}.mean", mean_family,
                            _histogram_mean(b), _histogram_mean(c)))

    if baseline.convergence is not None or current.convergence is not None:
        _compare(deltas, added, removed, "conv",
                 baseline.convergence or {}, current.convergence or {},
                 _convergence_family)

    for name in sorted(set(baseline.benchmarks) | set(current.benchmarks)):
        if name not in current.benchmarks:
            removed.append(f"bench.{name}")
            continue
        if name not in baseline.benchmarks:
            added.append(f"bench.{name}")
            continue
        b, c = baseline.benchmarks[name], current.benchmarks[name]
        deltas.append(Delta(f"bench.{name}.duration_s", "time",
                            float(b.get("duration_s", 0.0)),
                            float(c.get("duration_s", 0.0))))
        b_stats, c_stats = b.get("benchmark"), c.get("benchmark")
        if b_stats and c_stats:
            deltas.append(Delta(f"bench.{name}.mean_s", "time",
                                float(b_stats.get("mean_s", 0.0)),
                                float(c_stats.get("mean_s", 0.0))))
    return out


# --------------------------------------------------------------- regressions
@dataclass
class RegressionPolicy:
    """Per-metric-family thresholds turning a diff into a verdict.

    ``time`` metrics regress when the current value exceeds the baseline by
    more than ``max(time_abs_floor_s, time_rel_tol * baseline)`` -- the
    relative threshold absorbs machine noise, the absolute floor keeps
    microsecond-scale spans from tripping a 25 % check on nothing.
    ``counter`` metrics are exact by default (``counter_rel_tol = 0``): the
    solver work a run dispatches is deterministic, so *any* drift in e.g.
    Newton iteration counts is a real behaviour change.  ``gauge`` metrics
    are informational and only checked when ``check_gauges`` is set.
    Structural changes (phases or benchmarks appearing/vanishing) fail the
    verdict only under ``fail_on_structural``, with one exception: a
    registry counter the baseline pins and the run lacks always fails, so
    a gate whose counter went unrecorded fails closed.
    """

    time_rel_tol: float = 0.25
    time_abs_floor_s: float = 5e-3
    counter_rel_tol: float = 0.0
    gauge_rel_tol: float = 0.25
    check_gauges: bool = False
    fail_on_structural: bool = False

    def judge(self, delta: Delta) -> str | None:
        """The failure reason for one delta, or None when it passes."""
        if delta.family == "time":
            allowed = max(self.time_abs_floor_s,
                          self.time_rel_tol * abs(delta.baseline))
            if delta.absolute > allowed:
                return (f"slower by {_fmt_seconds(delta.absolute)} "
                        f"(allowed {_fmt_seconds(allowed)})")
            return None
        if delta.family == "counter":
            allowed = self.counter_rel_tol * abs(delta.baseline)
            if abs(delta.absolute) > allowed:
                return (f"count drifted by {delta.absolute:+g} "
                        f"(allowed ±{allowed:g})")
            return None
        if delta.family == "gauge":
            if not self.check_gauges:
                return None
            allowed = self.gauge_rel_tol * abs(delta.baseline)
            if abs(delta.absolute) > allowed:
                return (f"state drifted by {delta.absolute:+g} "
                        f"(allowed ±{allowed:g})")
            return None
        raise ValueError(f"unknown metric family {delta.family!r}")

    def to_json(self) -> dict:
        return {"time_rel_tol": self.time_rel_tol,
                "time_abs_floor_s": self.time_abs_floor_s,
                "counter_rel_tol": self.counter_rel_tol,
                "gauge_rel_tol": self.gauge_rel_tol,
                "check_gauges": self.check_gauges,
                "fail_on_structural": self.fail_on_structural}


@dataclass
class RegressionVerdict:
    """Machine-readable outcome of one baseline check."""

    #: ``"ok"`` or ``"regressed"``.
    status: str
    #: One entry per failed metric: the delta payload plus ``reason``.
    failures: list[dict]
    #: Structural changes that contributed to the verdict (may be empty).
    structural: list[str]
    #: How many deltas the policy examined.
    checked: int
    policy: RegressionPolicy
    diff: RecordDiff

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def families(self) -> list[str]:
        """The metric families that regressed, sorted."""
        return sorted({failure["family"] for failure in self.failures})

    def to_json(self) -> dict:
        return {"status": self.status, "checked": self.checked,
                "families": self.families,
                "failures": [dict(failure) for failure in self.failures],
                "structural": list(self.structural),
                "policy": self.policy.to_json()}

    def format(self) -> str:
        if self.ok:
            return (f"verdict: ok ({self.checked} metrics within policy, "
                    f"baseline {self.diff.baseline_summary.get('id', '?')})")
        lines = [f"verdict: regressed -- "
                 f"{len(self.failures)} metric(s) in "
                 f"famil{'ies' if len(self.families) != 1 else 'y'} "
                 f"{', '.join(self.families)} "
                 f"({self.checked} checked)"]
        for failure in self.failures:
            lines.append(f"  [{failure['family']}] {failure['name']}: "
                         f"{failure['reason']}")
        for name in self.structural:
            lines.append(f"  [structural] {name}")
        return "\n".join(lines)


def check_regressions(record, baseline,
                      policy: RegressionPolicy | None = None
                      ) -> RegressionVerdict:
    """Judge ``record`` against ``baseline`` under ``policy``.

    Returns a :class:`RegressionVerdict`; ``verdict.ok`` is the gate CI
    keys off (the CLI ``check`` subcommand exits non-zero when it is not).
    """
    policy = policy if policy is not None else RegressionPolicy()
    delta_view = diff(baseline, record)
    failures = []
    checked = 0
    for delta in delta_view.deltas:
        if delta.family == "gauge" and not policy.check_gauges:
            continue
        checked += 1
        reason = policy.judge(delta)
        if reason is not None:
            failures.append({**delta.to_json(), "reason": reason})
    pinned = baseline.metrics["counters"]
    for name in delta_view.removed:
        if name.startswith("counter."):
            checked += 1
            failures.append({
                "name": name, "family": "counter",
                "baseline": float(pinned[name[len("counter."):]]),
                "current": None, "absolute": None, "relative": None,
                "reason": "missing from the run (the baseline pins it)"})
    structural = []
    if policy.fail_on_structural and not delta_view.structurally_identical:
        structural = [f"added {name}" for name in delta_view.added] \
            + [f"removed {name}" for name in delta_view.removed]
    status = "regressed" if failures or structural else "ok"
    return RegressionVerdict(status, failures, structural, checked,
                             policy, delta_view)
