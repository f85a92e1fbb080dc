"""Exporters: structured JSON, Chrome/Perfetto traces, profile tables.

Three ways out of a :class:`~repro.telemetry.TelemetryReport`:

* :func:`report_to_json` / :func:`spans_to_json` -- plain dicts for
  machine consumption (the structure mirrors the in-memory objects),
* :func:`chrome_trace_events` / :func:`write_chrome_trace` -- the Chrome
  ``trace_event`` JSON-array format, loadable in ``ui.perfetto.dev`` or
  ``chrome://tracing`` for flame-graph viewing,
* :func:`profile_summary` -- a fixed-width per-span-name table for humans.
"""

from __future__ import annotations

import json
from typing import Iterable

__all__ = ["spans_to_json", "report_to_json", "chrome_trace_events",
           "write_chrome_trace", "profile_summary"]


# ----------------------------------------------------------- structured JSON
def spans_to_json(spans: Iterable) -> list[dict]:
    """Nested dict form of span trees (durations in seconds)."""
    out = []
    for root in spans:
        out.append({
            "name": root.name,
            "duration_s": root.duration_s,
            "self_s": root.self_s,
            "attrs": dict(root.attrs),
            "children": spans_to_json(root.children),
        })
    return out


def report_to_json(report) -> dict:
    """JSON-serializable dict of one telemetry report."""
    out = {
        "mode": report.mode,
        "wall_s": report.wall_s,
        "span_totals": {name: dict(entry)
                        for name, entry in report.span_totals.items()},
        "metrics": report.metrics,
        "spans": spans_to_json(report.spans),
    }
    if report.convergence is not None:
        out["convergence"] = report.convergence.to_json()
    return out


# ------------------------------------------------------- Chrome trace_event
def chrome_trace_events(spans: Iterable, pid: int = 1, tid: int = 1) -> list[dict]:
    """Chrome ``trace_event`` list (complete ``"X"`` events, µs units).

    Spans carry only durations, so event timestamps are reconstructed by
    laying each root out after the previous one and packing children at
    their parent's start -- the nesting (the part a flame graph shows) is
    exact; only inter-span gaps are elided.
    """
    events = []
    cursor = 0.0  # µs

    def emit(node, start_us: float) -> None:
        duration_us = node.duration_s * 1e6
        event = {
            "name": node.name,
            "ph": "X",
            "ts": round(start_us, 3),
            "dur": round(duration_us, 3),
            "pid": pid,
            "tid": tid,
            "cat": node.name.split(".", 1)[0] or "span",
        }
        if node.attrs:
            event["args"] = {key: value for key, value in node.attrs.items()
                             if isinstance(value, (int, float, str, bool))}
        events.append(event)
        child_cursor = start_us
        for child in node.children:
            emit(child, child_cursor)
            child_cursor += child.duration_s * 1e6

    for root in spans:
        emit(root, cursor)
        cursor += root.duration_s * 1e6

    return events


def write_chrome_trace(path, spans: Iterable, pid: int = 1, tid: int = 1) -> str:
    """Write spans as a Perfetto-loadable ``trace_event`` JSON file."""
    path = str(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": chrome_trace_events(spans, pid=pid, tid=tid),
                   "displayTimeUnit": "ms"}, handle)
    return path


# ----------------------------------------------------------- profile summary
#: Column each ``profile_summary(sort=...)`` key orders by (descending).
_PROFILE_SORT_KEYS = {"self": "self_s", "total": "total_s", "count": "count"}


def profile_summary(report, limit: int = 20, sort: str = "self") -> str:
    """Fixed-width table of per-span-name totals.

    ``sort`` orders the rows descending by ``"self"`` (exclusive time, the
    default), ``"total"`` (inclusive time) or ``"count"``.  Only the top
    ``limit`` rows are printed; a truncated table says how many rows were
    omitted so a clipped profile can never be mistaken for a complete one.
    The ``self %`` / ``total %`` columns are shares of the report's wall
    time (inclusive shares exceed 100% summed -- parents contain children).

    Histogram metrics collected by the report (e.g. the batched-execution
    ``batch.size`` / ``batch.solve_s`` digests riding campaign telemetry
    payloads) are appended as their own count/mean/min/max section, so a
    campaign profile shows its batching behaviour without digging into the
    raw ``metrics`` dict.
    """
    if sort not in _PROFILE_SORT_KEYS:
        raise ValueError(f"unknown sort key {sort!r} "
                         f"(use one of {tuple(_PROFILE_SORT_KEYS)})")
    column = _PROFILE_SORT_KEYS[sort]
    ordered = sorted(report.span_totals.items(),
                     key=lambda item: item[1][column], reverse=True)
    rows = ordered[:limit]
    omitted = len(ordered) - len(rows)
    wall = report.wall_s or sum(entry["self_s"]
                                for _, entry in report.span_totals.items())
    name_width = max([len(name) for name, _ in rows] + [len("span")])
    header = (f"{'span':<{name_width}}  {'count':>7}  {'total':>10}  "
              f"{'total %':>7}  {'self':>10}  {'self %':>7}")
    lines = [header, "-" * len(header)]
    for name, entry in rows:
        self_share = (entry["self_s"] / wall * 100.0) if wall else 0.0
        total_share = (entry["total_s"] / wall * 100.0) if wall else 0.0
        lines.append(
            f"{name:<{name_width}}  {entry['count']:>7d}  "
            f"{_fmt_seconds(entry['total_s']):>10}  {total_share:>6.1f}%  "
            f"{_fmt_seconds(entry['self_s']):>10}  {self_share:>6.1f}%")
    if omitted:
        lines.append(f"... {omitted} rows omitted (of {len(ordered)}; "
                     f"raise limit= to see them)")
    metrics = getattr(report, "metrics", None) or {}
    histograms = metrics.get("histograms", {})
    if histograms:
        lines.extend(_histogram_lines(histograms))
    counters = metrics.get("counters", {})
    if counters:
        lines.extend(_counter_lines(counters))
    lines.append(f"wall time: {_fmt_seconds(wall)}")
    return "\n".join(lines)


def _counter_lines(counters: dict) -> list[str]:
    """The counter section appended to a profile table.

    Counters are always-on registry metrics (``linalg.factorizations``,
    ``hdl.compile.count``/``hdl.compile.cache_hits``, ...), so the caching
    behaviour of a run reads straight off its profile.
    """
    name_width = max([len(name) for name in counters] + [len("counter")])
    lines = ["", f"{'counter':<{name_width}}  {'value':>10}",
             "-" * (name_width + 12)]
    for name in sorted(counters):
        lines.append(f"{name:<{name_width}}  {counters[name]:>10g}")
    return lines


def _histogram_lines(histograms: dict) -> list[str]:
    """The histogram-digest section appended to a profile table."""
    name_width = max([len(name) for name in histograms] + [len("histogram")])
    header = (f"{'histogram':<{name_width}}  {'count':>7}  {'mean':>10}  "
              f"{'min':>10}  {'max':>10}")
    lines = ["", header, "-" * len(header)]

    def fmt(name: str, value: float | None) -> str:
        # Durations carry the _s suffix by convention; everything else
        # (batch sizes, iteration counts) prints as a plain number.  A
        # window that could not know its extremes prints "-" for them.
        if value is None:
            return "-"
        return _fmt_seconds(value) if name.endswith("_s") else f"{value:g}"

    for name in sorted(histograms):
        digest = histograms[name]
        count = digest.get("count", 0)
        mean = digest.get("sum", 0.0) / count if count else 0.0
        lines.append(
            f"{name:<{name_width}}  {int(count):>7d}  {fmt(name, mean):>10}  "
            f"{fmt(name, digest.get('min')):>10}  "
            f"{fmt(name, digest.get('max')):>10}")
    return lines


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.3f} s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f} ms"
    return f"{value * 1e6:.1f} us"
