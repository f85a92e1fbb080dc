"""Hierarchical spans and collection sessions.

A **span** is one timed region of work with a name, typed attributes and
children -- ``with span("transient.step") as s: s.set("newton_iters", k)``.
Spans nest through a thread-local stack: a span opened while another is
open becomes its child, so a whole analysis run produces a tree whose
leaves are individual assemblies/factorizations and whose root is the run.

A **session** is the unit of collection: spans are only *recorded* while at
least one session is active on the current thread.  With no session active,
:func:`span` returns a shared no-op handle after a single thread-local
check -- the near-zero disabled path that lets every hot loop in the stack
stay instrumented unconditionally.  Sessions nest; completed root spans
belong to the innermost session, and when an inner session closes its
per-name aggregate totals fold into the enclosing one so an outer profile
still accounts for the work.

Cross-process use: a session constructed with ``keep_spans=False`` retains
only the per-name aggregates (count / total / self time) instead of the
span trees and takes no registry delta -- the form campaign pool workers
ship back with result chunks, next to the chunk's own metrics delta.
"""

from __future__ import annotations

import threading
import time
from typing import Iterator, Mapping

from . import registry

__all__ = ["Span", "TelemetrySession", "TelemetryReport", "span",
           "detail_span", "session", "enabled", "detail_enabled", "current",
           "current_path", "MODES", "aggregate_spans", "merge_span_totals"]

#: Collection modes: ``"summary"`` keeps coarse spans and convergence
#: digests; ``"full"`` additionally records fine-grained (per-iteration /
#: per-point) detail spans.
MODES = ("summary", "full")

_perf_counter = time.perf_counter


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[Span] = []
        self.sessions: list[TelemetrySession] = []


_state = _ThreadState()


class Span:
    """One timed, attributed region of work in the span tree."""

    __slots__ = ("name", "t0", "duration_s", "attrs", "children")

    def __init__(self, name: str, attrs: dict | None = None) -> None:
        self.name = name
        self.attrs: dict = attrs or {}
        self.children: list[Span] = []
        self.duration_s = 0.0
        self.t0 = 0.0

    # ------------------------------------------------------------- attributes
    def set(self, key: str, value) -> None:
        """Attach one typed attribute to this span."""
        self.attrs[key] = value

    def bump(self, key: str, amount: float = 1.0) -> None:
        """Accumulate into a numeric attribute (created at zero)."""
        self.attrs[key] = self.attrs.get(key, 0) + amount

    def annotate(self, **attrs) -> None:
        """Attach several attributes at once."""
        self.attrs.update(attrs)

    # ------------------------------------------------------------ aggregation
    @property
    def self_s(self) -> float:
        """Wall time not covered by child spans."""
        return max(0.0, self.duration_s
                   - sum(child.duration_s for child in self.children))

    def walk(self) -> Iterator[tuple["Span", int]]:
        """Yield ``(span, depth)`` over the subtree, pre-order."""
        pending = [(self, 0)]
        while pending:
            node, depth = pending.pop()
            yield node, depth
            for child in reversed(node.children):
                pending.append((child, depth + 1))

    # -------------------------------------------------------- context manager
    def __enter__(self) -> "Span":
        _state.stack.append(self)
        self.t0 = _perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = _perf_counter() - self.t0
        if exc_type is not None:
            # Exception safety: the span still closes, records what went
            # wrong, and never swallows the exception.
            self.attrs.setdefault("error", exc_type.__name__)
        stack = _state.stack
        # Unwind to this span even if an exception skipped inner __exit__s.
        while stack:
            top = stack.pop()
            if top is self:
                break
        if stack:
            stack[-1].children.append(self)
        elif _state.sessions:
            _state.sessions[-1]._add_root(self)
        return False

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, {self.duration_s * 1e3:.3f} ms, "
                f"{len(self.children)} children)")


class _NullSpan:
    """Shared do-nothing span handle returned while telemetry is disabled."""

    __slots__ = ()
    name = ""
    duration_s = 0.0
    self_s = 0.0
    attrs: dict = {}
    children: list = []

    def set(self, key: str, value) -> None:
        pass

    def bump(self, key: str, amount: float = 1.0) -> None:
        pass

    def annotate(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


# ------------------------------------------------------------------- factory
def span(name: str, **attrs):
    """Open a span (records only while a session is active on this thread)."""
    if not _state.sessions:
        return _NULL_SPAN
    return Span(name, attrs or None)


def detail_span(name: str, **attrs):
    """Open a fine-grained span, recorded only in ``"full"`` mode sessions."""
    sessions = _state.sessions
    if not sessions or sessions[-1].mode != "full":
        return _NULL_SPAN
    return Span(name, attrs or None)


def enabled() -> bool:
    """Whether spans/timings are being collected on this thread."""
    return bool(_state.sessions)


def detail_enabled() -> bool:
    """Whether fine-grained (``"full"`` mode) collection is active."""
    sessions = _state.sessions
    return bool(sessions) and sessions[-1].mode == "full"


def current():
    """The innermost open span (a no-op handle when none is open)."""
    stack = _state.stack
    return stack[-1] if stack else _NULL_SPAN


def current_path(separator: str = "/") -> str:
    """The open span stack as a path (``"tran.run/transient.step"``).

    Empty string when no span is open -- the hook the logging bridge uses to
    correlate log records with the span tree without holding references.
    """
    stack = _state.stack
    if not stack:
        return ""
    return separator.join(node.name for node in stack)


# -------------------------------------------------------------- span totals
def aggregate_spans(spans, totals: dict | None = None) -> dict:
    """Per-name ``{count, total_s, self_s}`` totals over span trees.

    ``total_s`` sums every span of the name (children included in their
    parents' totals -- the flame-graph convention), ``self_s`` the time not
    covered by children; merging the two views is what makes a profile of
    thousands of spans shippable across a process boundary.
    """
    totals = {} if totals is None else totals
    for root in spans:
        for node, _ in root.walk():
            entry = totals.get(node.name)
            if entry is None:
                totals[node.name] = {"count": 1, "total_s": node.duration_s,
                                     "self_s": node.self_s}
            else:
                entry["count"] += 1
                entry["total_s"] += node.duration_s
                entry["self_s"] += node.self_s
    return totals


def merge_span_totals(total: dict, part: Mapping) -> dict:
    """Accumulate one span-totals mapping into another, in place."""
    for name, entry in part.items():
        into = total.get(name)
        if into is None:
            total[name] = dict(entry)
        else:
            into["count"] += entry["count"]
            into["total_s"] += entry["total_s"]
            into["self_s"] += entry["self_s"]
    return total


# ------------------------------------------------------------------ sessions
class TelemetryReport:
    """What one session collected: span trees, totals, metric deltas.

    ``spans`` holds the completed root spans and ``metrics`` the registry
    delta over the session (both empty for aggregate-only sessions),
    ``span_totals`` the per-name aggregates and ``convergence`` the
    analysis-level convergence diagnostics when the producing analysis
    attached them.
    """

    def __init__(self, mode: str, spans: list[Span], span_totals: dict,
                 metrics: dict, wall_s: float, convergence=None) -> None:
        self.mode = mode
        self.spans = spans
        self.span_totals = span_totals
        self.metrics = metrics
        self.wall_s = wall_s
        self.convergence = convergence

    # Exporters live in repro.telemetry.export; thin forwarding keeps the
    # report the single object callers interact with.
    def chrome_trace(self) -> list[dict]:
        """The Chrome/Perfetto ``trace_event`` list of the span trees."""
        from .export import chrome_trace_events

        return chrome_trace_events(self.spans)

    def write_chrome_trace(self, path) -> str:
        """Write a Perfetto-loadable ``trace_event`` JSON file."""
        from .export import write_chrome_trace

        return write_chrome_trace(path, self.spans)

    def to_json(self) -> dict:
        """JSON-serializable dict of everything the session collected."""
        from .export import report_to_json

        return report_to_json(self)

    def profile_summary(self, limit: int = 20, sort: str = "self") -> str:
        """Human-readable per-span-name profile table.

        ``sort`` is ``"self"`` (default), ``"total"`` or ``"count"``; a
        table truncated by ``limit`` reports how many rows were omitted.
        """
        from .export import profile_summary

        return profile_summary(self, limit=limit, sort=sort)

    def aggregate_payload(self) -> dict:
        """Picklable cross-process payload: span totals + wall time."""
        return {"span_totals": self.span_totals, "wall_s": self.wall_s}

    def __repr__(self) -> str:
        return (f"TelemetryReport(mode={self.mode!r}, {len(self.spans)} root "
                f"spans, {len(self.span_totals)} span names, "
                f"{self.wall_s * 1e3:.1f} ms)")


class TelemetrySession:
    """Scoped span collection on the current thread.

    Parameters
    ----------
    mode:
        ``"summary"`` or ``"full"`` (enables :func:`detail_span`).
    keep_spans:
        When False, completed root spans are folded into the per-name
        aggregates and dropped immediately -- bounded memory for arbitrarily
        long campaigns, at the cost of no flame-graph trees -- and the
        session takes no registry snapshot (``report.metrics`` is empty):
        the caller owns the metrics delta, as a campaign chunk does.
    """

    def __init__(self, mode: str = "full", keep_spans: bool = True) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown telemetry mode {mode!r} (use one of {MODES})")
        self.mode = mode
        self.keep_spans = bool(keep_spans)
        self.report: TelemetryReport | None = None
        self._spans: list[Span] = []
        self._span_totals: dict = {}
        self._metrics_before: dict | None = None
        self._t0 = 0.0

    def _add_root(self, root: Span) -> None:
        if self.keep_spans:
            self._spans.append(root)
        else:
            aggregate_spans((root,), self._span_totals)

    def __enter__(self) -> "TelemetrySession":
        if self.keep_spans:
            self._metrics_before = registry.snapshot()
        self._t0 = _perf_counter()
        _state.sessions.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall_s = _perf_counter() - self._t0
        sessions = _state.sessions
        if self in sessions:
            sessions.remove(self)
        if self.keep_spans:
            metrics = registry.delta(self._metrics_before)
            totals = aggregate_spans(self._spans, dict(self._span_totals))
        else:
            metrics = {}
            totals = dict(self._span_totals)
        self.report = TelemetryReport(self.mode, list(self._spans), totals,
                                      metrics, wall_s)
        if sessions:
            # Fold this session's work into the enclosing profile so outer
            # observers (e.g. a campaign chunk session around per-analysis
            # sessions) still account for every span.
            merge_span_totals(sessions[-1]._span_totals, totals)
        return False


def session(mode: str = "full", keep_spans: bool = True) -> TelemetrySession:
    """Open a collection session (``with telemetry.session() as s: ...``)."""
    return TelemetrySession(mode, keep_spans=keep_spans)
