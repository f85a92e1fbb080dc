"""repro.telemetry -- hierarchical tracing, metrics and convergence
diagnostics across the whole stack.

The subsystem has three moving parts:

* **Spans** (:func:`span`, :func:`detail_span`): timed, attributed, nested
  regions of work collected per-thread while a :func:`session` is active.
  With no session active the factories return a shared no-op handle, so
  permanently-instrumented hot loops pay one thread-local check.
* **Metrics registry** (:mod:`repro.telemetry.registry`): process-wide
  counters/gauges/histograms (``linalg.factorizations``,
  ``mna.batch.lane_stamps``, ...), with delta/merge plumbing for
  cross-process aggregation: every campaign chunk ships one registry
  delta, merged into ``CampaignResult.metrics``.
* **Convergence diagnostics** (:mod:`repro.telemetry.convergence`): Newton
  residual trajectories, transient step histories and optimizer iterate
  traces, attached to result objects behind ``SimulationOptions.telemetry``.

Typical use::

    from repro import telemetry

    with telemetry.session(mode="full") as s:
        result = TransientAnalysis(t_stop=1e-3).run(circuit)
    s.report.write_chrome_trace("run.trace.json")
    print(s.report.profile_summary())

Analyses do this internally when ``SimulationOptions(telemetry="full")`` is
set and attach the report as ``result.telemetry``.
"""

from . import forensics, health, ledger, progress, registry
from .context import (MODES, Span, TelemetryReport, TelemetrySession,
                      aggregate_spans, current, current_path, detail_enabled,
                      detail_span, enabled, merge_span_totals, session, span)
from .convergence import (ConvergenceDiagnostics, IterateRecord, NewtonTrace,
                          StepRecord)
from .export import (chrome_trace_events, profile_summary, report_to_json,
                     spans_to_json, write_chrome_trace)
from .forensics import FailureReport, ReproductionBundle
from .health import ConditionRecord, NumericalHealthWarning
from .progress import (CallbackReporter, LoggingProgressReporter,
                       ProgressEvent, ProgressReporter, ProgressTracker,
                       StallWarning, reporting, tracker)

__all__ = [
    "registry", "health", "forensics", "progress", "ledger",
    "Span", "TelemetrySession", "TelemetryReport", "MODES",
    "span", "detail_span", "session", "enabled", "detail_enabled", "current",
    "current_path", "aggregate_spans", "merge_span_totals",
    "ConvergenceDiagnostics", "NewtonTrace", "StepRecord", "IterateRecord",
    "chrome_trace_events", "write_chrome_trace", "spans_to_json",
    "report_to_json", "profile_summary",
    "ConditionRecord", "NumericalHealthWarning",
    "FailureReport", "ReproductionBundle",
    "ProgressEvent", "ProgressReporter", "CallbackReporter",
    "LoggingProgressReporter", "ProgressTracker", "StallWarning",
    "reporting", "tracker",
]
