"""Failure flight recorder: structured reports and replayable bundles.

When a solve diverges three questions matter: *what* failed (which equation,
how badly, with what conditioning), *where* the trajectory was last healthy,
and *how to reproduce it* away from the 10k-point campaign that surfaced it.
This module answers all three:

- :class:`FailureReport` -- the structured post-mortem attached to
  :class:`~repro.errors.ConvergenceError` / ``SingularMatrixError`` (and
  FEM/optim failures) when ``SimulationOptions.forensics`` is on: residual
  trajectory, offending unknown names, condition estimate, last-good state,
  recent step/LTE history, the full option set.
- a process-wide ring buffer of recent reports (:func:`record`,
  :func:`last_failure`, :func:`recent_failures`) so campaign drivers can
  collect post-mortems even when a worker swallowed the exception.
- :class:`ReproductionBundle` -- a self-contained JSON dump (circuit
  fingerprint + factory reference, options, analysis arguments, the failure
  report) that :func:`replay` re-runs deterministically: load the bundle,
  rebuild the circuit from its factory, re-run the failing analysis and
  check the same failure reappears.

Everything here is import-light (stdlib + numpy + sibling telemetry
modules); the circuit/analysis layer is imported lazily inside
:func:`replay` only, keeping ``repro.telemetry`` free of import cycles.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import registry
from . import health as _health

__all__ = ["FailureReport", "ReproductionBundle", "ReplayResult",
           "record", "last_failure", "recent_failures", "clear",
           "circuit_fingerprint", "dump_bundle", "load_bundle", "replay"]

#: Schema tag written into every bundle; bump on incompatible change.
_BUNDLE_SCHEMA = "repro-forensics-bundle/1"

#: How many reports the in-process ring buffer retains.
_RING_SIZE = 16


@dataclass
class FailureReport:
    """Structured post-mortem of one solver failure."""

    #: Failure class: ``"newton"``, ``"singular"``, ``"step_underflow"``,
    #: ``"fem"``, ``"optim"``.
    kind: str
    #: Producing analysis (``"op"``, ``"dc"``, ``"tran"``, ``"ac"``, ...).
    analysis: str
    message: str
    error_type: str = ""
    #: Simulated time of the failure (transient), sweep value (DC), or None.
    time: float | None = None
    iterations: int | None = None
    residual_norm: float | None = None
    #: Max-norm residual per Newton iteration of the failing solve.
    residual_trajectory: list = field(default_factory=list)
    #: ``[(unknown label, residual value), ...]`` worst first.
    offending: list = field(default_factory=list)
    condition_estimate: float | None = None
    #: Output of :func:`repro.telemetry.health.singular_diagnosis`.
    diagnosis: dict | None = None
    #: Last accepted solution: ``{"time": t, "values": {label: value}}``.
    last_good: dict | None = None
    #: Tail of the transient step/LTE history (dicts of StepRecord fields).
    step_history: list = field(default_factory=list)
    #: Full ``SimulationOptions`` field dict of the failing run.
    options: dict | None = None
    #: Free-form extras (system size, sweep point, parameter values, ...).
    context: dict = field(default_factory=dict)

    @property
    def offending_unknown(self) -> str | None:
        """The single most suspicious unknown name, if any was identified."""
        if self.offending:
            return str(self.offending[0][0])
        if self.diagnosis and self.diagnosis.get("suspects"):
            return str(self.diagnosis["suspects"][0])
        return None

    def summary(self) -> dict:
        """Flat picklable digest -- the form campaign rows carry."""
        return {
            "kind": self.kind,
            "analysis": self.analysis,
            "error_type": self.error_type,
            "message": self.message,
            "time": self.time,
            "iterations": self.iterations,
            "residual_norm": self.residual_norm,
            "offending_unknown": self.offending_unknown,
            "condition_estimate": self.condition_estimate,
        }

    def to_json(self) -> dict:
        """JSON-serializable dict of every field."""
        payload = dataclasses.asdict(self)
        payload["offending"] = [[str(name), float(value)]
                                for name, value in self.offending]
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "FailureReport":
        known = {f.name for f in dataclasses.fields(cls)}
        data = {key: value for key, value in payload.items() if key in known}
        data["offending"] = [(name, value)
                             for name, value in data.get("offending", [])]
        return cls(**data)

    def describe(self) -> str:
        """Multi-line human-readable rendering."""
        lines = [f"FailureReport[{self.kind}] in {self.analysis}: {self.message}"]
        if self.time is not None:
            lines.append(f"  at t={self.time:g}")
        if self.iterations is not None:
            lines.append(f"  after {self.iterations} iterations")
        if self.residual_trajectory:
            tail = ", ".join(f"{value:.3e}"
                             for value in self.residual_trajectory[-5:])
            lines.append(f"  residual trajectory (tail): {tail}")
        if self.condition_estimate is not None:
            lines.append(f"  condition estimate: {self.condition_estimate:.3e}")
        for name, value in self.offending[:5]:
            lines.append(f"  residual[{name}] = {value:.3e}")
        if self.diagnosis is not None:
            lines.append(f"  structure: {self.diagnosis.get('message', '')}")
        if self.last_good is not None:
            lines.append(f"  last good state at t={self.last_good.get('time')}")
        return "\n".join(lines)


# ------------------------------------------------------------- ring buffer
_ring: deque = deque(maxlen=_RING_SIZE)
_ring_lock = threading.Lock()


def record(report: FailureReport) -> FailureReport:
    """Retain ``report`` in the process-wide ring buffer (and count it)."""
    with _ring_lock:
        _ring.append(report)
    registry.inc("forensics.reports")
    registry.inc(f"forensics.reports.{report.kind}")
    return report


def last_failure() -> FailureReport | None:
    """The most recently recorded report, or None."""
    with _ring_lock:
        return _ring[-1] if _ring else None


def recent_failures() -> list[FailureReport]:
    """The retained reports, oldest first."""
    with _ring_lock:
        return list(_ring)


def clear() -> None:
    """Drop all retained reports (test isolation)."""
    with _ring_lock:
        _ring.clear()


# --------------------------------------------------------- capture helpers
def capture(exc, report: FailureReport) -> FailureReport:
    """Record ``report`` and attach it to ``exc`` (returns the report)."""
    record(report)
    exc.report = report
    report.error_type = report.error_type or type(exc).__name__
    return report


def state_snapshot(labels, values, time=None) -> dict:
    """A ``last_good`` dict from unknown labels and a solution vector."""
    values = np.asarray(values, dtype=float)
    return {"time": None if time is None else float(time),
            "values": {str(label): float(value)
                       for label, value in zip(labels, values)}}


# ----------------------------------------------------------------- bundles
def circuit_fingerprint(circuit) -> str:
    """Deterministic SHA-256 over the circuit's device/topology content.

    Hashes each device's class, name, scalar attributes and node hookup.
    Two circuits built by the same factory at the same parameter point hash
    identically; :func:`replay` uses this to verify the rebuilt circuit
    matches the one that failed.
    """
    digest = hashlib.sha256()
    for device in circuit:
        digest.update(type(device).__name__.encode())
        digest.update(str(getattr(device, "name", "?")).encode())
        for key, value in sorted(vars(device).items()):
            if isinstance(value, (bool, int, float, str)):
                digest.update(f"{key}={value!r};".encode())
            elif dataclasses.is_dataclass(value) and not isinstance(value, type):
                # Waveform objects (DC/Pulse/Sine, ...) carry the source
                # values; dataclass reprs are deterministic field dumps.
                digest.update(f"{key}={value!r};".encode())
            elif hasattr(value, "name") and isinstance(value.name, str):
                # Node (or node-like) attributes hash by name.
                digest.update(f"{key}=@{value.name};".encode())
    return digest.hexdigest()


def _qualified_name(obj) -> str:
    return f"{obj.__module__}:{obj.__qualname__}"


def _resolve_qualified(name: str):
    module_name, _, attr_path = name.partition(":")
    if not attr_path:
        module_name, _, attr_path = name.rpartition(".")
    target = importlib.import_module(module_name)
    for part in attr_path.split("."):
        target = getattr(target, part)
    return target


@dataclass
class ReproductionBundle:
    """Self-contained description of how to re-run one failing solve."""

    #: Analysis kind: ``"op"``, ``"dc"``, ``"tran"`` or ``"ac"``.
    analysis: str
    #: Constructor arguments beyond the circuit (sweep values, t_stop, ...).
    analysis_args: dict = field(default_factory=dict)
    #: Full ``SimulationOptions`` field dict.
    options: dict = field(default_factory=dict)
    #: ``"module:qualname"`` of the circuit factory, or None when the caller
    #: will pass a circuit to :func:`replay` directly.
    build: str | None = None
    #: Keyword arguments of the factory (the failing parameter point).
    params: dict = field(default_factory=dict)
    #: :func:`circuit_fingerprint` of the failing circuit.
    fingerprint: str | None = None
    #: ``FailureReport.to_json()`` of the original failure.
    failure: dict | None = None
    schema: str = _BUNDLE_SCHEMA

    def dump(self, path) -> str:
        path = str(path)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(dataclasses.asdict(self), handle, indent=2, default=str)
        return path

    @classmethod
    def load(cls, path) -> "ReproductionBundle":
        with open(str(path), "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        schema = payload.get("schema", "")
        if not schema.startswith("repro-forensics-bundle/"):
            raise ValueError(f"not a forensics bundle: schema={schema!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in payload.items()
                      if key in known})


def dump_bundle(path, *, analysis: str, options, analysis_args: dict | None = None,
                build=None, params: dict | None = None, circuit=None,
                report: FailureReport | None = None) -> ReproductionBundle:
    """Write a reproduction bundle for one failing analysis run.

    ``options`` may be a ``SimulationOptions`` instance or a plain dict;
    ``build`` a callable circuit factory (stored by qualified name) or the
    ``"module:qualname"`` string itself.
    """
    if dataclasses.is_dataclass(options) and not isinstance(options, type):
        options = dataclasses.asdict(options)
    if build is not None and not isinstance(build, str):
        build = _qualified_name(build)
    bundle = ReproductionBundle(
        analysis=analysis,
        analysis_args=dict(analysis_args or {}),
        options=dict(options or {}),
        build=build,
        params=dict(params or {}),
        fingerprint=circuit_fingerprint(circuit) if circuit is not None else None,
        failure=report.to_json() if report is not None else None)
    bundle.dump(path)
    registry.inc("forensics.bundles_dumped")
    return bundle


load_bundle = ReproductionBundle.load


@dataclass
class ReplayResult:
    """Outcome of re-running a reproduction bundle."""

    #: Whether the original failure reappeared (same error type and, when
    #: both runs identified one, the same offending unknown).
    reproduced: bool
    #: The exception of the replay run (None if it unexpectedly succeeded).
    error: Exception | None
    #: The replay's own FailureReport, when one was captured.
    report: FailureReport | None
    #: The analysis result, when the replay unexpectedly succeeded.
    result: object = None
    #: True when the rebuilt circuit hashed to the bundled fingerprint.
    fingerprint_match: bool | None = None


def replay(bundle, build=None, circuit=None) -> ReplayResult:
    """Re-run a dumped failure and check it reproduces.

    ``bundle`` is a :class:`ReproductionBundle` or a path to one.  The
    circuit is rebuilt from ``circuit`` (given directly), ``build`` (a
    factory called with the bundled parameter point), or the factory
    recorded in the bundle by qualified name -- in that order.  A bundle
    whose options name a field :class:`SimulationOptions` no longer has
    (dumped by an older version) raises :class:`~repro.errors.AnalysisError`
    naming those fields.
    """
    if not isinstance(bundle, ReproductionBundle):
        bundle = ReproductionBundle.load(bundle)
    from ..circuit.analysis.ac import ACAnalysis
    from ..circuit.analysis.dcsweep import DCSweepAnalysis
    from ..circuit.analysis.op import OperatingPointAnalysis
    from ..circuit.analysis.options import SimulationOptions
    from ..circuit.analysis.transient import TransientAnalysis
    from ..errors import AnalysisError, ReproError

    unknown = sorted(set(bundle.options)
                     - {f.name for f in dataclasses.fields(SimulationOptions)})
    if unknown:
        raise AnalysisError(
            f"bundle options name unknown SimulationOptions fields {unknown} "
            "(dumped by an older version?)")
    if circuit is None:
        factory = build if build is not None else (
            _resolve_qualified(bundle.build) if bundle.build else None)
        if factory is None:
            raise ValueError("bundle records no circuit factory; pass build= "
                             "or circuit=")
        circuit = factory(**bundle.params)
    fingerprint_match = None
    if bundle.fingerprint:
        fingerprint_match = circuit_fingerprint(circuit) == bundle.fingerprint
    # Forensics stay on for the replay so the fresh run yields its own
    # report to compare against the bundled one.
    options = SimulationOptions(**{**bundle.options, "forensics": True})
    args = bundle.analysis_args
    if bundle.analysis == "op":
        analysis = OperatingPointAnalysis(circuit, options=options)
        run = analysis.run
    elif bundle.analysis == "dc":
        analysis = DCSweepAnalysis(circuit, args["source"], args["values"],
                                   options=options)
        run = analysis.run
    elif bundle.analysis == "tran":
        analysis = TransientAnalysis(circuit, t_stop=args["t_stop"],
                                     t_step=args["t_step"],
                                     t_start=args.get("t_start", 0.0),
                                     options=options)
        run = analysis.run
    elif bundle.analysis == "ac":
        analysis = ACAnalysis(circuit, args["frequencies"], options=options)
        run = analysis.run
    else:
        raise ValueError(f"cannot replay analysis kind {bundle.analysis!r}")
    try:
        result = run()
    except ReproError as exc:
        report = exc.report if isinstance(exc.report, FailureReport) else None
        expected = bundle.failure or {}
        reproduced = True
        if expected.get("error_type"):
            reproduced = type(exc).__name__ == expected["error_type"]
        if reproduced and report is not None and expected:
            bundled = FailureReport.from_json(expected)
            if bundled.offending_unknown and report.offending_unknown:
                reproduced = (report.offending_unknown
                              == bundled.offending_unknown)
        return ReplayResult(reproduced=reproduced, error=exc, report=report,
                            fingerprint_match=fingerprint_match)
    return ReplayResult(reproduced=False, error=None, report=None,
                        result=result, fingerprint_match=fingerprint_match)


# -------------------------------------------------- analysis-side builders
def newton_failure(*, kind: str, analysis: str, message: str, error_type: str = "",
                   time=None, iterations=None, labels=None, residual=None,
                   trajectory=(), factorization=None, matrix=None,
                   options=None, context=None) -> FailureReport:
    """Assemble (and record) a report for a failed Newton-family solve.

    Shared by op/dcsweep/transient: ranks the residual against the unknown
    labels, pulls a condition estimate off the held factorization when one
    exists, and runs the structural singularity diagnosis when the assembled
    matrix is at hand.  Never raises -- a forensics capture must not mask
    the original failure.
    """
    offending = []
    if labels is not None and residual is not None:
        try:
            offending = _health.attribute_residual(labels, residual)
        except Exception:
            offending = []
    condition = None
    if factorization is not None:
        try:
            condition = float(factorization.condition_estimate())
        except Exception:
            condition = None
    diagnosis = None
    if matrix is not None:
        try:
            diagnosis = _health.singular_diagnosis(matrix, labels)
        except Exception:
            diagnosis = None
    residual_norm = None
    if residual is not None:
        finite = np.asarray(residual, dtype=float)
        if finite.size:
            residual_norm = float(np.max(np.abs(finite)))
    if dataclasses.is_dataclass(options) and not isinstance(options, type):
        options = dataclasses.asdict(options)
    report = FailureReport(
        kind=kind, analysis=analysis, message=message, error_type=error_type,
        time=None if time is None else float(time), iterations=iterations,
        residual_norm=residual_norm, residual_trajectory=list(trajectory),
        offending=offending, condition_estimate=condition,
        diagnosis=diagnosis, options=options, context=dict(context or {}))
    return record(report)
