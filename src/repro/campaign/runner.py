"""Campaign execution: map scenario points onto analysis runs.

The runner is pure execution policy -- *which* points exist is the spec's
business (:mod:`repro.campaign.spec`), *what* one point means is the
evaluator's.  An evaluator is any callable ``point_dict -> {name: float}``;
for the multiprocessing backend it must be picklable, which in practice
means a module-level function or an instance of a picklable class such as
:class:`CircuitEvaluator`.

Guarantees, regardless of backend:

* **deterministic ordering** -- the result rows come back in spec order,
  even though the pool completes chunks out of order,
* **per-point error capture** -- an exception inside one point becomes that
  row's ``error`` string instead of aborting the campaign (a pull-in fold
  in the middle of a Monte Carlo run must not kill the other 990 samples);
  under the batch backend a failing lane is retired from its vectorized
  slice and re-run serially, so it produces the *same* error row,
* **transparent caching** -- with a :class:`~repro.campaign.cache.ResultCache`
  attached, points whose content hash (evaluator identity + scenario point)
  is already stored are served without dispatching any work.

:class:`CircuitEvaluator` is the bridge to the simulator: it rebuilds a
netlist per point via a picklable factory function, applies ``options.*``
parameters onto :class:`~repro.circuit.analysis.options.SimulationOptions`
(so a campaign can select e.g. the sparse linear solver per point), runs an
``op`` / ``dc`` / ``ac`` / ``tran`` analysis and reduces the outcome to a
flat row of floats.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
import warnings
from typing import Callable, Mapping, Sequence

from .. import telemetry
from ..circuit.analysis.ac import ACAnalysis
from ..circuit.analysis.batch import (ParameterColumns, batched_dcsweeps,
                                      batched_operating_points)
from ..circuit.analysis.dcsweep import DCSweepAnalysis
from ..circuit.analysis.op import OperatingPointAnalysis
from ..circuit.analysis.options import SimulationOptions
from ..circuit.analysis.transient import TransientAnalysis
from ..errors import CampaignError, DeviceError, NetlistError
from .cache import ResultCache, canonicalize, scenario_key
from .results import CampaignResult, CampaignRow
from .spec import CampaignSpec

__all__ = ["CampaignRunner", "CircuitEvaluator", "FunctionEvaluator",
           "OPTIONS_PREFIX", "split_point", "evaluator_payload"]

#: Scenario-point keys with this prefix override ``SimulationOptions`` fields.
OPTIONS_PREFIX = "options."


def split_point(point: Mapping[str, object]) -> tuple[dict, dict]:
    """Split a scenario point into model parameters and options overrides."""
    params, overrides = {}, {}
    for name, value in point.items():
        if name.startswith(OPTIONS_PREFIX):
            overrides[name[len(OPTIONS_PREFIX):]] = value
        else:
            params[name] = value
    return params, overrides


def _qualified_name(obj) -> str:
    """Stable identity string of a function/class for cache payloads."""
    module = getattr(obj, "__module__", type(obj).__module__)
    name = getattr(obj, "__qualname__", type(obj).__qualname__)
    return f"{module}.{name}"


def evaluator_payload(evaluator) -> dict:
    """The evaluator's cache-identity payload.

    Evaluators that can be re-parameterized (netlist recipe, analysis
    options, ...) expose ``cache_payload()``; plain functions fall back to
    their qualified name, which is enough as long as the function body's
    behaviour does not change between runs.
    """
    payload = getattr(evaluator, "cache_payload", None)
    if callable(payload):
        return payload()
    return {"evaluator": _qualified_name(evaluator)}


def _evaluate_one(evaluator, index: int, point: Mapping[str, object]
                  ) -> tuple[int, dict, str | None, dict | None]:
    """Run one point, converting any failure into an error string.

    A failure that carries a :class:`~repro.telemetry.FailureReport` (the
    solver raised with ``options.forensics`` on) additionally yields the
    report's flat picklable :meth:`~repro.telemetry.FailureReport.summary`,
    so campaign rows can say *which unknown* broke a point, not only that
    it broke.
    """
    try:
        outputs = evaluator(dict(point))
        if not isinstance(outputs, Mapping):
            raise CampaignError(
                f"evaluator returned {type(outputs).__name__}, expected a "
                "mapping of output name to float")
        row = {str(name): float(value) for name, value in outputs.items()}
        return index, row, None, None
    except Exception as exc:  # noqa: BLE001 -- per-point isolation is the point
        forensics = None
        report = getattr(exc, "report", None)
        if report is not None:
            try:
                forensics = report.summary()
            except Exception:
                forensics = None
        return index, {}, f"{type(exc).__name__}: {exc}", forensics


def _overrides_signature(point: Mapping[str, object]) -> str:
    """Stable grouping key of a point's ``options.*`` overrides."""
    _, overrides = split_point(point)
    return repr(canonicalize(overrides))


def _batch_slices(items: Sequence[tuple[int, dict]], batch_size: int
                  ) -> list[list[tuple[int, dict]]]:
    """Split (index, point) pairs into batchable slices.

    Points inside one slice share their ``options.*`` overrides (a batch
    runs under one :class:`SimulationOptions`) and there are at most
    ``batch_size`` of them.
    """
    groups: dict[str, list[tuple[int, dict]]] = {}
    for item in items:
        groups.setdefault(_overrides_signature(item[1]), []).append(item)
    return [group[start:start + batch_size]
            for group in groups.values()
            for start in range(0, len(group), batch_size)]


def _evaluate_batch_items(evaluator, items: Sequence[tuple[int, dict]]
                          ) -> list[tuple[int, dict, str | None, dict | None]]:
    """Evaluate one same-overrides slice through the evaluator's batch path.

    Lanes the batch could not finish (``None`` rows, or a whole-slice
    ``None``) are re-dispatched through :func:`_evaluate_one`, so they keep
    the exact serial semantics -- including error strings and forensics for
    points that genuinely fail.  Each ``None`` row counts one
    ``campaign.batch.serial_reruns`` in the metrics registry.
    """
    lanes = None
    if len(items) > 1:
        lanes = evaluator.evaluate_batch([point for _, point in items])
    if lanes is None:
        return [_evaluate_one(evaluator, index, point)
                for index, point in items]
    results = []
    for (index, point), row in zip(items, lanes):
        if row is None:
            telemetry.registry.inc("campaign.batch.serial_reruns")
            results.append(_evaluate_one(evaluator, index, point))
        else:
            results.append(
                (index, {str(name): float(value)
                         for name, value in row.items()}, None, None))
    return results


def _evaluate_chunk(task: tuple, on_point=None
                    ) -> tuple[list[tuple[int, dict, str | None, dict | None]],
                               dict, dict | None, dict]:
    """Worker entry point: evaluate one chunk of (index, point) pairs.

    ``task`` is ``(evaluator, items, telemetry_mode)`` with an optional
    fourth ``batch_size`` element: when present, the chunk is evaluated in
    same-overrides slices of at most that many points through the
    evaluator's ``evaluate_batch`` (one vectorized solve per slice) instead
    of point by point.

    Besides the per-point results the chunk ships one
    :func:`repro.telemetry.registry.delta` of the worker's process-wide
    metrics registry -- taken against a single snapshot before the items,
    at every telemetry level -- so every counter a pool worker bumps
    (linalg cache traffic, batch-lane fallbacks, compiler events, ...)
    reaches the aggregated :attr:`CampaignResult.metrics`.  With a
    telemetry mode requested, the chunk additionally runs inside an
    aggregate-only :func:`repro.telemetry.session` (span trees folded into
    per-name totals -- bounded memory for arbitrarily long campaigns) and
    ships its span totals and wall time back the same way.

    Every chunk also returns a worker *heartbeat* -- ``{"pid", "points",
    "wall_s"}`` -- which the parent folds into its progress events, so a
    watcher sees which worker delivered and how long the chunk took.
    ``on_point`` (serial backend only; pools cannot pickle a callback) is
    invoked with each finished point index for per-point progress.
    """
    evaluator, items, telemetry_mode, *rest = task
    batch_size = rest[0] if rest else None
    t0 = time.perf_counter()
    before = telemetry.registry.snapshot()

    def run_items():
        results = []
        if batch_size is not None:
            for slice_items in _batch_slices(items, batch_size):
                results.extend(_evaluate_batch_items(evaluator, slice_items))
                if on_point is not None:
                    for index, _ in slice_items:
                        on_point(index)
            return results
        for index, point in items:
            results.append(_evaluate_one(evaluator, index, point))
            if on_point is not None:
                on_point(index)
        return results

    if telemetry_mode == "off":
        results = run_items()
        payload = None
    else:
        with telemetry.session(mode=telemetry_mode, keep_spans=False) as sess:
            results = run_items()
        payload = sess.report.aggregate_payload()
    heartbeat = {"pid": os.getpid(), "points": len(items),
                 "wall_s": time.perf_counter() - t0}
    return results, telemetry.registry.delta(before), payload, heartbeat


class CampaignRunner:
    """Execute a campaign spec against an evaluator.

    Parameters
    ----------
    backend:
        ``"serial"`` (in-process loop), ``"pool"`` (``multiprocessing``
        process pool with chunked dispatch), ``"batch"`` (one vectorized
        solve per slice of points through the evaluator's
        ``evaluate_batch``; with ``processes > 1`` the slices are spread
        over a pool, so each worker solves whole batches) or ``"auto"``
        (batch when the evaluator supports it, otherwise pool on
        multi-core hosts, otherwise serial).
    processes:
        Worker count for the pool backend (default: ``os.cpu_count()``);
        for the batch backend the default is 1 (in-process batches).
    chunk_size:
        Points per dispatched task; the default splits the pending work
        into about four chunks per worker to balance load against
        serialization overhead.
    batch_size:
        Batch/auto backends: maximum number of points stacked into one
        vectorized solve (default 64).  Larger batches amortize more
        Python overhead per solve but hold ``B`` dense Jacobians in
        memory at once and make lockstep iteration waste grow when
        convergence behaviour varies wildly across the batch.
    cache:
        Optional :class:`ResultCache`; cached points are not dispatched.
    telemetry:
        ``"off"`` (default), ``"summary"`` or ``"full"``: run every chunk
        inside an aggregate-only telemetry session and merge the shipped
        span totals into ``CampaignResult.telemetry``, making
        :meth:`CampaignResult.solver_summary` a full campaign profile.
        Registry counters need no telemetry: every chunk ships its metrics
        delta, merged into ``CampaignResult.metrics`` at every level.
        (Chunks never keep span *trees* -- pool payloads stay bounded -- so
        ``"full"`` here only controls detail-span collection inside the
        workers.)
    stall_timeout:
        Pool backend only: seconds the parent waits for *any* chunk to
        complete before emitting a :class:`~repro.telemetry.StallWarning`
        (a structured warning naming the silent interval and the progress
        so far -- the run itself keeps waiting).  ``None`` (default) never
        times out.
    stall_abandon:
        With ``stall_timeout`` set: instead of warning and waiting forever,
        terminate the pool at the first stall and mark every undelivered
        point as a failed row (``error`` starting with ``"StallError"``),
        so a single hung worker cannot hang the whole campaign.
    ledger:
        Optional :class:`~repro.telemetry.ledger.RunLedger` (or a directory
        path, wrapped in one): every :meth:`run` appends a
        :class:`~repro.telemetry.ledger.RunRecord` of the campaign's merged
        telemetry profile -- span totals, metric deltas, summed worker wall
        time -- fingerprinted by evaluator identity and spec shape, so runs
        of the same campaign diff across commits.  Recording needs a
        profile: a runner constructed with ``telemetry="off"`` is upgraded
        to ``"summary"``.  The appended record's ID lands on the result as
        ``CampaignResult.run_record_id``.  Workers ship deterministic
        aggregates, so serial and pool executions of a campaign whose
        evaluator keeps no per-process state diff to zero on every counter
        and span count.  Evaluators that reuse per-process work -- the FE
        operators of PXT extraction points -- report reuse counters
        (factorizations, cache hits) that depend on the chunking and on
        what each process solved before; their results do not.
    """

    BACKENDS = ("serial", "pool", "batch", "auto")

    def __init__(self, backend: str = "serial", processes: int | None = None,
                 chunk_size: int | None = None,
                 batch_size: int = 64,
                 cache: ResultCache | None = None,
                 telemetry: str = "off",
                 stall_timeout: float | None = None,
                 stall_abandon: bool = False,
                 ledger=None) -> None:
        if backend not in self.BACKENDS:
            raise CampaignError(
                f"unknown backend {backend!r} (use one of {self.BACKENDS})")
        if processes is not None and processes < 1:
            raise CampaignError("processes must be at least 1")
        if chunk_size is not None and chunk_size < 1:
            raise CampaignError("chunk_size must be at least 1")
        if batch_size < 1:
            raise CampaignError("batch_size must be at least 1")
        if telemetry not in ("off", "summary", "full"):
            raise CampaignError(
                f"unknown telemetry level {telemetry!r} "
                "(use 'off', 'summary' or 'full')")
        if stall_timeout is not None and stall_timeout <= 0.0:
            raise CampaignError("stall_timeout must be positive")
        if stall_abandon and stall_timeout is None:
            raise CampaignError("stall_abandon requires a stall_timeout")
        if ledger is not None and not hasattr(ledger, "append"):
            from ..telemetry.ledger import RunLedger
            ledger = RunLedger(ledger)
        if ledger is not None and telemetry == "off":
            # A record without a profile is empty; summary mode is the
            # cheapest level that still ships span totals and counters.
            telemetry = "summary"
        self.backend = backend
        self.processes = processes
        self.chunk_size = chunk_size
        self.batch_size = int(batch_size)
        self.cache = cache
        self.telemetry = telemetry
        self.ledger = ledger
        self.stall_timeout = None if stall_timeout is None else float(stall_timeout)
        self.stall_abandon = bool(stall_abandon)

    # ------------------------------------------------------------------ run
    def run(self, spec: CampaignSpec, evaluator) -> CampaignResult:
        """Evaluate every point of ``spec`` and return the ordered result."""
        points = spec.points()
        if not points:
            raise CampaignError("the campaign spec produced no points")
        payload = evaluator_payload(evaluator) if self.cache is not None else None

        rows: list[CampaignRow | None] = [None] * len(points)
        pending: list[tuple[int, dict]] = []
        keys: list[str | None] = [None] * len(points)
        for index, point in enumerate(points):
            if self.cache is not None:
                key = scenario_key(payload, canonicalize(point))
                keys[index] = key
                cached = self.cache.get(key)
                if cached is not None:
                    rows[index] = CampaignRow(index, point, cached,
                                              error=None, from_cache=True)
                    continue
            pending.append((index, point))

        dispatched, metrics, profile = self._dispatch(evaluator, pending)
        for index, outputs, error, forensics in dispatched:
            point = points[index]
            rows[index] = CampaignRow(index, point, outputs, error=error,
                                      forensics=forensics)
            if self.cache is not None and error is None:
                self.cache.put(keys[index], outputs)

        result = CampaignResult([row for row in rows if row is not None],
                                param_names=spec.names,
                                metrics=metrics, telemetry=profile)
        if self.ledger is not None and profile is not None:
            result.run_record_id = self._record_run(spec, evaluator, points,
                                                    profile)
        return result

    def _record_run(self, spec: CampaignSpec, evaluator,
                    points: Sequence[Mapping[str, object]],
                    profile: Mapping) -> str:
        """Append this campaign's profile to the attached run ledger."""
        from ..telemetry.ledger import RunRecord
        fingerprint = scenario_key(evaluator_payload(evaluator),
                                   {"params": list(spec.names),
                                    "points": len(points)})
        record = RunRecord.from_report(profile, label="campaign",
                                       options_fingerprint=fingerprint)
        return self.ledger.append(record)

    # ------------------------------------------------------------- dispatch
    def _resolve_backend(self, evaluator, n_points: int) -> str:
        """Pick the execution strategy: serial, pool, batch or batch+pool."""
        if self.backend in ("serial", "pool"):
            return self.backend
        capable = callable(getattr(evaluator, "evaluate_batch", None))
        probe = getattr(evaluator, "batch_capable", None)
        if capable and callable(probe):
            capable = bool(probe())
        if self.backend == "batch":
            if not capable:
                raise CampaignError(
                    "backend 'batch' needs a batch-capable evaluator "
                    "(e.g. CircuitEvaluator(param_map=...) running an "
                    "'op' or 'dc' analysis)")
            processes = self.processes or 1
            return "batch-pool" if processes > 1 \
                and n_points > self.batch_size else "batch"
        # auto: vectorize when possible, otherwise parallelize processes.
        cpus = self.processes or os.cpu_count() or 1
        if capable:
            return "batch-pool" if cpus > 1 \
                and n_points > 2 * self.batch_size else "batch"
        return "pool" if cpus > 1 and n_points > 1 else "serial"

    def _dispatch(self, evaluator, pending: Sequence[tuple[int, dict]]
                  ) -> tuple[list[tuple[int, dict, str | None, dict | None]],
                             dict, dict | None]:
        metrics = {"counters": {}, "gauges": {}, "histograms": {}}
        if not pending:
            return [], metrics, None
        backend = self._resolve_backend(evaluator, len(pending))
        track = telemetry.progress.tracker("campaign", total=len(pending),
                                           unit="points")
        if backend in ("serial", "batch"):
            done = 0

            def advance(_index: int) -> None:
                nonlocal done
                done += 1
                track.update(done)

            batch_size = self.batch_size if backend == "batch" else None
            results, delta, payload, _ = _evaluate_chunk(
                (evaluator, list(pending), self.telemetry, batch_size),
                on_point=advance)
            telemetry.registry.merge(metrics, delta)
            track.finish(len(pending))
            return results, metrics, self._merge_profiles([payload], metrics)
        processes = self.processes or os.cpu_count() or 1
        processes = min(processes, len(pending))
        if backend == "batch-pool":
            # Compose vectorization with process parallelism: every pool
            # task is one same-overrides batch slice, solved vectorized
            # inside its worker.
            chunks = [(evaluator, slice_items, self.telemetry, self.batch_size)
                      for slice_items in _batch_slices(pending, self.batch_size)]
            processes = min(processes, len(chunks))
        else:
            chunk = self.chunk_size or max(1, -(-len(pending) // (4 * processes)))
            chunks = [(evaluator, pending[i:i + chunk], self.telemetry)
                      for i in range(0, len(pending), chunk)]
        completed = []
        done_points = 0
        stalled = False
        with multiprocessing.Pool(processes) as pool:
            # Unordered completion + a bounded wait per delivery: the parent
            # notices a silent pool instead of blocking in pool.map forever.
            # Results carry their spec indices, so order needs no barrier.
            iterator = pool.imap_unordered(_evaluate_chunk, chunks)
            for _ in range(len(chunks)):
                while True:
                    try:
                        batch = iterator.next(timeout=self.stall_timeout)
                        break
                    except multiprocessing.TimeoutError:
                        telemetry.registry.inc("campaign.stalls")
                        action = "abandoning undelivered points" \
                            if self.stall_abandon else "still waiting"
                        warnings.warn(
                            f"campaign pool delivered nothing for "
                            f"{self.stall_timeout:g}s ({done_points}/"
                            f"{len(pending)} points done); {action}",
                            telemetry.progress.StallWarning, stacklevel=3)
                        if self.stall_abandon:
                            stalled = True
                            break
                if stalled:
                    pool.terminate()
                    break
                completed.append(batch)
                _, delta, _, heartbeat = batch
                telemetry.registry.merge(metrics, delta)
                done_points += heartbeat["points"]
                track.update(done_points, **heartbeat)
        results = [item for batch, _, _, _ in completed for item in batch]
        if stalled:
            delivered = {index for index, _, _, _ in results}
            for index, _point in pending:
                if index not in delivered:
                    results.append((
                        index, {},
                        f"StallError: no result within {self.stall_timeout:g}s; "
                        "worker abandoned", None))
        track.finish(done_points, message="stalled" if stalled else "")
        return results, metrics, self._merge_profiles(
            [payload for _, _, payload, _ in completed], metrics)

    def _merge_profiles(self, payloads: Sequence[dict],
                        metrics: dict) -> dict | None:
        """Fold the chunks' span payloads and the merged ``metrics`` into
        one campaign profile."""
        if self.telemetry == "off":
            return None
        profile = {"mode": self.telemetry, "span_totals": {},
                   "metrics": metrics, "wall_s": 0.0}
        for payload in payloads:
            telemetry.merge_span_totals(profile["span_totals"],
                                        payload["span_totals"])
            # Summed worker wall time: CPU-seconds of evaluation, not the
            # campaign's elapsed time (chunks overlap under the pool).
            profile["wall_s"] += payload["wall_s"]
        return profile


# --------------------------------------------------------------------------- #
# evaluators                                                                  #
# --------------------------------------------------------------------------- #

class FunctionEvaluator:
    """Bind a picklable module-level function and a fixed config payload.

    ``fn(config, params, options)`` receives the static config dict, the
    point's model parameters and the per-point ``SimulationOptions`` and
    returns a mapping of output name to float.
    """

    def __init__(self, fn: Callable, config: Mapping[str, object] | None = None,
                 options: SimulationOptions | None = None) -> None:
        self.fn = fn
        self.config = dict(config or {})
        self.options = options

    def __call__(self, point: Mapping[str, object]) -> dict:
        params, overrides = split_point(point)
        options = (self.options or SimulationOptions()).with_(
            **_coerced_overrides(overrides))
        return dict(self.fn(self.config, params, options))

    def cache_payload(self) -> dict:
        return {
            "evaluator": _qualified_name(self.fn),
            "config": canonicalize(self.config),
            "options": _options_payload(self.options),
        }


class CircuitEvaluator:
    """Evaluate points as circuit analyses over a rebuilt netlist.

    Parameters
    ----------
    build:
        Module-level function ``params_dict -> Circuit``.  Rebuilding the
        netlist per point keeps the evaluator picklable and stateless.
    analysis:
        ``"op"``, ``"dc"``, ``"ac"`` or ``"tran"``.
    analysis_args:
        Constructor arguments of the analysis (e.g. ``source_name`` and
        ``values`` for a DC sweep, ``t_stop`` for a transient).
    outputs:
        For ``"op"``: the signal names to keep (default: every signal).
    reduce:
        Module-level function ``(result, params) -> {name: float}``;
        required for ``dc`` / ``ac`` / ``tran`` whose results are not flat
        scalars.  ``params`` is the point's model-parameter dict, so the
        reduction can depend on the scenario (e.g. a per-sample gap).
    options:
        Baseline simulation options; per-point ``options.*`` parameters are
        applied on top, so a campaign axis can flip e.g.
        ``options.linear_solver`` between dense and sparse.
    param_map:
        Optional mapping enabling the *batched* execution path for ``op``
        and ``dc`` analyses: scenario parameter name -> ``"DEVICE.param"``
        target (a tunable device parameter), or ``("DEVICE.param", fn)``
        with a module-level transform applied to the scenario value first.
        With every varying scenario parameter mapped this way, the circuit
        is built once and a whole slice of points becomes one stacked
        solve (see :mod:`repro.circuit.analysis.batch`); without it the
        evaluator only runs point by point.  Mapped values are applied
        through ``set_parameter`` (the sensitivity-seeding path), which
        skips constructor validation -- feed it physically valid values,
        as out-of-range ones (say a negative resistance) only surface as
        the serial build error when the stacked solve happens to fail.
    """

    ANALYSES = ("op", "dc", "ac", "tran")

    def __init__(self, build: Callable, analysis: str = "op",
                 analysis_args: Mapping[str, object] | None = None,
                 outputs: Sequence[str] | None = None,
                 reduce: Callable | None = None,
                 options: SimulationOptions | None = None,
                 param_map: Mapping[str, object] | None = None) -> None:
        if analysis not in self.ANALYSES:
            raise CampaignError(
                f"unknown analysis {analysis!r} (use one of {self.ANALYSES})")
        if analysis != "op" and reduce is None:
            raise CampaignError(
                f"analysis {analysis!r} returns waveforms; a module-level "
                "'reduce' function is required to produce scalar outputs")
        self.build = build
        self.analysis = analysis
        self.analysis_args = dict(analysis_args or {})
        self.outputs = None if outputs is None else tuple(outputs)
        self.reduce = reduce
        self.options = options
        self.param_map = None if param_map is None else dict(param_map)
        for name, target in (self.param_map or {}).items():
            if isinstance(target, (tuple, list)):
                if len(target) != 2 or not callable(target[1]):
                    raise CampaignError(
                        f"param_map[{name!r}] must be 'DEVICE.param' or "
                        "('DEVICE.param', transform)")
                target = target[0]
            if "." not in str(target):
                raise CampaignError(
                    f"param_map[{name!r}] target {target!r} must be of the "
                    "form 'DEVICE.param'")

    def __call__(self, point: Mapping[str, object]) -> dict:
        params, overrides = split_point(point)
        options = (self.options or SimulationOptions()).with_(
            **_coerced_overrides(overrides))
        circuit = self.build(params)
        if self.analysis == "op":
            op = OperatingPointAnalysis(circuit, options).run(**self.analysis_args)
            if self.reduce is not None:
                return dict(self.reduce(op, params))
            names = self.outputs if self.outputs is not None else op.signals()
            return {name: float(op[name]) for name in names}
        if self.analysis == "dc":
            result = DCSweepAnalysis(circuit, options=options,
                                     **self.analysis_args).run()
        elif self.analysis == "ac":
            result = ACAnalysis(circuit, options=options,
                                **self.analysis_args).run()
        else:
            result = TransientAnalysis(circuit, options=options,
                                       **self.analysis_args).run()
        return dict(self.reduce(result, params))

    # ------------------------------------------------------------- batching
    def batch_capable(self) -> bool:
        """Whether this evaluator can stack points into vectorized solves."""
        return bool(self.param_map) and self.analysis in ("op", "dc")

    def _parameter_columns(self, circuit, param_sets: Sequence[Mapping]
                           ) -> "ParameterColumns | None":
        assignments = []
        for name, target in self.param_map.items():
            if name not in param_sets[0]:
                # The spec does not sweep this mapped parameter; the circuit
                # built from the slice's params already carries its default.
                continue
            transform = None
            if isinstance(target, (tuple, list)):
                target, transform = target
            device_name, _, device_param = str(target).partition(".")
            values = [point_params[name] for point_params in param_sets]
            if transform is not None:
                values = [transform(value) for value in values]
            assignments.append((device_name, device_param, values))
        if not assignments:
            return None
        try:
            return ParameterColumns(circuit, assignments)
        except (DeviceError, NetlistError) as exc:
            raise CampaignError(f"invalid param_map: {exc}") from exc

    def evaluate_batch(self, points: Sequence[Mapping[str, object]]
                       ) -> list[dict | None] | None:
        """Evaluate a same-overrides slice of points as one stacked solve.

        Returns one outputs dict per point, with ``None`` for lanes the
        batch could not finish (non-convergence, or a per-lane reduction
        error) -- the runner re-runs exactly those through the serial path,
        reproducing the serial error rows.  Returns ``None`` outright when
        this slice cannot be batched at all (differing option overrides,
        unmapped varying parameters, ...); a misconfigured ``param_map`` raises
        :class:`CampaignError` instead of silently degrading.

        Under ``jacobian_reuse="chord"`` each lane keeps its own chord
        schedule, so an operating point follows its serial run; DC sweeps
        stay tolerance-only across sweep points, so a lane's iterates (and,
        near the iteration cap, whether its point fails) can differ from
        the serial run of that point.
        """
        if not self.batch_capable():
            return None
        split = [split_point(dict(point)) for point in points]
        params0, overrides0 = split[0]
        if any(overrides != overrides0 for _, overrides in split[1:]):
            return None
        options = (self.options or SimulationOptions()).with_(
            **_coerced_overrides(overrides0))
        # Unmapped parameters may steer the netlist factory, so they must
        # be constant across the slice (the circuit is built only once).
        unmapped = set(params0) - set(self.param_map)
        for params, _ in split:
            if set(params) != set(params0):
                return None
            if any(params[name] != params0[name] for name in unmapped):
                return None
        circuit = self.build(dict(params0))
        columns = self._parameter_columns(
            circuit, [params for params, _ in split])
        if columns is None:
            return None
        if self.analysis == "op":
            lanes = batched_operating_points(circuit, options, columns)
        else:
            args = dict(self.analysis_args)
            try:
                source_name = args.pop("source_name")
                values = args.pop("values")
            except KeyError:
                return None
            continue_on_failure = bool(args.pop("continue_on_failure", False))
            if args:
                return None
            lanes = batched_dcsweeps(circuit, str(source_name), values,
                                     options, columns,
                                     continue_on_failure=continue_on_failure)
        rows: list[dict | None] = []
        for lane, result in enumerate(lanes):
            if result is None:
                rows.append(None)
                continue
            params = split[lane][0]
            try:
                if self.reduce is not None:
                    rows.append(dict(self.reduce(result, params)))
                else:
                    names = self.outputs if self.outputs is not None \
                        else result.signals()
                    rows.append({name: float(result[name]) for name in names})
            except Exception:  # noqa: BLE001 -- serial rerun recreates the error
                rows.append(None)
        return rows

    def cache_payload(self) -> dict:
        payload = {
            "evaluator": _qualified_name(self),
            "build": _qualified_name(self.build),
            "analysis": self.analysis,
            "analysis_args": canonicalize(self.analysis_args),
            "outputs": list(self.outputs) if self.outputs is not None else None,
            "reduce": None if self.reduce is None else _qualified_name(self.reduce),
            "options": _options_payload(self.options),
        }
        if self.param_map:
            payload["param_map"] = {
                name: [target[0], _qualified_name(target[1])]
                if isinstance(target, (tuple, list)) else str(target)
                for name, target in sorted(self.param_map.items())}
        return payload


def _coerced_overrides(overrides: Mapping[str, object]) -> dict:
    """Coerce ``options.*`` point values onto SimulationOptions field types."""
    fields = {f.name: f.type for f in dataclasses.fields(SimulationOptions)}
    coerced: dict[str, object] = {}
    for name, value in overrides.items():
        if name not in fields:
            raise CampaignError(
                f"unknown simulation option {OPTIONS_PREFIX}{name}")
        if isinstance(value, str):
            coerced[name] = value
        elif "bool" in str(fields[name]):
            coerced[name] = bool(value)
        elif "int" in str(fields[name]):
            coerced[name] = int(value)
        else:
            coerced[name] = float(value)
    return coerced


def _options_payload(options: SimulationOptions | None) -> dict:
    return dataclasses.asdict(options or SimulationOptions())
