"""Per-layer tracing from outside the program.

:class:`Tracer` wraps public functions and methods of the library at every
place the code looks them up (a function imported by name into another
module is patched there too), counts calls and accumulates *self time*: the
time inside a wrapped call minus the time spent in wrapped calls nested in
it.  Nothing inside ``src/`` is modified; :meth:`Tracer.uninstall` puts every
original object back.

Worker processes of a campaign pool report their layers through
:class:`TracedEvaluator`, which returns each point's layer deltas as extra
output columns (prefix :data:`COLUMN_PREFIX`); :func:`strip_columns` takes
them off the rows again before the oracle check.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from time import perf_counter

__all__ = ["Tracer", "TracedEvaluator", "PickleBytes", "COLUMN_PREFIX",
           "strip_columns", "layer_metrics"]

#: Output-column prefix of worker-side layer totals.
COLUMN_PREFIX = "__layer__"

#: Tracer installed in this process, for :class:`TracedEvaluator` workers.
_active: "Tracer | None" = None


class Tracer:
    """Wrap the library's layer boundaries; collect calls and self time.

    ``totals[layer]`` maps field names (``calls``, ``self_s`` and
    layer-specific counters) to numbers.  Wrapped calls are expected on one
    thread, as the benchmark drives the library from its main thread.
    """

    def __init__(self) -> None:
        self.totals: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        #: Depth of open ``TransientAnalysis.run`` calls: an operating point
        #: solved outside one is a lane retired from a batch to serial.
        self._tran_depth = 0

    # ------------------------------------------------------------ wrappers
    def timed(self, layer: str, fn, on_result=None):
        """Wrapper that counts calls and accumulates self time."""
        totals, stack = self.totals, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                record = totals[layer]
                record["calls"] += 1
                record["self_s"] += elapsed - frame[0]
            if on_result is not None:
                on_result(totals[layer], result, args, kwargs)
            return result
        return wrapper

    def counted(self, layer: str, fn, on_result=None):
        """Wrapper that only counts (its time stays with the caller)."""
        totals = self.totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            record = totals[layer]
            record["calls"] += 1
            if on_result is not None:
                on_result(record, result, args, kwargs)
            return result
        return wrapper

    # ------------------------------------------------------------ patching
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_method(self, cls, attr: str, make) -> None:
        """Replace ``cls.attr`` (defined on ``cls`` itself) by ``make(fn)``."""
        if attr not in cls.__dict__:
            raise AttributeError(f"{cls.__qualname__} defines no {attr!r}")
        self._patch(cls, attr, make(cls.__dict__[attr]))

    def patch_function(self, module_name: str, attr: str, make) -> None:
        """Replace a function everywhere a ``repro`` module binds it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = make(original)
        for name, module in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) \
                    and vars(module).get(attr) is original:
                self._patch(module, attr, wrapper)

    def install(self) -> "Tracer":
        global _active
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            _install_layers(self)
        except BaseException:
            self.uninstall()  # a renamed boundary must not leave patches
            raise
        _active = self
        return self

    def uninstall(self) -> None:
        global _active
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if _active is self:
            _active = None

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {layer: dict(fields) for layer, fields in self.totals.items()}

    def delta(self, before: dict) -> dict[str, dict[str, float]]:
        out = {}
        for layer, fields in self.totals.items():
            base = before.get(layer, {})
            diff = {key: value - base.get(key, 0.0)
                    for key, value in fields.items()}
            if any(diff.values()):
                out[layer] = diff
        return out

    def add(self, layers: dict[str, dict[str, float]]) -> None:
        for layer, fields in layers.items():
            record = self.totals[layer]
            for key, value in fields.items():
                record[key] += value


def _install_layers(tracer: Tracer) -> None:
    """Patch every layer boundary the per-layer metrics read."""
    import repro.campaign  # noqa: F401 -- load every module that binds names
    import repro.circuit.analysis.batch as batch
    import repro.fem.electrostatics  # noqa: F401
    import repro.hdl.compile.runtime  # noqa: F401
    import repro.linalg.batch as linalg_batch
    import repro.linalg.solvers as solvers
    import repro.pxt  # noqa: F401
    from repro.circuit.analysis.op import NewtonWorkspace, OperatingPointAnalysis
    from repro.circuit.analysis.transient import TransientAnalysis
    from repro.circuit.devices.base import Device
    from repro.circuit.devices.behavioral import BehavioralDevice
    from repro.circuit.mna import BatchStampContext, MNASystem, StampContext
    from repro.linalg.structure import StructureCache

    timed, counted = tracer.timed, tracer.counted

    # device evaluation -----------------------------------------------------
    pending, devices = [Device], []
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "stamp" in cls.__dict__ and cls not in devices:
            devices.append(cls)
    for cls in devices:
        layer = "devices.behavioral.stamp" \
            if issubclass(cls, BehavioralDevice) else "devices.builtin.stamp"
        tracer.patch_method(cls, "stamp", lambda fn, layer=layer:
                            timed(layer, fn))

    def stamp_hit(record, result, args, kwargs):
        record["hits"] += bool(result)
    # Looked up as a module attribute on every stamp.
    tracer.patch_function("repro.hdl.compile.runtime", "try_stamp",
                          lambda fn: counted("hdl.try_stamp", fn, stamp_hit))

    # stamp/scatter assembly -------------------------------------------------
    def assemble_kind(record, result, args, kwargs):
        want = kwargs.get("want_jacobian", args[7] if len(args) > 7 else True)
        record["full" if want else "residual"] += 1
    tracer.patch_method(MNASystem, "assemble",
                        lambda fn: timed("mna.assemble", fn, assemble_kind))
    for cls in (StampContext, BatchStampContext):
        tracer.patch_method(cls, "jacobian",
                            lambda fn: timed("mna.jacobian", fn))
    tracer.patch_method(BatchStampContext, "lane_context",
                        lambda fn: counted("mna.batch.lane_context", fn))
    tracer.patch_function(batch.__name__, "assemble_batch",
                          lambda fn: timed("mna.batch.assemble", fn))

    # factorization + back-substitution -------------------------------------
    tracer.patch_method(solvers.FactorizedSolver, "factorize",
                        lambda fn: timed("linalg.factorize", fn))
    for cls in solvers.Factorization.__subclasses__():
        if "solve" in cls.__dict__:
            tracer.patch_method(cls, "solve",
                                lambda fn: timed("linalg.solve", fn))

    def lanes(record, result, args, kwargs):
        record["lanes"] += result.batch
    tracer.patch_function(linalg_batch.__name__, "batched_factorize",
                          lambda fn: timed("linalg.batch.factorize", fn, lanes))
    for cls in (linalg_batch.BatchedDenseLU, linalg_batch.BatchedSparseLU):
        tracer.patch_method(cls, "solve",
                            lambda fn: timed("linalg.batch.solve", fn))

    def factor_cache(fn):
        @functools.wraps(fn)
        def wrapper(workspace, *args, **kwargs):
            before = workspace.solver.factorizations
            result = fn(workspace, *args, **kwargs)
            record = tracer.totals["linalg.workspace.factor"]
            record["calls"] += 1
            record["hits"] += workspace.solver.factorizations == before
            return result
        return wrapper
    tracer.patch_method(NewtonWorkspace, "factor", factor_cache)

    def structure(fn):
        @functools.wraps(fn)
        def wrapper(cache, *args, **kwargs):
            reuses, rebuilds = cache.reuses, cache.rebuilds
            result = fn(cache, *args, **kwargs)
            record = tracer.totals["linalg.structure"]
            record["reuses"] += cache.reuses - reuses
            record["rebuilds"] += cache.rebuilds - rebuilds
            return result
        return wrapper
    for attr in ("assemble", "assemble_batch"):
        tracer.patch_method(StructureCache, attr, structure)

    # Newton -----------------------------------------------------------------
    def iterations(record, result, args, kwargs):
        record["iterations"] += result[1]
    tracer.patch_function("repro.circuit.analysis.op", "newton_solve",
                          lambda fn: timed("newton", fn, iterations))

    def lane_iterations(record, result, args, kwargs):
        record["lane_iterations"] += int(result[2].sum())
    tracer.patch_function(batch.__name__, "batched_newton",
                          lambda fn: timed("newton.batch", fn, lane_iterations))

    def op_run(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.totals["op.run"]["calls"] += 1
            if not tracer._tran_depth:
                tracer.totals["newton.batch"]["retired_lanes"] += 1
            return result
        return wrapper
    tracer.patch_method(OperatingPointAnalysis, "run", op_run)

    # step control / LTE -----------------------------------------------------
    def tran_run(fn):
        inner = timed("tran.run", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._tran_depth += 1
            try:
                result = inner(*args, **kwargs)
            finally:
                tracer._tran_depth -= 1
            record = tracer.totals["tran.run"]
            record["accepted"] += result.statistics["accepted"]
            record["rejected"] += result.statistics["rejected"]
            return result
        return wrapper
    tracer.patch_method(TransientAnalysis, "run", tran_run)

    # output collection ------------------------------------------------------
    tracer.patch_function("repro.circuit.analysis.op", "collect_outputs",
                          lambda fn: timed("collect", fn))

    # FE solve ---------------------------------------------------------------
    for attr, layer in (("assemble_stiffness", "fem.assemble"),
                        ("apply_dirichlet", "fem.dirichlet"),
                        ("solve_sparse", "fem.solve"),
                        ("element_gradient", "fem.postprocess")):
        tracer.patch_function("repro.fem.electrostatics", attr,
                              lambda fn, layer=layer: timed(layer, fn))


class PickleBytes:
    """Count the bytes a campaign pool pickles out (tasks) and back
    (results), at the multiprocessing pickler of this process."""

    def __init__(self) -> None:
        self.sent = 0
        self.received = 0
        self._lock = threading.Lock()
        self._patches = []

    def install(self) -> "PickleBytes":
        from multiprocessing.reduction import ForkingPickler
        dumps, loads = ForkingPickler.__dict__["dumps"], \
            ForkingPickler.__dict__["loads"]
        counter = self

        def counting_dumps(cls, obj, protocol=None):
            data = dumps.__func__(cls, obj, protocol)
            with counter._lock:
                counter.sent += len(data)
            return data

        def counting_loads(data, *args, **kwargs):
            with counter._lock:
                counter.received += len(data)
            return loads(data, *args, **kwargs)

        self._patches = [("dumps", dumps), ("loads", loads)]
        ForkingPickler.dumps = classmethod(counting_dumps)
        ForkingPickler.loads = staticmethod(counting_loads)
        return self

    def uninstall(self) -> None:
        from multiprocessing.reduction import ForkingPickler
        for attr, original in self._patches:
            setattr(ForkingPickler, attr, original)
        self._patches = []

    @property
    def total(self) -> int:
        with self._lock:
            return self.sent + self.received


class TracedEvaluator:
    """Campaign evaluator returning the worker's layer deltas per point.

    Pool workers forked from a traced parent inherit its installed tracer;
    a worker started any other way installs its own on first use.
    """

    def __init__(self, inner) -> None:
        self.inner = inner

    def __call__(self, point: dict) -> dict:
        tracer = _active or Tracer().install()
        before = tracer.snapshot()
        outputs = dict(self.inner(point))
        for layer, fields in tracer.delta(before).items():
            for key, value in fields.items():
                outputs[f"{COLUMN_PREFIX}{layer}|{key}"] = float(value)
        return outputs


def strip_columns(result) -> dict[str, dict[str, float]]:
    """Remove worker layer columns from a campaign result; return their sum."""
    layers: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for row in result:
        for name in [name for name in row.outputs
                     if name.startswith(COLUMN_PREFIX)]:
            layer, _, key = name[len(COLUMN_PREFIX):].partition("|")
            layers[layer][key] += row.outputs.pop(name)
    result.output_names = tuple(name for name in result.output_names
                                if not name.startswith(COLUMN_PREFIX))
    return {layer: dict(fields) for layer, fields in layers.items()}


def layer_metrics(d: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of one unit from its layer deltas ``d``."""
    def get(layer: str, key: str = "calls") -> float:
        return float(d.get(layer, {}).get(key, 0.0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    structure_total = get("linalg.structure", "reuses") \
        + get("linalg.structure", "rebuilds")
    return {
        "devices.stamp.calls": get("devices.behavioral.stamp")
        + get("devices.builtin.stamp"),
        "devices.behavioral.stamp_s": get("devices.behavioral.stamp", "self_s"),
        "devices.builtin.stamp_s": get("devices.builtin.stamp", "self_s"),
        "hdl.try_stamp.calls": get("hdl.try_stamp"),
        "hdl.try_stamp.hit_ratio": ratio(get("hdl.try_stamp", "hits"),
                                         get("hdl.try_stamp")),
        "mna.assemble.full_calls": get("mna.assemble", "full"),
        "mna.assemble.residual_calls": get("mna.assemble", "residual"),
        "mna.assemble.self_s": get("mna.assemble", "self_s"),
        "mna.jacobian.calls": get("mna.jacobian"),
        "mna.jacobian_s": get("mna.jacobian", "self_s"),
        "mna.batch.assemble.calls": get("mna.batch.assemble"),
        "mna.batch.assemble.self_s": get("mna.batch.assemble", "self_s"),
        "mna.batch.lane_fallbacks": get("mna.batch.lane_context"),
        "linalg.factorize.calls": get("linalg.factorize"),
        "linalg.factorize_s": get("linalg.factorize", "self_s"),
        "linalg.solve.calls": get("linalg.solve"),
        "linalg.solve_s": get("linalg.solve", "self_s"),
        "linalg.factor_reuse_ratio": ratio(get("linalg.workspace.factor",
                                               "hits"),
                                           get("linalg.workspace.factor")),
        "linalg.batch.factorize.calls": get("linalg.batch.factorize"),
        "linalg.batch.lanes": get("linalg.batch.factorize", "lanes"),
        "linalg.batch.factorize_s": get("linalg.batch.factorize", "self_s"),
        "linalg.batch.solve_s": get("linalg.batch.solve", "self_s"),
        "linalg.structure_reuse_ratio": ratio(
            get("linalg.structure", "reuses"), structure_total),
        "newton.calls": get("newton"),
        "newton.iterations": get("newton", "iterations"),
        "newton.self_s": get("newton", "self_s"),
        "newton.batch.calls": get("newton.batch"),
        "newton.batch.lane_iterations": get("newton.batch", "lane_iterations"),
        "newton.batch.self_s": get("newton.batch", "self_s"),
        "newton.batch.retired_lanes": get("newton.batch", "retired_lanes"),
        "tran.accepted": get("tran.run", "accepted"),
        "tran.rejected": get("tran.run", "rejected"),
        "tran.step_control_s": get("tran.run", "self_s"),
        "collect.calls": get("collect"),
        "collect_s": get("collect", "self_s"),
        "fem.solves": get("fem.solve"),
        "fem.assemble_s": get("fem.assemble", "self_s"),
        "fem.dirichlet_s": get("fem.dirichlet", "self_s"),
        "fem.solve_s": get("fem.solve", "self_s"),
        "fem.postprocess_s": get("fem.postprocess", "self_s"),
    }
