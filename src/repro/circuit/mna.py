"""Modified nodal analysis (MNA) assembly and integration state.

The solver formulation is residual based: the unknown vector ``x`` holds the
across variables of every non-ground node followed by the auxiliary branch
unknowns requested by devices (voltage-source and inductor currents, HDL
equation-block unknowns, ...).  For a candidate ``x`` every device *stamps*
its contribution to

* ``res`` -- the KCL/branch residual vector ``F(x)``, and
* ``jac`` -- the Jacobian ``dF/dx``,

and the Newton iteration of :mod:`repro.circuit.analysis.op` solves
``jac @ dx = -res``.  Linear devices produce an ``x``-independent Jacobian, so
the same machinery covers linear and behavioral/nonlinear netlists without a
separate linear path.

Sign conventions
----------------
Through variables are positive when flowing from a device's ``p`` pin through
the device to its ``n`` pin; a device therefore adds its through value to the
residual row of ``p`` and subtracts it from the row of ``n``.  This matches
the paper's figure-1 convention that flow entering a port increases the
transducer energy.

Time integration
----------------
:class:`Integrator` implements backward-Euler and trapezoidal discretizations
of ``d/dt`` and of running integrals, with per-key state histories.  Devices
never see the method directly -- they call :meth:`StampContext.ddt` /
:meth:`StampContext.integ` which dispatch on the analysis mode (zero
derivative at DC; one power of ``s`` up or down in the small-signal
:class:`ACStampContext`, which runs the same stamps linearized at the
operating point).
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Hashable, Iterable

import numpy as np

from .. import telemetry
from ..ad import Dual
from ..errors import AnalysisError, NetlistError
from ..linalg import StructureCache
from .netlist import Circuit, Node

if TYPE_CHECKING:  # pragma: no cover
    from .analysis.options import SimulationOptions
    from .devices.base import Device

__all__ = ["MNASystem", "Integrator", "StampContext", "BatchStampContext",
           "BatchScatter", "ACStampContext", "LimitState",
           "canonical_signal_name", "evaluate_powers", "MAX_S_POWER"]


def canonical_signal_name(label: str) -> str:
    """Public signal name of a raw unknown label.

    Auxiliary unknowns are labelled ``<device>#<aux>`` internally; the
    result files use the SPICE ``i(<device>)`` convention for plain branch
    currents and ``<device>.<aux>`` for named extra unknowns.  Node labels
    (``v(<node>)``) pass through unchanged.  Shared by the AC sweep and the
    op/transient output collection so the renaming never diverges.
    """
    if "#" not in label:
        return label
    device, aux = label.split("#", 1)
    return f"i({device})" if aux == "i" else f"{device}.{aux}"


class Integrator:
    """Discretized time-derivative / integral bookkeeping for one transient run.

    Each dynamic quantity is identified by a hashable key (devices use
    ``(device_name, local_name)``).  The integrator keeps the committed value
    and derivative of the previous accepted time point and produces the
    discretized derivative/integral of the current iterate.
    Each call overwrites its key's *pending* state, which :meth:`commit`
    promotes: an accepted step's last writes are its ``Device.record`` pass.
    """

    BACKWARD_EULER = "backward_euler"
    TRAPEZOIDAL = "trapezoidal"

    def __init__(self, method: str = TRAPEZOIDAL) -> None:
        if method not in (self.BACKWARD_EULER, self.TRAPEZOIDAL):
            raise AnalysisError(f"unknown integration method {method!r}")
        self.method = method
        self.h = 0.0
        #: While True the integrator is being primed with the DC solution:
        #: derivatives evaluate to zero and integrals stay at their initial
        #: values, but the pending states are still registered so that the
        #: first real step has a consistent history.
        self.priming = False
        #: When True, :meth:`differentiate` / :meth:`integrate` additionally
        #: keep the *unstripped* pending expressions (possibly AD duals) so
        #: the sensitivity layer can read the exact dependence of every
        #: dynamic state on the seeded unknowns/parameters.  Off by default:
        #: the production analyses never pay for it.
        self.capture_raw = False
        self._values: dict[Hashable, float] = {}
        self._derivs: dict[Hashable, float] = {}
        self._integrals: dict[Hashable, float] = {}
        self._pending_values: dict[Hashable, float] = {}
        self._pending_derivs: dict[Hashable, float] = {}
        self._pending_integrals: dict[Hashable, float] = {}
        self._raw_values: dict[Hashable, object] = {}
        self._raw_derivs: dict[Hashable, object] = {}
        self._raw_integrals: dict[Hashable, object] = {}
        self._raw_integrands: dict[Hashable, object] = {}

    # ------------------------------------------------------------------ setup
    def set_step(self, h: float) -> None:
        """Set the current timestep (must be positive)."""
        if h <= 0.0:
            raise AnalysisError(f"timestep must be positive, got {h}")
        self.h = h

    def set_initial(self, key: Hashable, value: float, derivative: float = 0.0) -> None:
        """Initialise the committed history of a differentiated quantity."""
        self._values[key] = float(value)
        self._derivs[key] = float(derivative)

    # -------------------------------------------------------------- operators
    def coefficient(self) -> float:
        """Leading coefficient ``c0`` so that ``d/dt x ~= c0*x_new + history``."""
        if self.priming:
            return 0.0
        if self.h <= 0.0:
            raise AnalysisError("integrator step has not been set")
        if self.method == self.BACKWARD_EULER:
            return 1.0 / self.h
        return 2.0 / self.h

    def differentiate(self, key: Hashable, value):
        """Discretized time derivative of ``value`` identified by ``key``.

        ``value`` may be a float or an AD dual; the arithmetic propagates the
        derivative part automatically.  The plain value is remembered as the
        *pending* state so that :meth:`commit` can promote it once the step is
        accepted.
        """
        if self.priming:
            derivative = 0.0 * value
            self._pending_values[key] = _plain(value)
            self._pending_derivs[key] = 0.0
            if self.capture_raw:
                self._raw_values[key] = value
                self._raw_derivs[key] = derivative
            return derivative
        c0 = self.coefficient()
        old_value = self._values.get(key, _plain(value))
        old_deriv = self._derivs.get(key, 0.0)
        if self.method == self.BACKWARD_EULER:
            derivative = (value - old_value) * c0
        else:
            derivative = (value - old_value) * c0 - old_deriv
        self._pending_values[key] = _plain(value)
        self._pending_derivs[key] = _plain(derivative)
        if self.capture_raw:
            self._raw_values[key] = value
            self._raw_derivs[key] = derivative
        return derivative

    def integrate(self, key: Hashable, value, initial: float = 0.0):
        """Discretized running integral of ``value`` identified by ``key``."""
        old_integral = self._integrals.get(key, float(initial))
        if self.priming:
            integral = 0.0 * value + old_integral
            self._pending_values[("integ", key)] = _plain(value)
            self._pending_integrals[key] = _plain(integral)
            if self.capture_raw:
                self._raw_integrands[key] = value
                self._raw_integrals[key] = integral
            return integral
        old_value = self._values.get(("integ", key), _plain(value))
        if self.method == self.BACKWARD_EULER:
            integral = old_integral + self.h * value
        else:
            integral = old_integral + 0.5 * self.h * (value + old_value)
        self._pending_values[("integ", key)] = _plain(value)
        self._pending_integrals[key] = _plain(integral)
        if self.capture_raw:
            self._raw_integrands[key] = value
            self._raw_integrals[key] = integral
        return integral

    def commit(self) -> None:
        """Promote the pending states after a time step has been accepted."""
        self._values.update(self._pending_values)
        self._derivs.update(self._pending_derivs)
        self._integrals.update(self._pending_integrals)
        self._pending_values = {}
        self._pending_derivs = {}
        self._pending_integrals = {}
        self.clear_raw()

    def discard(self) -> None:
        """Drop pending states after a rejected step."""
        self._pending_values = {}
        self._pending_derivs = {}
        self._pending_integrals = {}
        self.clear_raw()

    # ------------------------------------------------------- sensitivity hooks
    def clear_raw(self) -> None:
        """Drop the captured raw pending expressions (one assembly's worth)."""
        self._raw_values = {}
        self._raw_derivs = {}
        self._raw_integrals = {}
        self._raw_integrands = {}

    def state_slots(self) -> list[tuple[str, Hashable]]:
        """``(kind, key)`` identity of every captured dynamic-state slot.

        Valid after a ``capture_raw`` assembly; the order is the (stable)
        device stamping order, so repeated assemblies of one circuit
        enumerate identical slots.
        """
        slots: list[tuple[str, Hashable]] = []
        for key in self._raw_values:
            slots.append(("value", key))
            slots.append(("deriv", key))
        for key in self._raw_integrals:
            slots.append(("integral", key))
            slots.append(("integrand", key))
        return slots

    def raw_pending(self, kind: str, key: Hashable):
        """The captured (unstripped) pending expression of one state slot."""
        store = {"value": self._raw_values, "deriv": self._raw_derivs,
                 "integral": self._raw_integrals,
                 "integrand": self._raw_integrands}[kind]
        return store[key]

    def committed_state(self, kind: str, key: Hashable):
        """Read one committed state entry (the counterpart of
        :meth:`override_state`); raises ``KeyError`` for unknown slots."""
        if kind == "value":
            return self._values[key]
        if kind == "deriv":
            return self._derivs[key]
        if kind == "integral":
            return self._integrals[key]
        if kind == "integrand":
            return self._values[("integ", key)]
        raise AnalysisError(f"unknown integrator state kind {kind!r}")

    def override_state(self, kind: str, key: Hashable, value) -> None:
        """Replace one *committed* state entry (sensitivity seeding only).

        ``value`` may be an AD dual; the next assembly then propagates the
        dependence of the residual on this piece of integrator history.
        """
        if kind == "value":
            self._values[key] = value
        elif kind == "deriv":
            self._derivs[key] = value
        elif kind == "integral":
            self._integrals[key] = value
        elif kind == "integrand":
            self._values[("integ", key)] = value
        else:
            raise AnalysisError(f"unknown integrator state kind {kind!r}")


_compile_runtime_module = None


def compile_runtime():
    """The compiled-kernel runtime (:mod:`repro.hdl.compile.runtime`).

    Imported lazily at first use: the compile package imports this module,
    so a top-level import would be circular.
    """
    global _compile_runtime_module
    if _compile_runtime_module is None:
        from ..hdl.compile import runtime
        _compile_runtime_module = runtime
    return _compile_runtime_module


def _plain(value) -> float:
    """Value part of a float or dual."""
    return float(getattr(value, "value", value))


#: Serial dense Jacobians of up to this many unknowns accumulate in a
#: Python list, larger ones in a flat ndarray.  A list entry reads and
#: writes several times faster than an ndarray element, but a circuit
#: stamps O(n) entries while the list's conversion costs O(n*n): timed
#: per assembly (``benchmarks/bench_serial_assembly.py``), the list wins
#: below ~20-40 unknowns and loses 15-30 % at 50-100, ~85 % at 200.
LIST_JACOBIAN_LIMIT = 24


def _snapshot(values, shape: tuple) -> np.ndarray:
    """A read-only array copy of accumulated floats."""
    array = np.array(values, dtype=float).reshape(shape)
    array.flags.writeable = False
    return array


class MNASystem:
    """Unknown numbering and assembly driver for one circuit.

    The unknown vector layout is ``[across(node_0) ... across(node_{N-1}),
    aux_0 ... aux_{M-1}]`` where the auxiliary unknowns are allocated in
    device insertion order using each device's :meth:`aux_names`.
    """

    def __init__(self, circuit: Circuit) -> None:
        circuit.validate()
        self.circuit = circuit
        self.nodes: list[Node] = circuit.nodes
        self._node_index: dict[str, int] = {node.name: i for i, node in enumerate(self.nodes)}
        self._aux_index: dict[tuple[str, str], int] = {}
        offset = len(self.nodes)
        for device in circuit:
            for aux_name in device.aux_names():
                key = (device.name, aux_name)
                if key in self._aux_index:
                    raise NetlistError(
                        f"device {device.name!r} declares auxiliary unknown "
                        f"{aux_name!r} twice")
                self._aux_index[key] = offset
                offset += 1
        self.size = offset
        self.num_nodes = len(self.nodes)
        self.num_aux = offset - len(self.nodes)
        #: COO->CSR pattern cache shared by every sparse assembly of this
        #: system; the stamp stream of a fixed topology repeats its
        #: coordinates, so only the first assembly pays the reduction.
        self.structure_cache = StructureCache()
        self._node_signal_names: list[str] | None = None
        self._aux_signal_names: list[str] | None = None
        #: ``(mode, task) -> StampProgram`` of a system holding compiled
        #: behavioral devices (built lazily by
        #: :mod:`repro.hdl.compile.runtime`); None when it holds none and
        #: assembly simply stamps device by device.
        self.stamp_programs: dict | None = \
            {} if any(device.compiled_stamps for device in circuit) else None
        #: Batched-assembly group plans (:mod:`repro.circuit.analysis.batch`)
        #: by per-device batch-safety flags, built lazily.
        self.batch_plans: dict = {}

    # ------------------------------------------------------------------ lookups
    def index_of(self, node: Node) -> int:
        """Index of a node's across unknown; -1 for the ground reference."""
        if node.is_ground:
            return -1
        try:
            return self._node_index[node.name]
        except KeyError:
            raise NetlistError(f"node {node.name!r} is not part of this system") from None

    def aux_index(self, device: "Device | str", aux_name: str) -> int:
        """Index of a device's auxiliary unknown."""
        name = device if isinstance(device, str) else device.name
        try:
            return self._aux_index[(name, aux_name)]
        except KeyError:
            raise NetlistError(
                f"device {name!r} has no auxiliary unknown {aux_name!r}") from None

    def unknown_labels(self) -> list[str]:
        """Human-readable labels of the unknowns, in vector order."""
        labels = list(self.node_signal_names())
        aux = sorted(self._aux_index.items(), key=lambda item: item[1])
        labels.extend(f"{device}#{name}" for (device, name), _ in aux)
        return labels

    def node_signal_names(self) -> list[str]:
        """Result names ``v(<node>)`` of the node unknowns, in vector order
        (memoized like :meth:`aux_signal_names`)."""
        names = self._node_signal_names
        if names is None:
            names = self._node_signal_names = [f"v({node.name})"
                                               for node in self.nodes]
        return names

    def aux_signal_names(self) -> list[str]:
        """Canonical result names of the auxiliary unknowns, in vector order.

        The unknown layout is fixed at construction, so the list is computed
        once and memoized -- per-step output collection must not re-format
        and re-sort the label map.
        """
        names = self._aux_signal_names
        if names is None:
            names = [canonical_signal_name(label)
                     for label in self.unknown_labels()[self.num_nodes:]]
            self._aux_signal_names = names
        return names

    # ------------------------------------------------------------------ assembly
    def assemble(self, x: np.ndarray, analysis: str, time: float,
                 integrator: Integrator | None, options: "SimulationOptions",
                 source_scale: float = 1.0,
                 want_jacobian: bool = True,
                 limits: "LimitState | None" = None) -> "StampContext":
        """Build the residual (and, unless disabled, the Jacobian) at ``x``.

        ``want_jacobian=False`` assembles the residual only: Jacobian stamps
        are dropped and behavioral devices evaluate on plain floats instead
        of AD duals.  Used for chord-Newton iterations and integrator
        priming, where the Jacobian is never read.  ``limits`` is the junction
        limiting state of the Newton solve assembling (see
        :class:`LimitState`).
        """
        ctx = StampContext(self, x, analysis=analysis, time=time,
                           integrator=integrator, options=options,
                           source_scale=source_scale, want_jacobian=want_jacobian,
                           limits=limits)
        if not telemetry.enabled():
            return self.run_stamps(ctx)
        # The full/residual split is the AD-overhead measurement: a full
        # assembly propagates dual numbers through every behavioral device,
        # a residual-only one evaluates on plain floats.
        t0 = perf_counter()
        ctx = self.run_stamps(ctx)
        kind = "full" if want_jacobian else "residual"
        telemetry.registry.observe(f"mna.assembly.{analysis}.{kind}_s",
                                   perf_counter() - t0)
        return ctx

    def run_stamps(self, ctx: "StampContext") -> "StampContext":
        """Drive every device stamp over an existing (possibly specialised)
        context -- the sensitivity layer assembles through its dual-seeded
        :class:`StampContext` subclasses this way.  Systems holding
        behavioral devices stamp through their compiled stamp program.  The
        assembly ends with :meth:`StampContext.finish`."""
        if self.stamp_programs is None:
            for device in self.circuit:
                device.stamp(ctx)
        else:
            compile_runtime().run_stamps(self, ctx)
        ctx.apply_gmin(ctx.options.gmin)
        ctx.finish()
        return ctx

    def record_outputs(self, ctx: "StampContext", out: dict) -> None:
        """Add every device's recorded outputs at ``ctx`` to ``out``, in
        device order (compiled record functions for behavioral devices)."""
        if self.stamp_programs is None:
            for device in self.circuit:
                for key, value in device.record(ctx).items():
                    out[key] = float(value)
        else:
            compile_runtime().record_outputs(self, ctx, out)

    def assemble_ac(self, op_values: np.ndarray,
                    options: "SimulationOptions") -> "ACStampContext":
        """Build the small-signal system once, for every frequency: each
        device's :meth:`stamp` linearized at ``op_values`` as exact
        coefficients of the powers of ``s`` (:class:`ACStampContext`),
        then its AC excitation.  :meth:`ACStampContext.at` evaluates it."""
        t0 = perf_counter() if telemetry.enabled() else None
        ctx = ACStampContext(self, op_values, options=options)
        for device in self.circuit:
            device.stamp(ctx)
            device.ac_excitation(ctx)
        ctx.apply_gmin(options.gmin)
        if t0 is not None:
            telemetry.registry.observe("mna.assembly.ac_s", perf_counter() - t0)
        return ctx


#: A junction voltage that moved by no more than this (relative) since the
#: previous Newton iteration counts as held in place (rounding only).
_HELD_RTOL = 64 * np.finfo(float).eps


class LimitState:
    """Junction-limiting state of one Newton solve over B lanes.

    :func:`~repro.circuit.analysis.op.newton_lanes` creates one per solve
    and threads it through its assemblies; device stamps reach it as the
    context's ``limits`` (None outside a Newton solve, so those assemblies
    never limit).  Per limiting stamper -- a device, or a batch group view
    whose values are ``(k, B)`` blocks -- it keeps the junction voltage the
    previous iteration was evaluated at and the one its iterate had.  The
    first assembly of a solve takes the voltages of its initial iterate, so
    it never limits, and :meth:`advance` moves the state on once per Newton
    iteration: every assembly of one iteration (a chord stall re-assembly
    included) limits against the same previous values and stamps the same
    numbers.

    A junction whose iterate voltage the last iteration left in place (to
    rounding, :data:`_HELD_RTOL`) is held there by the rest of the circuit
    -- ideal sources across it -- so its own linearization cannot steer it:
    it is evaluated where it is instead of being walked up through ever
    larger, ill-conditioned conductances.
    """

    def __init__(self, batch: int) -> None:
        self.batch = batch
        self._previous: dict = {}
        self._current: dict = {}
        #: ``(B,)`` mask of the lanes in which a stamp limited on this
        #: iteration; None while none did.
        self.limited: np.ndarray | None = None

    def limit(self, key, v, limiter):
        """``v`` limited against ``key``'s previous value by ``limiter(v,
        v_old) -> (v_lim, limited)``, which returns ``v`` itself when no
        element limits (as :func:`~repro.circuit.devices.nonlinear.pnjlim`
        does).  A float ``v`` (serial context) comes back as a float."""
        previous = self._previous.get(key)
        self._current[key] = (v, v)
        if previous is None:
            return v
        v_old, v_seen = previous
        held = abs(v - v_seen) <= _HELD_RTOL * abs(v)
        if isinstance(v, np.ndarray):
            v_old = np.where(held, v, v_old)
        elif held:
            return v
        v_lim, hit = limiter(v, v_old)
        if v_lim is v:
            return v
        lanes = np.reshape(hit, (-1, self.batch)).any(axis=0)
        self.limited = lanes if self.limited is None else self.limited | lanes
        if not isinstance(v, np.ndarray):
            v_lim = float(v_lim)
        self._current[key] = (v_lim, v)
        return v_lim

    def advance(self) -> None:
        """Start the next Newton iteration: this one's voltages become the
        previous ones."""
        self._previous.update(self._current)
        self.limited = None

    def narrow(self, lanes: np.ndarray) -> None:
        """Keep only ``lanes``: the state of a block that goes on over
        those lanes (voltages keep the lane axis last)."""
        batch = self.batch
        for table in (self._previous, self._current):
            for key, pair in table.items():
                table[key] = tuple(
                    v[..., lanes] if isinstance(v, np.ndarray)
                    and v.shape[-1:] == (batch,) else v for v in pair)
        self.batch = len(lanes)
        self.limited = None


class StampContext:
    """Mutable assembly workspace handed to every device's :meth:`stamp`.

    A serial assembly accumulates on Python floats, whose scalar reads and
    writes cost a fraction of numpy element access: the residual into a
    list of ``n`` floats and, in sparse mode, the Jacobian into COO triplet
    lists.  The dense Jacobian accumulates flat and row-major (entry
    ``row * n + col``): in a list of ``n*n`` floats up to
    :data:`LIST_JACOBIAN_LIMIT` unknowns, in an ndarray above it, where
    converting the list would cost more than its faster writes save.  The
    accessors read the iterate from :attr:`x_list`, ``x`` as a list.
    :meth:`finish` (the end of :meth:`MNASystem.run_stamps`) converts the
    accumulation once; :attr:`res` and :attr:`jac` (an ``(n, n)`` view)
    read the result.  Read before that, they are read-only snapshots of
    what has accumulated so far.  ``storage`` hands in the ``(res, jac)``
    accumulators instead -- the views of a batch lane's rows that
    :meth:`BatchStampContext.lane_context` stamps into.
    """

    #: When True (sensitivity assemblies), devices must hand residual
    #: expressions to :meth:`add_res`/:meth:`add_through` *without* stripping
    #: AD duals -- the context separates value and derivative parts itself.
    keep_residual_duals = False

    def __init__(self, system: MNASystem, x: np.ndarray, analysis: str, time: float,
                 integrator: Integrator | None, options: "SimulationOptions",
                 source_scale: float = 1.0, want_jacobian: bool = True,
                 limits: LimitState | None = None,
                 storage: tuple | None = None) -> None:
        self.system = system
        #: The :class:`LimitState` of the Newton solve assembling through
        #: this context; None (nothing limits) for every other assembly.
        self.limits = limits
        self.x = np.asarray(x, dtype=float)
        if self.x.shape != (system.size,):
            raise AnalysisError(
                f"solution vector has shape {self.x.shape}, expected ({system.size},)")
        #: ``x`` as a list of floats, read by the accessors and by compiled
        #: stamp functions.
        self.x_list: list[float] = self.x.tolist()
        self.analysis = analysis
        self.time = time
        self.integrator = integrator
        self.options = options
        self.source_scale = source_scale
        #: False for residual-only assemblies: ``add_jac`` becomes a no-op
        #: and devices may skip derivative propagation entirely.
        self.want_jacobian = want_jacobian
        n = self._size = system.size
        #: Above ``options.sparse_threshold`` unknowns (or when forced by
        #: ``options.linear_solver``) the Jacobian is accumulated as COO
        #: triplets instead of densely; ``jacobian()`` then yields a
        #: SciPy CSR matrix and ``jac`` stays None.
        self.use_sparse = options.use_sparse(n) and storage is None
        if storage is not None:
            self._res, self._jac = storage
        else:
            self._res = [0.0] * n
            if self.use_sparse or not want_jacobian:
                self._jac = None
            elif n <= LIST_JACOBIAN_LIMIT:
                self._jac = [0.0] * (n * n)
            else:
                self._jac = np.zeros(n * n)
        if self._jac is None:
            self._jac_rows: list[int] = []
            self._jac_cols: list[int] = []
            self._jac_vals: list[float] = []
        #: The ``(res, jac)`` views of the assembled array, set by
        #: :meth:`finish`.
        self._assembled: tuple | None = None

    # ------------------------------------------------------------------ access
    def node_index(self, node: Node) -> int:
        """Unknown index of ``node`` (-1 for ground)."""
        return self.system.index_of(node)

    def aux_index(self, device: "Device | str", name: str) -> int:
        """Unknown index of a device auxiliary variable."""
        return self.system.aux_index(device, name)

    def across(self, node: Node) -> float:
        """Across value (voltage / velocity) of ``node`` at the current iterate."""
        idx = self.system.index_of(node)
        return 0.0 if idx < 0 else self.x_list[idx]

    def aux_value(self, device: "Device | str", name: str) -> float:
        """Value of a device auxiliary unknown at the current iterate."""
        return self.x_list[self.system.aux_index(device, name)]

    def unknown_value(self, index: int) -> float:
        """Raw unknown value by vector index (-1 yields 0)."""
        return 0.0 if index < 0 else self.x_list[index]

    @property
    def res(self) -> np.ndarray:
        """The ``(n,)`` residual: the assembled array once :meth:`finish`
        ran, else a read-only snapshot of the accumulation so far."""
        if self._assembled is not None:
            return self._assembled[0]
        return _snapshot(self._res, (self._size,))

    @property
    def jac(self) -> np.ndarray | None:
        """The dense ``(n, n)`` Jacobian, like :attr:`res`; None in sparse
        and residual-only assemblies."""
        if self._assembled is not None:
            return self._assembled[1]
        if self._jac is None:
            return None
        return _snapshot(self._jac, (self._size, self._size))

    # --------------------------------------------------------------- stamping
    def add_jac(self, row: int, col: int, value: float) -> None:
        """Accumulate ``d res[row] / d x[col]``; ground rows/cols are ignored."""
        if row < 0 or col < 0 or not self.want_jacobian:
            return
        if self.use_sparse:
            self._jac_rows.append(row)
            self._jac_cols.append(col)
            self._jac_vals.append(value)
        else:
            self._jac[row * self._size + col] += value

    def jacobian(self):
        """The assembled Jacobian: dense ndarray, or CSR in sparse mode.

        The sparse path routes through the system's
        :class:`~repro.linalg.StructureCache`: duplicate entries are summed
        in stamp order into the cached CSR pattern, so repeated assemblies
        of an unchanged topology skip the COO sort/deduplicate work.
        """
        if not self.want_jacobian:
            raise AnalysisError(
                "this context was assembled residual-only (want_jacobian=False)")
        if not self.use_sparse:
            return self.jac
        return self.system.structure_cache.assemble(
            self._jac_rows, self._jac_cols, self._jac_vals, self._size)

    def jacobian_is_finite(self) -> bool:
        """Whether every accumulated Jacobian entry is finite."""
        if not self.want_jacobian:
            return True
        return bool(np.isfinite(
            self._jac_vals if self.use_sparse else self.jac).all())

    def add_res(self, row: int, value: float) -> None:
        """Accumulate into the residual row; the ground row is ignored."""
        if row < 0:
            return
        self._res[row] += value

    def add_through(self, p_index: int, n_index: int, value: float) -> None:
        """Add a through value flowing from index ``p`` to index ``n``."""
        self.add_res(p_index, value)
        self.add_res(n_index, -value)

    def add_through_jac(self, p_index: int, n_index: int, col: int, dvalue: float) -> None:
        """Jacobian counterpart of :meth:`add_through`."""
        self.add_jac(p_index, col, dvalue)
        self.add_jac(n_index, col, -dvalue)

    def apply_gmin(self, gmin: float) -> None:
        """Tie every node to ground with ``gmin`` to avoid singular matrices."""
        if gmin <= 0.0:
            return
        n_nodes = self.system.num_nodes
        if self.want_jacobian:
            if self.use_sparse:
                diag = range(n_nodes)
                self._jac_rows.extend(diag)
                self._jac_cols.extend(diag)
                self._jac_vals.extend([gmin] * n_nodes)
            elif isinstance(self._jac, np.ndarray):
                self._jac[:n_nodes * (self._size + 1):self._size + 1] += gmin
            else:
                jac, step = self._jac, self._size + 1
                for i in range(0, n_nodes * step, step):
                    jac[i] += gmin
        res, x = self._res, self.x_list
        for i in range(n_nodes):
            res[i] += gmin * x[i]

    def finish(self) -> None:
        """End the assembly: convert the accumulated floats, with one array
        conversion, into the arrays that :attr:`res`, :attr:`jac` and
        :meth:`jacobian` read from now on."""
        n, jac = self._size, self._jac
        if isinstance(jac, np.ndarray):
            self._assembled = (np.array(self._res, dtype=float),
                               jac.reshape(n, n))
            return
        buffer = np.array(self._res + (self._jac_vals if jac is None else jac),
                          dtype=float)
        if jac is None:
            self._assembled = (buffer[:n], None)
            self._jac_vals = buffer[n:]
        else:
            self._assembled = (buffer[:n], buffer[n:].reshape(n, n))

    # ------------------------------------------------------- behavioral duals
    def seed(self, value: float, position: int | None, nvars: int) -> Dual:
        """A dual of ``value`` seeded on dependency ``position`` of ``nvars``
        (a constant when ``position`` is None)."""
        deriv = np.zeros(nvars)
        if position is not None:
            deriv[position] = 1.0
        return Dual(value, deriv)

    def jacobian_entries(self, value: Dual, deps: list[int]) -> list:
        """``(column, entry)`` for every unknown in ``deps`` that a dual
        seeded by :meth:`seed` depends on."""
        return [(idx, float(d)) for idx, d in zip(deps, value.deriv)
                if d != 0.0]

    # ------------------------------------------------------------ time dynamics
    @property
    def is_dc(self) -> bool:
        """True for operating-point and DC-sweep assemblies."""
        return self.analysis in ("op", "dc")

    @property
    def is_transient(self) -> bool:
        """True during transient time stepping."""
        return self.analysis == "tran"

    def ddt_coefficient(self) -> float:
        """``d(ddt(x))/dx`` of the active discretization (0 at DC)."""
        if self.is_dc or self.integrator is None:
            return 0.0
        return self.integrator.coefficient()

    def ddt(self, key: Hashable, value):
        """Discretized time derivative of ``value`` (0 at DC)."""
        if self.is_dc or self.integrator is None:
            return 0.0 * value
        return self.integrator.differentiate(key, value)

    def integ(self, key: Hashable, value, initial: float = 0.0):
        """Running integral of ``value`` (frozen at its initial value at DC)."""
        if self.is_dc or self.integrator is None:
            return 0.0 * value + initial
        return self.integrator.integrate(key, value, initial=initial)


class BatchScatter:
    """Where the stamp calls of one batched assembly land.

    Built once per group plan by :meth:`probe`, an assembly that records
    every ``add_res`` / ``add_jac`` call as ``(positions, row[, col])``:
    ``positions`` is the stamping device's circuit position -- a ``(k,)``
    column for a group view, whose rows/columns are index columns with
    ground mapped to the padding slot ``n``; an int, with ``-1`` for
    ground, for a single device.  Call ``i`` owns the buffer slot
    ``res_slots[i]`` / ``jac_slots[i]``: one row of the assembly's
    ``(K, B)`` value buffer, or ``k`` rows for a group call.

    Contributions land in one ``(n + n*n, B)`` block -- the residual rows,
    then the flattened Jacobian -- through duplicate-free *layers*: layer
    ``L`` holds the ``L``-th contribution of every entry, counted in device
    order (circuit position, then call order), so each entry sums its
    contributions exactly as per-device stamps would.  ``res_layers``
    covers the residual alone (residual-only assemblies); the sparse
    Jacobian is the same contributions as one triplet stream in device
    order.  Ground rows and columns are dropped.
    """

    def __init__(self, size: int, res_calls: list, jac_calls: list) -> None:
        self.res_slots, res_width, res_targets, res_sources = \
            _scatter_slots(size, res_calls, 0, jac=False)
        self.jac_slots, jac_width, jac_targets, self.jac_sources = \
            _scatter_slots(size, jac_calls, res_width, jac=True)
        self.width = res_width + jac_width
        self.res_layers = _scatter_layers(res_targets, res_sources)
        self.full_layers = _scatter_layers(
            np.concatenate((res_targets, size + jac_targets)),
            np.concatenate((res_sources, self.jac_sources)))
        #: Sparse triplet coordinates, in device order.
        self.jac_rows, self.jac_cols = np.divmod(jac_targets, size)

    @classmethod
    def probe(cls, system: MNASystem, entries, x: np.ndarray, analysis: str,
              options: "SimulationOptions",
              source_scale: float = 1.0) -> "BatchScatter":
        """The scatter of ``entries`` -- ``(stamper, positions)`` pairs in
        stamping order -- recorded by stamping them once at ``x``."""
        ctx = _ProbeContext(system, x, analysis, options,
                            source_scale=source_scale)
        for stamper, positions in entries:
            ctx.positions = positions
            stamper.stamp(ctx)
        return cls(system.size, ctx.res_calls, ctx.jac_calls)


def _scatter_slots(size: int, calls: list, offset: int, jac: bool):
    """Buffer slots of ``calls`` (from row ``offset`` on), their total
    width, and their non-ground contributions as ``(targets, sources)`` in
    device order.  Residual calls are ``(positions, row)`` and target
    ``row``; Jacobian calls are ``(positions, row, col)`` and target the
    flat ``row * size + col``."""
    slots: list[int | slice] = []
    columns: list[list[int]] = [[], [], [], []]  # position, call, row, col
    start = offset
    for call, (positions, row, *col) in enumerate(calls):
        if isinstance(positions, np.ndarray):
            k = positions.size
            slots.append(slice(start, start + k))
        else:
            k = 1
            slots.append(start)
        start += k
        for column, value in zip(columns, (positions, call, row,
                                           col[0] if jac else 0)):
            column.extend(value.tolist() if isinstance(value, np.ndarray)
                          else [int(value)] * k)
    position, call, row, col = (np.array(column, dtype=np.intp)
                                for column in columns)
    keep = (row >= 0) & (row < size) & (col >= 0) & (col < size)
    order = np.lexsort((call[keep], position[keep]))
    targets = (row * size + col if jac else row)[keep][order]
    sources = np.arange(offset, start, dtype=np.intp)[keep][order]
    return slots, start - offset, targets, sources


def _scatter_layers(targets: np.ndarray, sources: np.ndarray) -> list:
    """Split device-ordered contributions into duplicate-free layers: the
    ``L``-th contribution to each entry goes to layer ``L``."""
    layers: list[tuple[list[int], list[int]]] = []
    seen: dict[int, int] = {}
    for target, source in zip(targets.tolist(), sources.tolist()):
        rank = seen.get(target, 0)
        seen[target] = rank + 1
        if rank == len(layers):
            layers.append(([], []))
        layers[rank][0].append(target)
        layers[rank][1].append(source)
    return [(np.array(layer_targets, dtype=np.intp),
             np.array(layer_sources, dtype=np.intp))
            for layer_targets, layer_sources in layers]


class BatchStampContext(StampContext):
    """Assembly workspace for B stacked DC/OP systems of one circuit.

    ``x`` has shape ``(B, n)``; accessors return ``(B,)`` value lanes for
    nodes and unknown indices.  They also take the *index columns* of a
    group view (:mod:`repro.circuit.analysis.batch`): a ``(k,)`` integer
    array, with ground mapped to the padding slot ``n``, reads a
    ``(k, B)`` block (lanes last), and ``aux_index`` returns the view's
    ``batch_aux`` column.

    With a :class:`BatchScatter`, :meth:`stamp_all` runs the stamps: their
    ``add_*`` calls write values into one ``(K, B)`` buffer at the
    scatter's slots, in call order, and the buffer is then added into the
    ``(B, n)`` residual and the ``(B, n, n)`` Jacobian (dense mode) or into
    one ``(K, B)`` triplet value block (sparse mode).  Devices that cannot
    broadcast stamp afterwards, per lane, through :meth:`lane_context`,
    whose genuine serial :class:`StampContext` writes straight into this
    batch's dense arrays.  A context without a scatter only serves
    accessors (output collection).  ``limits`` reaches the lane-axis stamps
    only: lane contexts do not limit (the junction-limiting diode always
    stamps on the lane axis).

    Restricted to DC-class analyses (``op``/``dc``): the lane axis replaces
    the time axis, and no integrator state is threaded through.
    """

    #: The ``(B, n)`` residual and ``(B, n, n)`` dense Jacobian blocks (the
    #: Jacobian None in sparse mode): plain attributes, which the stamps
    #: build up as arrays, in place of the serial context's properties.
    res = jac = None

    def __init__(self, system: MNASystem, x: np.ndarray, analysis: str,
                 options: "SimulationOptions",
                 scatter: BatchScatter | None = None,
                 source_scale: float = 1.0, want_jacobian: bool = True,
                 force_dense: bool = False,
                 limits: LimitState | None = None) -> None:
        if analysis not in ("op", "dc"):
            raise AnalysisError(
                f"batched assembly supports DC-class analyses only, got "
                f"{analysis!r}")
        self.system = system
        self.x = np.asarray(x, dtype=float)
        if self.x.ndim != 2 or self.x.shape[1] != system.size:
            raise AnalysisError(
                f"batched solution block has shape {self.x.shape}, expected "
                f"(B, {system.size})")
        batch = self.batch = self.x.shape[0]
        self.analysis = analysis
        self.time = 0.0
        self.integrator = None
        self.options = options
        self.source_scale = source_scale
        self.want_jacobian = want_jacobian
        self.limits = limits
        self.use_sparse = options.use_sparse(system.size) and not force_dense
        self.res = self.jac = None
        self._x_pad = np.concatenate((self.x.T, np.zeros((1, batch))))
        self._scatter = scatter
        if scatter is not None:
            self._buf = np.empty((scatter.width, batch))
            self._res_next = self._jac_next = 0

    # ------------------------------------------------------------------ access
    def node_index(self, node):
        if isinstance(node, np.ndarray):
            return node
        return self.system.index_of(node)

    def aux_index(self, device, name: str):
        columns = getattr(device, "batch_aux", None)
        if columns is not None:
            return columns[name]
        return self.system.aux_index(device, name)

    def across(self, node):
        if isinstance(node, np.ndarray):
            return self._x_pad[node]
        idx = self.system.index_of(node)
        return 0.0 if idx < 0 else self.x[:, idx]

    def aux_value(self, device, name: str):
        return self.unknown_value(self.aux_index(device, name))

    def unknown_value(self, index):
        if isinstance(index, np.ndarray):
            return self._x_pad[index]
        return 0.0 if index < 0 else self.x[:, index]

    # --------------------------------------------------------------- stamping
    def add_res(self, row, value) -> None:
        self._buf[self._scatter.res_slots[self._res_next]] = value
        self._res_next += 1

    def add_jac(self, row, col, value) -> None:
        if not self.want_jacobian:
            return
        self._buf[self._scatter.jac_slots[self._jac_next]] = value
        self._jac_next += 1

    def stamp_all(self, stampers) -> bool:
        """Stamp every one of ``stampers`` into the value buffer, then add
        the buffer into the residual and Jacobian.

        Returns False, adding nothing, when the stamps made a different
        number of calls than the scatter was built from.
        """
        sc = self._scatter
        want_jacobian = self.want_jacobian
        res_calls = len(sc.res_slots)
        jac_calls = len(sc.jac_slots) if want_jacobian else 0
        try:
            for stamper in stampers:
                stamper.stamp(self)
        except IndexError:
            # Raised by a slot lookup past the end: more calls than slots.
            if self._res_next == res_calls or (
                    want_jacobian and self._jac_next == jac_calls):
                return False
            raise
        if self._res_next != res_calls or self._jac_next != jac_calls:
            return False
        n, batch, buf = self.system.size, self.batch, self._buf
        dense = want_jacobian and not self.use_sparse
        # Lanes last: every layer moves whole contiguous rows.
        out = np.zeros((n + n * n if dense else n, batch))
        for target, source in sc.full_layers if dense else sc.res_layers:
            out[target] += buf[source]
        self._out = out
        self.res = out[:n].T
        if dense:
            self.jac = out[n:].T.reshape(batch, n, n)
        elif want_jacobian:
            self._jac_rows = sc.jac_rows
            self._jac_cols = sc.jac_cols
            self._jac_vals = buf[sc.jac_sources]
        return True

    def jacobian(self):
        """``(B, n, n)`` dense stack, or a list of B CSR lanes in sparse mode."""
        if not self.want_jacobian:
            raise AnalysisError(
                "this context was assembled residual-only (want_jacobian=False)")
        if not self.use_sparse:
            return self.jac
        return self.system.structure_cache.assemble_batch(
            self._jac_rows, self._jac_cols, self._jac_vals, self.system.size)

    def residual_finite_lanes(self) -> np.ndarray:
        """``(B,)`` mask of lanes whose residual is entirely finite."""
        return np.all(np.isfinite(self.res), axis=1)

    def jacobian_finite_lanes(self) -> np.ndarray:
        """``(B,)`` mask of lanes whose Jacobian is entirely finite."""
        if not self.want_jacobian:
            return np.ones(self.batch, dtype=bool)
        if self.use_sparse:
            return np.all(np.isfinite(self._jac_vals), axis=0)
        return np.all(np.isfinite(self.jac), axis=(1, 2))

    def apply_gmin(self, gmin: float) -> None:
        if gmin <= 0.0:
            return
        n_nodes = self.system.num_nodes
        if n_nodes == 0:
            return
        if self.want_jacobian:
            if self.use_sparse:
                diag = np.arange(n_nodes)
                self._jac_rows = np.concatenate((self._jac_rows, diag))
                self._jac_cols = np.concatenate((self._jac_cols, diag))
                self._jac_vals = np.concatenate(
                    (self._jac_vals, np.full((n_nodes, self.batch), gmin)))
            else:
                n = self.system.size
                self._out[n + np.arange(n_nodes) * (n + 1)] += gmin
        # The residual rows of the lanes-last block, against x transposed.
        self._out[:n_nodes] += gmin * self._x_pad[:n_nodes]

    # ------------------------------------------------------------- lane access
    def lane_context(self, lane: int) -> StampContext:
        """A serial :class:`StampContext` over lane ``lane``.

        Its residual (and, in dense mode, flat Jacobian) accumulators are
        *views* into this batch's arrays, so non-broadcastable devices stamp
        through their unchanged serial code path and land in the right
        lane, each entry summing in the order it would in the lane itself.
        Only available in dense mode -- per-lane triplet streams may diverge
        (behavioral stamps skip exact-zero derivatives), which is exactly
        why mixed circuits assemble dense.
        """
        if self.use_sparse:
            raise AnalysisError(
                "per-lane stamping requires dense batch assembly "
                "(construct the batch context with force_dense=True)")
        jac = self.jac[lane].reshape(-1) if self.want_jacobian else None
        return StampContext(self.system, self.x[lane], analysis=self.analysis,
                            time=self.time, integrator=None,
                            options=self.options,
                            source_scale=self.source_scale,
                            want_jacobian=self.want_jacobian,
                            storage=(self.res[lane], jac))


class _ProbeContext(BatchStampContext):
    """Records the stamp calls a :class:`BatchScatter` is built from."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.positions: int | np.ndarray = -1
        self.res_calls: list = []
        self.jac_calls: list = []

    def add_res(self, row, value) -> None:
        self.res_calls.append((self.positions, row))

    def add_jac(self, row, col, value) -> None:
        self.jac_calls.append((self.positions, row, col))


#: Highest power of ``s`` (either sign) a small-signal stamp may reach:
#: ``ddt(ddt(x))`` is ``s**2`` and ``integ(integ(x))`` is ``s**-2``.
MAX_S_POWER = 2
#: Length of a power-coefficient vector: the powers ``s**-2 .. s**2``.
S_POWERS = 2 * MAX_S_POWER + 1
#: The powers ``k`` in coefficient order, and the real sign of ``j**k``:
#: even powers are real, odd ones imaginary, and the sign flips every
#: second power.
_EXPONENTS = np.arange(-MAX_S_POWER, MAX_S_POWER + 1)
_J_SIGNS = np.where(_EXPONENTS % 4 >= 2, -1.0, 1.0)


def evaluate_powers(coefficients: np.ndarray, omega: float) -> np.ndarray:
    """``sum_k coefficients[k + MAX_S_POWER] * (j*omega)**k``: a stack of
    real coefficient matrices evaluated at ``s = j*omega``."""
    if not omega > 0.0:
        raise AnalysisError(
            f"small-signal angular frequency must be positive, got {omega}")
    weights = _J_SIGNS * omega ** _EXPONENTS
    flat = coefficients.reshape(S_POWERS, -1)
    matrix = np.empty(flat.shape[1], dtype=complex)
    matrix.real = weights[0::2] @ flat[0::2]
    matrix.imag = weights[1::2] @ flat[1::2]
    return matrix.reshape(coefficients.shape[1:])


class ACStampContext(StampContext):
    """Small-signal assembly: every device's own :meth:`stamp`, linearized,
    as exact real coefficients of the powers of ``s = j*omega``.

    The context sits at the operating point ``op_values``: the accessors
    read it and ``add_res`` drops its value -- a stamp's residual is the
    large-signal part, which the small-signal system does not have.  A
    Jacobian entry is a float (the ``s**0`` coefficient) or a vector of the
    coefficients of ``s**-2 .. s**2``; ``add_jac`` accumulates it into
    ``coefficients``, the ``(S_POWERS, n, n)`` stack of real matrices
    ``Y_k`` (:meth:`coefficient`).  ``ddt_coefficient()`` is ``s``; a dual
    from :meth:`seed` carries each derivative as such a vector, which
    ``ddt`` shifts one power up and ``integ`` one power down (holding its
    initial value, what it returns at the operating point).  A shift past
    ``s**2`` or ``s**-2`` raises :class:`~repro.errors.AnalysisError`;
    nothing is truncated.  Independent sources add their phasors to
    ``rhs`` in :meth:`~repro.circuit.devices.base.Device.ac_excitation`.
    Nothing limits (``limits`` is None).  :meth:`at` evaluates
    ``Y(j*omega) = sum_k Y_k (j*omega)**k``, so one assembly serves every
    frequency.
    """

    def __init__(self, system: MNASystem, op_values: np.ndarray,
                 options: "SimulationOptions") -> None:
        self.system = system
        self.x = np.asarray(op_values, dtype=float)
        if self.x.shape != (system.size,):
            raise AnalysisError(
                f"operating point has shape {self.x.shape}, expected "
                f"({system.size},)")
        self.x_list = self.x.tolist()
        self.analysis = "ac"
        self.time = 0.0
        self.integrator = None
        self.options = options
        self.source_scale = 1.0
        self.want_jacobian = True
        self.limits = None
        self.use_sparse = False
        n = system.size
        self.coefficients = np.zeros((S_POWERS, n, n))
        self.rhs = np.zeros(n, dtype=complex)

    def coefficient(self, power: int) -> np.ndarray:
        """The real matrix ``Y_power`` multiplying ``s**power``."""
        return self.coefficients[power + MAX_S_POWER]

    def at(self, omega: float) -> np.ndarray:
        """The complex small-signal matrix ``Y(j*omega)``."""
        return evaluate_powers(self.coefficients, omega)

    def add_jac(self, row: int, col: int, value) -> None:
        if row >= 0 and col >= 0:
            if isinstance(value, np.ndarray):
                self.coefficients[:, row, col] += value
            else:
                self.coefficients[MAX_S_POWER, row, col] += value

    def add_res(self, row: int, value) -> None:
        pass

    def add_rhs(self, row: int, value: complex) -> None:
        """Accumulate an AC excitation into the right-hand side."""
        if row >= 0:
            self.rhs[row] += value

    def apply_gmin(self, gmin: float) -> None:
        if gmin > 0.0:
            idx = np.arange(self.system.num_nodes)
            self.coefficients[MAX_S_POWER, idx, idx] += gmin

    def seed(self, value: float, position: int | None, nvars: int) -> Dual:
        # Each dependency carries its coefficients of s**-2 .. s**2.
        deriv = np.zeros(nvars * S_POWERS)
        if position is not None:
            deriv[position * S_POWERS + MAX_S_POWER] = 1.0
        return Dual(value, deriv)

    def jacobian_entries(self, value: Dual, deps: list[int]) -> list:
        rows = value.deriv.reshape(len(deps), S_POWERS)
        return [(idx, row) for idx, row in zip(deps, rows) if row.any()]

    def ddt_coefficient(self) -> np.ndarray:
        return np.eye(S_POWERS)[MAX_S_POWER + 1]

    def ddt(self, key: Hashable, value):
        if isinstance(value, Dual):
            return Dual(0.0, _shift_power(value.deriv, 1, "ddt", key))
        return 0.0

    def integ(self, key: Hashable, value, initial: float = 0.0):
        if isinstance(value, Dual):
            return Dual(initial, _shift_power(value.deriv, -1, "integ", key))
        return initial


def _shift_power(deriv: np.ndarray, step: int, operator: str,
                 key: Hashable) -> np.ndarray:
    """Multiply power-coefficient derivatives (``S_POWERS`` per seed) by
    ``s**step``; the power that would leave ``s**-2 .. s**2`` must be 0."""
    edge = deriv[S_POWERS - 1::S_POWERS] if step > 0 else deriv[::S_POWERS]
    if edge.any():
        raise AnalysisError(
            f"small-signal {operator} of state {key!r} reaches a power of s "
            f"beyond s**{step * MAX_S_POWER}")
    # Every edge coefficient is 0, so shifting the whole vector shifts each
    # seed's powers without carrying into the next seed.
    shifted = np.zeros_like(deriv)
    if step > 0:
        shifted[1:] = deriv[:-1]
    else:
        shifted[:-1] = deriv[1:]
    return shifted
