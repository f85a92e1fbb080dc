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
derivative at DC, ``j*omega`` in AC handled by the separate AC context).
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Hashable, Iterable

import numpy as np

from .. import telemetry
from ..errors import AnalysisError, NetlistError
from ..linalg import StructureCache
from .netlist import Circuit, Node

if TYPE_CHECKING:  # pragma: no cover
    from .analysis.options import SimulationOptions
    from .devices.base import Device

__all__ = ["MNASystem", "Integrator", "StampContext", "BatchStampContext",
           "ACStampContext", "canonical_signal_name"]


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

    def set_initial_integral(self, key: Hashable, value: float) -> None:
        """Initialise the committed value of an integrated quantity."""
        self._integrals[key] = float(value)

    def previous_value(self, key: Hashable, default: float = 0.0) -> float:
        """Committed value of a differentiated quantity at the last time point."""
        return self._values.get(key, default)

    def previous_integral(self, key: Hashable, default: float = 0.0) -> float:
        """Committed value of an integrated quantity at the last time point."""
        return self._integrals.get(key, default)

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

    def integral_coefficient(self) -> float:
        """Coefficient ``dI/dx_new`` of the discretized running integral."""
        if self.priming:
            return 0.0
        if self.h <= 0.0:
            raise AnalysisError("integrator step has not been set")
        if self.method == self.BACKWARD_EULER:
            return self.h
        return 0.5 * self.h

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

    def state_snapshot(self) -> dict[Hashable, float]:
        """Committed integral states (used to seed AC/record contexts)."""
        return dict(self._integrals)

    # ------------------------------------------------------- sensitivity hooks
    #: Slot kinds of the dynamic-state vector seen by the sensitivity layer:
    #: ``value``/``deriv`` per ``ddt`` key and ``integral``/``integrand`` per
    #: ``integ`` key -- together they are exactly the committed history the
    #: next residual assembly reads.
    STATE_KINDS = ("value", "deriv", "integral", "integrand")

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
        self._aux_signal_names: list[str] | None = None
        #: ``(mode, task) -> StampProgram`` of a system holding compiled
        #: behavioral devices (built lazily by
        #: :mod:`repro.hdl.compile.runtime`); None when it holds none and
        #: assembly simply stamps device by device.
        self.stamp_programs: dict | None = \
            {} if any(device.compiled_stamps for device in circuit) else None

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
        labels = [f"v({node.name})" for node in self.nodes]
        aux = sorted(self._aux_index.items(), key=lambda item: item[1])
        labels.extend(f"{device}#{name}" for (device, name), _ in aux)
        return labels

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
                 want_jacobian: bool = True) -> "StampContext":
        """Build the residual (and, unless disabled, the Jacobian) at ``x``.

        ``want_jacobian=False`` assembles the residual only: Jacobian stamps
        are dropped and behavioral devices evaluate on plain floats instead
        of AD duals.  Used for record passes and chord-Newton iterations,
        where the Jacobian is never read.
        """
        ctx = StampContext(self, x, analysis=analysis, time=time,
                           integrator=integrator, options=options,
                           source_scale=source_scale, want_jacobian=want_jacobian)
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
        behavioral devices stamp through their compiled stamp program."""
        if self.stamp_programs is None:
            for device in self.circuit:
                device.stamp(ctx)
        else:
            compile_runtime().run_stamps(self, ctx)
        ctx.apply_gmin(ctx.options.gmin)
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

    def assemble_ac(self, op_values: np.ndarray, omega: float,
                    integrator_states: dict | None,
                    options: "SimulationOptions") -> "ACStampContext":
        """Build the complex small-signal system at angular frequency ``omega``."""
        t0 = perf_counter() if telemetry.enabled() else None
        ctx = ACStampContext(self, op_values, omega=omega,
                             integrator_states=integrator_states or {}, options=options)
        for device in self.circuit:
            device.stamp_ac(ctx)
        ctx.apply_gmin(options.gmin)
        if t0 is not None:
            telemetry.registry.observe("mna.assembly.ac_s", perf_counter() - t0)
        return ctx


class StampContext:
    """Mutable assembly workspace handed to every device's :meth:`stamp`."""

    #: When True (sensitivity assemblies), devices must hand residual
    #: expressions to :meth:`add_res`/:meth:`add_through` *without* stripping
    #: AD duals -- the context separates value and derivative parts itself.
    keep_residual_duals = False

    def __init__(self, system: MNASystem, x: np.ndarray, analysis: str, time: float,
                 integrator: Integrator | None, options: "SimulationOptions",
                 source_scale: float = 1.0, want_jacobian: bool = True) -> None:
        self.system = system
        self.x = np.asarray(x, dtype=float)
        if self.x.shape != (system.size,):
            raise AnalysisError(
                f"solution vector has shape {self.x.shape}, expected ({system.size},)")
        self.analysis = analysis
        self.time = time
        self.integrator = integrator
        self.options = options
        self.source_scale = source_scale
        #: False for residual-only assemblies: ``add_jac`` becomes a no-op
        #: and devices may skip derivative propagation entirely.
        self.want_jacobian = want_jacobian
        n = system.size
        self.res = np.zeros(n)
        #: Above ``options.sparse_threshold`` unknowns (or when forced by
        #: ``options.linear_solver``) the Jacobian is accumulated as COO
        #: triplets instead of a dense array; ``jacobian()`` then yields a
        #: SciPy CSR matrix and ``jac`` stays None.
        self.use_sparse = options.use_sparse(n)
        if self.use_sparse or not want_jacobian:
            self.jac = None
            self._jac_rows: list[int] = []
            self._jac_cols: list[int] = []
            self._jac_vals: list[float] = []
        else:
            self.jac = np.zeros((n, n))

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
        return 0.0 if idx < 0 else float(self.x[idx])

    def across_pair(self, p: Node, n: Node) -> float:
        """Across difference ``across(p) - across(n)``."""
        return self.across(p) - self.across(n)

    def aux_value(self, device: "Device | str", name: str) -> float:
        """Value of a device auxiliary unknown at the current iterate."""
        return float(self.x[self.system.aux_index(device, name)])

    def unknown_value(self, index: int) -> float:
        """Raw unknown value by vector index (-1 yields 0)."""
        return 0.0 if index < 0 else float(self.x[index])

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
            self.jac[row, col] += value

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
            self._jac_rows, self._jac_cols, self._jac_vals, self.system.size)

    def jacobian_is_finite(self) -> bool:
        """Whether every accumulated Jacobian entry is finite."""
        if not self.want_jacobian:
            return True
        if self.use_sparse:
            return bool(np.all(np.isfinite(self._jac_vals))) if self._jac_vals \
                else True
        return bool(np.all(np.isfinite(self.jac)))

    def add_res(self, row: int, value: float) -> None:
        """Accumulate into the residual row; the ground row is ignored."""
        if row < 0:
            return
        self.res[row] += value

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
        if n_nodes == 0:
            return
        if self.want_jacobian:
            diag = range(n_nodes)
            if self.use_sparse:
                self._jac_rows.extend(diag)
                self._jac_cols.extend(diag)
                self._jac_vals.extend([gmin] * n_nodes)
            else:
                idx = np.arange(n_nodes)
                self.jac[idx, idx] += gmin
        self.res[:n_nodes] += gmin * self.x[:n_nodes]

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

    def integ_coefficient(self) -> float:
        """``d(integ(x))/dx`` of the active discretization (0 at DC)."""
        if self.is_dc or self.integrator is None:
            return 0.0
        return self.integrator.integral_coefficient()

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

    def state_value(self, key: Hashable, default: float = 0.0) -> float:
        """Committed integral state (used by record passes and DC)."""
        if self.integrator is None:
            return default
        return self.integrator.previous_integral(key, default)


class BatchStampContext(StampContext):
    """Assembly workspace for B stacked DC/OP systems of one circuit.

    ``x`` has shape ``(B, n)``; accessors return ``(B,)`` value lanes and the
    residual/Jacobian accumulate as ``(B, n)`` / ``(B, n, n)`` (dense mode)
    or as one shared triplet pattern with ``(B,)`` values per triplet (sparse
    mode).  Batch-safe devices stamp *once* with their scalar arithmetic
    broadcasting over the lane axis; devices that cannot broadcast (AD-dual
    behavioral models) stamp per lane through :meth:`lane_context`, whose
    genuine serial :class:`StampContext` writes straight into this batch's
    arrays.

    Restricted to DC-class analyses (``op``/``dc``): the lane axis replaces
    the time axis, and no integrator state is threaded through.
    """

    def __init__(self, system: MNASystem, x: np.ndarray, analysis: str,
                 options: "SimulationOptions", source_scale: float = 1.0,
                 want_jacobian: bool = True, force_dense: bool = False) -> None:
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
        self.batch = self.x.shape[0]
        self.analysis = analysis
        self.time = 0.0
        self.integrator = None
        self.options = options
        self.source_scale = source_scale
        self.want_jacobian = want_jacobian
        n = system.size
        self.res = np.zeros((self.batch, n))
        self.use_sparse = options.use_sparse(n) and not force_dense
        if self.use_sparse or not want_jacobian:
            self.jac = None
            self._jac_rows = []
            self._jac_cols = []
            self._jac_vals = []
        else:
            self.jac = np.zeros((self.batch, n, n))

    # ------------------------------------------------------------------ access
    def across(self, node: Node):
        idx = self.system.index_of(node)
        return 0.0 if idx < 0 else self.x[:, idx]

    def aux_value(self, device: "Device | str", name: str):
        return self.x[:, self.system.aux_index(device, name)]

    def unknown_value(self, index: int):
        return 0.0 if index < 0 else self.x[:, index]

    # --------------------------------------------------------------- stamping
    def add_res(self, row: int, value) -> None:
        if row < 0:
            return
        self.res[:, row] += value

    def add_jac(self, row: int, col: int, value) -> None:
        if row < 0 or col < 0 or not self.want_jacobian:
            return
        if self.use_sparse:
            self._jac_rows.append(row)
            self._jac_cols.append(col)
            self._jac_vals.append(value)
        else:
            self.jac[:, row, col] += value

    def jacobian(self):
        """``(B, n, n)`` dense stack, or a list of B CSR lanes in sparse mode."""
        if not self.want_jacobian:
            raise AnalysisError(
                "this context was assembled residual-only (want_jacobian=False)")
        if not self.use_sparse:
            return self.jac
        values = np.empty((len(self._jac_vals), self.batch))
        for i, value in enumerate(self._jac_vals):
            values[i] = value
        return self.system.structure_cache.assemble_batch(
            self._jac_rows, self._jac_cols, values, self.system.size)

    def residual_finite_lanes(self) -> np.ndarray:
        """``(B,)`` mask of lanes whose residual is entirely finite."""
        return np.all(np.isfinite(self.res), axis=1)

    def jacobian_finite_lanes(self) -> np.ndarray:
        """``(B,)`` mask of lanes whose Jacobian is entirely finite."""
        if not self.want_jacobian:
            return np.ones(self.batch, dtype=bool)
        if self.use_sparse:
            finite = np.ones(self.batch, dtype=bool)
            for value in self._jac_vals:
                lanes = np.isfinite(value)
                finite &= lanes if np.ndim(lanes) else bool(lanes)
            return finite
        return np.all(np.isfinite(self.jac), axis=(1, 2))

    def apply_gmin(self, gmin: float) -> None:
        if gmin <= 0.0:
            return
        n_nodes = self.system.num_nodes
        if n_nodes == 0:
            return
        if self.want_jacobian:
            if self.use_sparse:
                diag = range(n_nodes)
                self._jac_rows.extend(diag)
                self._jac_cols.extend(diag)
                self._jac_vals.extend([gmin] * n_nodes)
            else:
                idx = np.arange(n_nodes)
                self.jac[:, idx, idx] += gmin
        self.res[:, :n_nodes] += gmin * self.x[:, :n_nodes]

    # ------------------------------------------------------------- lane access
    def lane_context(self, lane: int) -> StampContext:
        """A serial :class:`StampContext` over lane ``lane``.

        Its residual (and, in dense mode, Jacobian) arrays are *views* into
        this batch's arrays, so non-broadcastable devices stamp through their
        unchanged serial code path and land in the right lane.  Only
        available in dense mode -- per-lane triplet streams may diverge
        (behavioral stamps skip exact-zero derivatives), which is exactly why
        mixed circuits assemble dense.
        """
        if self.use_sparse:
            raise AnalysisError(
                "per-lane stamping requires dense batch assembly "
                "(construct the batch context with force_dense=True)")
        ctx = StampContext(self.system, self.x[lane], analysis=self.analysis,
                           time=self.time, integrator=None,
                           options=self.options, source_scale=self.source_scale,
                           want_jacobian=self.want_jacobian)
        ctx.res = self.res[lane]
        if self.want_jacobian:
            ctx.use_sparse = False
            ctx.jac = self.jac[lane]
        return ctx


class ACStampContext:
    """Complex small-signal assembly workspace for AC analysis.

    Devices stamp their linearized admittances into ``matrix`` and AC source
    excitations into ``rhs``; the linearization point is the operating-point
    solution ``op_values`` (same layout as the real unknown vector).
    """

    analysis = "ac"

    def __init__(self, system: MNASystem, op_values: np.ndarray, omega: float,
                 integrator_states: dict, options: "SimulationOptions") -> None:
        self.system = system
        self.op_values = np.asarray(op_values, dtype=float)
        self.omega = float(omega)
        self.integrator_states = integrator_states
        self.options = options
        n = system.size
        self.matrix = np.zeros((n, n), dtype=complex)
        self.rhs = np.zeros(n, dtype=complex)

    def node_index(self, node: Node) -> int:
        """Unknown index of ``node`` (-1 for ground)."""
        return self.system.index_of(node)

    def aux_index(self, device: "Device | str", name: str) -> int:
        """Unknown index of a device auxiliary variable."""
        return self.system.aux_index(device, name)

    def op_across(self, node: Node) -> float:
        """Operating-point across value of ``node``."""
        idx = self.system.index_of(node)
        return 0.0 if idx < 0 else float(self.op_values[idx])

    def op_aux(self, device: "Device | str", name: str) -> float:
        """Operating-point value of an auxiliary unknown."""
        return float(self.op_values[self.system.aux_index(device, name)])

    def op_state(self, key: Hashable, default: float = 0.0) -> float:
        """Committed integral state at the operating point."""
        return float(self.integrator_states.get(key, default))

    def add(self, row: int, col: int, value: complex) -> None:
        """Accumulate a complex admittance entry (ground indices ignored)."""
        if row < 0 or col < 0:
            return
        self.matrix[row, col] += value

    def add_rhs(self, row: int, value: complex) -> None:
        """Accumulate an AC excitation into the right-hand side."""
        if row < 0:
            return
        self.rhs[row] += value

    def apply_gmin(self, gmin: float) -> None:
        """Tie every node to ground with ``gmin`` (numerical conditioning)."""
        if gmin <= 0.0:
            return
        for i in range(self.system.num_nodes):
            self.matrix[i, i] += gmin
