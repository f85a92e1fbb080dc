"""Exact parameter sensitivities of circuit analyses (adjoint / direct).

Every converged MNA solve satisfies ``F(x, p) = 0``; the implicit-function
theorem turns the already-factored Newton Jacobian into exact output
gradients

.. math::

    \\frac{d (g^T x)}{dp} = - g^T J^{-1} \\frac{\\partial F}{\\partial p}

at the cost of *one transposed back-substitution per output* (adjoint) or
*one forward back-substitution per parameter* (direct) -- never another
Newton solve, never a new factorization.  Central finite differences, by
contrast, pay ``2 P`` full nonlinear solves for a ``P``-parameter gradient,
plus step-size noise.

The residual parameter derivative ``dF/dp`` is obtained exactly from the
existing :class:`~repro.ad.Dual` machinery: the selected device parameters
are temporarily replaced by dual numbers (one seed slot each) and the
circuit is re-assembled through :class:`SeededStampContext`, which splits
the dual residuals into value and derivative parts.  Linear devices
(R/L/C, mechanical elements, DC sources), the diode and every behavioral /
closed-form-transducer device propagate the seeds by plain arithmetic;
energy-method transducer devices (``closed_form=False``) cannot -- they are
detected and reported with a fix-it hint.

Parameters are addressed as ``"<device>.<parameter>"`` strings against the
device tunable-parameter protocol (:meth:`~repro.circuit.devices.base.Device
.parameter_names`); outputs are the canonical unknown signal names
(``v(node)``, ``i(device)``, ``device.aux``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from ...ad import Dual
from ...errors import (AnalysisError, LinAlgError, SensitivityError,
                       SingularMatrixError)
from ...linalg import (FactorizedSolver, SensitivityResult,
                       SpectralSensitivities, solve_sensitivities,
                       sweep_spectral_sensitivities)
from ..mna import (Integrator, MNASystem, StampContext, canonical_signal_name,
                   evaluate_powers)
from .op import NewtonWorkspace
from .options import SimulationOptions

if TYPE_CHECKING:  # pragma: no cover
    from ..netlist import Circuit
    from .ac import ACAnalysis
    from .dcsweep import DCSweepAnalysis
    from .op import OperatingPointAnalysis

__all__ = ["ParameterRef", "SeededStampContext", "resolve_parameters",
           "seeded_parameters", "parameter_residual_derivatives",
           "output_selectors", "operating_point_sensitivities",
           "dcsweep_sensitivities", "ac_sensitivities",
           "SweepSensitivities", "ACSensitivities",
           "CircuitSensitivityEvaluator"]


# --------------------------------------------------------------------------- #
# parameter addressing                                                        #
# --------------------------------------------------------------------------- #

class ParameterRef:
    """One resolved tunable parameter: ``(device, parameter name)``."""

    __slots__ = ("label", "device", "parameter")

    def __init__(self, label: str, device, parameter: str) -> None:
        self.label = label
        self.device = device
        self.parameter = parameter

    @property
    def value(self) -> float:
        """Current (plain) value of the parameter."""
        return float(self.device.get_parameter(self.parameter))

    def __repr__(self) -> str:
        return f"ParameterRef({self.label!r})"


def resolve_parameters(circuit: "Circuit", params: Iterable) -> list[ParameterRef]:
    """Resolve ``"device.param"`` strings (or ``(device, param)`` pairs).

    A device name may itself contain dots; resolution tries the longest
    device-name prefix first.
    """
    refs: list[ParameterRef] = []
    for spec in params:
        if isinstance(spec, ParameterRef):
            refs.append(spec)
            continue
        if isinstance(spec, tuple) and len(spec) == 2:
            device_name, parameter = spec
            label = f"{device_name}.{parameter}"
        elif isinstance(spec, str):
            label = spec
            if "." not in spec:
                raise SensitivityError(
                    f"parameter spec {spec!r} must look like 'device.param'")
            device_name, parameter = spec.rsplit(".", 1)
        else:
            raise SensitivityError(
                f"cannot interpret parameter spec {spec!r} "
                "(use 'device.param' or (device_name, param))")
        try:
            device = circuit[str(device_name)]
        except Exception as exc:
            raise SensitivityError(
                f"parameter {label!r}: unknown device {device_name!r}") from exc
        names = device.parameter_names()
        if parameter not in names:
            raise SensitivityError(
                f"device {device_name!r} has no tunable parameter "
                f"{parameter!r} (available: {sorted(names) or 'none'})")
        refs.append(ParameterRef(label, device, str(parameter)))
    if not refs:
        raise SensitivityError("at least one parameter is required")
    labels = [ref.label for ref in refs]
    if len(set(labels)) != len(labels):
        raise SensitivityError(f"duplicate parameters in {labels}")
    return refs


class seeded_parameters:
    """Context manager: seed the referenced parameters as AD duals.

    Inside the ``with`` block parameter ``k`` carries the unit derivative of
    seed slot ``offset + k`` in a derivative space of ``nvars`` slots; on
    exit the original (plain) values are restored -- the circuit is never
    left dual-valued.  ``values`` optionally overrides the seeding point
    (plain floats), which is how finite-difference cross-checks and the AC
    assembly probes move parameters without duals (``nvars=0``).
    """

    def __init__(self, refs: Sequence[ParameterRef], nvars: int,
                 offset: int = 0,
                 values: Sequence[float] | None = None) -> None:
        self.refs = list(refs)
        self.nvars = int(nvars)
        self.offset = int(offset)
        self.values = None if values is None else [float(v) for v in values]
        self._saved: list[object] = []

    def __enter__(self) -> "seeded_parameters":
        if self.nvars > 0:
            for ref in self.refs:
                if not getattr(ref.device, "dual_parameter_safe", True):
                    raise SensitivityError(
                        f"device {ref.device.name!r} cannot propagate exact "
                        f"parameter duals for {ref.label!r}; energy-method "
                        "transducer devices must be rebuilt with "
                        "closed_form=True to expose exact sensitivities")
        self._saved = [ref.device.get_parameter(ref.parameter)
                       for ref in self.refs]
        for k, ref in enumerate(self.refs):
            base = self._saved[k] if self.values is None else self.values[k]
            if self.nvars > 0:
                seeded = Dual.variable(float(base), index=self.offset + k,
                                       nvars=self.nvars)
            else:
                seeded = float(base)
            ref.device.set_parameter(ref.parameter, seeded)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for ref, original in zip(self.refs, self._saved):
            ref.device.set_parameter(ref.parameter, original)


# --------------------------------------------------------------------------- #
# seeded assembly                                                             #
# --------------------------------------------------------------------------- #

class SeededStampContext(StampContext):
    """Residual assembly that separates AD-dual residuals into ``res``/``dres``.

    The context never builds a Jacobian (``want_jacobian=False`` -- explicit
    ``add_jac`` stamps are ignored); instead each residual contribution may
    be a :class:`~repro.ad.Dual` whose derivative part (length ``nvars``)
    is accumulated into :attr:`dres`.  With ``x_offset`` set, the unknown
    accessors additionally seed the solution vector itself, so ``dres`` also
    carries ``dF/dx`` blocks -- the transient adjoint uses this to capture
    the dependence of the dynamic states on the unknowns.
    """

    keep_residual_duals = True

    def __init__(self, system: MNASystem, x: np.ndarray, analysis: str,
                 time: float, integrator: Integrator | None,
                 options: SimulationOptions, nvars: int,
                 source_scale: float = 1.0,
                 x_offset: int | None = None) -> None:
        super().__init__(system, x, analysis, time, integrator, options,
                         source_scale=source_scale, want_jacobian=False)
        self.nvars = int(nvars)
        self.x_offset = x_offset
        self.dres = np.zeros((system.size, self.nvars))

    # ------------------------------------------------------------- seeded x
    def _seeded_unknown(self, index: int):
        value = 0.0 if index < 0 else self.x_list[index]
        if self.x_offset is None or index < 0:
            return value
        return Dual.variable(value, index=self.x_offset + index,
                             nvars=self.nvars)

    def across(self, node):
        return self._seeded_unknown(self.system.index_of(node))

    def aux_value(self, device, name: str):
        return self._seeded_unknown(self.system.aux_index(device, name))

    def unknown_value(self, index: int):
        return self._seeded_unknown(index)

    # ------------------------------------------------------------ accumulate
    def add_res(self, row: int, value) -> None:
        if row < 0:
            return
        if isinstance(value, Dual):
            self._res[row] += value.value
            deriv = np.real(value.deriv)
            if deriv.shape != (self.nvars,):
                raise SensitivityError(
                    f"residual derivative has {deriv.shape[0]} slots, "
                    f"expected {self.nvars} (a device mixed AD seed spaces)")
            self.dres[row] += deriv
        else:
            self._res[row] += float(value)

    def apply_gmin(self, gmin: float) -> None:
        super().apply_gmin(gmin)
        if gmin > 0.0 and self.x_offset is not None:
            n_nodes = self.system.num_nodes
            idx = np.arange(n_nodes)
            self.dres[idx, self.x_offset + idx] += gmin


def _run_seeded(system: MNASystem, ctx: SeededStampContext) -> SeededStampContext:
    """Drive the device stamps over a seeded context with a helpful error."""
    try:
        return system.run_stamps(ctx)
    except ValueError as exc:
        raise SensitivityError(
            "a device could not propagate the sensitivity seeds "
            f"({exc}); energy-method transducer devices need "
            "closed_form=True to expose exact parameter derivatives"
        ) from exc


def parameter_residual_derivatives(system: MNASystem, x: np.ndarray,
                                   refs: Sequence[ParameterRef],
                                   analysis: str, time: float,
                                   integrator: Integrator | None,
                                   options: SimulationOptions,
                                   source_scale: float = 1.0) -> np.ndarray:
    """Exact ``dF/dp`` (``(n, P)``) at the solution ``x`` by dual seeding."""
    num = len(refs)
    with seeded_parameters(refs, nvars=num):
        ctx = SeededStampContext(system, x, analysis, time, integrator,
                                 options, nvars=num,
                                 source_scale=source_scale)
        _run_seeded(system, ctx)
    return ctx.dres


# --------------------------------------------------------------------------- #
# output addressing                                                           #
# --------------------------------------------------------------------------- #

def output_selectors(system: MNASystem, outputs: Iterable[str]) -> tuple[
        tuple[str, ...], np.ndarray]:
    """Unit selector rows of the requested unknown signals.

    Outputs must be unknowns of the MNA system (node across values and
    auxiliary unknowns under their canonical names); device-recorded
    post-processing quantities are not linear in the unknown vector and are
    therefore not valid sensitivity outputs.
    """
    index_of: dict[str, int] = {}
    for i, label in enumerate(system.unknown_labels()):
        index_of[canonical_signal_name(label)] = i
    outputs = [str(name) for name in outputs]
    if not outputs:
        raise SensitivityError("at least one output is required")
    selectors = np.zeros((len(outputs), system.size))
    for m, name in enumerate(outputs):
        if name not in index_of:
            known = ", ".join(sorted(index_of))
            raise SensitivityError(
                f"output {name!r} is not an unknown of this system "
                f"(available: {known})")
        selectors[m, index_of[name]] = 1.0
    return tuple(outputs), selectors


# --------------------------------------------------------------------------- #
# operating point / DC sweep                                                  #
# --------------------------------------------------------------------------- #

def _factor_at(system: MNASystem, x: np.ndarray, analysis: str,
               options: SimulationOptions, workspace: NewtonWorkspace,
               source_scale: float = 1.0):
    """Assemble and factor the Jacobian at a converged solution.

    Routed through the workspace so the ``jacobian_reuse`` policy applies:
    when the Jacobian still equals the last factored Newton matrix (always,
    for linear circuits) the factorization is a cache hit.
    """
    ctx = system.assemble(x, analysis, 0.0, None, options, source_scale,
                          want_jacobian=True)
    try:
        return workspace.factor(ctx)
    except LinAlgError as exc:
        raise SingularMatrixError(
            f"singular Jacobian at the {analysis} solution: {exc}") from exc


def operating_point_sensitivities(analysis: "OperatingPointAnalysis",
                                  params: Iterable, outputs: Iterable[str],
                                  method: str = "auto",
                                  operating_point=None) -> SensitivityResult:
    """Exact output sensitivities of a DC operating point.

    Runs one forward Newton solve (skipped when ``operating_point`` is
    passed), re-factors nothing the reuse policy can avoid, and then spends
    one transposed back-substitution per output (adjoint) or one forward
    back-substitution per parameter (direct).
    """
    system = analysis.system
    options = analysis.options
    stats = {"newton_solves": 0, "adjoint_solves": 0, "direct_solves": 0}
    # Sharing the workspace with the Newton solve lets a linear circuit's
    # converged factorization answer the sensitivity solves without being
    # re-factored (nonlinear circuits still refactor at the converged point,
    # which exactness requires).
    workspace = NewtonWorkspace(options)
    if operating_point is None:
        operating_point = analysis.run(workspace=workspace)
        stats["newton_solves"] = 1
    x = np.asarray(operating_point.raw, dtype=float)
    if x.shape != (system.size,):
        raise AnalysisError("operating point does not match this circuit")
    refs = resolve_parameters(analysis.circuit, params)
    names, selectors = output_selectors(system, outputs)
    factorization = _factor_at(system, x, "op", options, workspace)
    dres = parameter_residual_derivatives(system, x, refs, "op", 0.0, None,
                                          options)
    matrix = solve_sensitivities(factorization, selectors, dres,
                                 method=method, stats=stats)
    stats["factorizations"] = workspace.solver.factorizations
    resolved = "adjoint" if stats["adjoint_solves"] else "direct"
    return SensitivityResult(
        outputs=names, params=tuple(ref.label for ref in refs),
        values=selectors @ x, matrix=matrix, method=resolved, stats=stats)


class SweepSensitivities:
    """Per-point sensitivities of a DC sweep.

    ``matrix[v]`` is the ``(M, P)`` sensitivity matrix at sweep value ``v``;
    failed points (``continue_on_failure``) hold NaN rows.
    """

    def __init__(self, sweep_name: str, sweep_values: np.ndarray,
                 outputs: tuple[str, ...], params: tuple[str, ...],
                 values: np.ndarray, matrix: np.ndarray,
                 method: str, stats: dict) -> None:
        self.sweep_name = sweep_name
        self.sweep_values = np.asarray(sweep_values, dtype=float)
        self.outputs = tuple(outputs)
        self.params = tuple(params)
        #: ``(V, M)`` output values over the sweep.
        self.values = np.asarray(values, dtype=float)
        #: ``(V, M, P)`` derivatives over the sweep.
        self.matrix = np.asarray(matrix, dtype=float)
        self.method = method
        self.stats = dict(stats)

    def at(self, index: int) -> SensitivityResult:
        """The :class:`SensitivityResult` of one sweep point."""
        return SensitivityResult(self.outputs, self.params,
                                 self.values[index], self.matrix[index],
                                 method=self.method, stats=self.stats)

    def derivative(self, output: str, param: str) -> np.ndarray:
        """One ``d output / d param`` trace over the sweep values."""
        m = self.outputs.index(output)
        k = self.params.index(param)
        return self.matrix[:, m, k]

    def __repr__(self) -> str:
        return (f"SweepSensitivities({self.sweep_name}: "
                f"{self.sweep_values.size} points, {len(self.outputs)} outputs "
                f"x {len(self.params)} params)")


def dcsweep_sensitivities(analysis: "DCSweepAnalysis", params: Iterable,
                          outputs: Iterable[str],
                          method: str = "auto") -> SweepSensitivities:
    """Sensitivities of every DC-sweep point (continuation, like the sweep).

    Each point pays its continuation Newton solve plus the adjoint/direct
    back-substitutions; the per-point factorization rides the workspace
    reuse policy, so a linear circuit factors once for the whole sweep.
    """
    circuit = analysis.circuit
    options = analysis.options
    system = MNASystem(circuit)
    refs = resolve_parameters(circuit, params)
    names, selectors = output_selectors(system, outputs)
    num_outputs, num_params = len(names), len(refs)
    stats = {"newton_solves": 0, "adjoint_solves": 0, "direct_solves": 0}
    values = np.full((analysis.values.size, num_outputs), np.nan)
    matrix = np.full((analysis.values.size, num_outputs, num_params), np.nan)
    workspace = NewtonWorkspace(options)
    resolved = method
    # The continuation policy (warm starts, failure handling) is owned by
    # the analysis itself, so result and sensitivity sweeps cannot diverge.
    for v, x in analysis._sweep_solutions(system, workspace):
        if x is None:
            continue  # failed point: NaN row, like the result sweep
        stats["newton_solves"] += 1
        factorization = _factor_at(system, x, "dc", options, workspace)
        dres = parameter_residual_derivatives(
            system, x, refs, "dc", 0.0, None, options)
        point_stats: dict = {}
        matrix[v] = solve_sensitivities(factorization, selectors, dres,
                                        method=method, stats=point_stats)
        stats["adjoint_solves"] += point_stats.get("adjoint_solves", 0)
        stats["direct_solves"] += point_stats.get("direct_solves", 0)
        resolved = "adjoint" if point_stats.get("adjoint_solves") \
            else "direct"
        values[v] = selectors @ x
    stats["factorizations"] = workspace.solver.factorizations
    return SweepSensitivities(analysis.source_name, analysis.values, names,
                              tuple(ref.label for ref in refs), values,
                              matrix, resolved, stats)


# --------------------------------------------------------------------------- #
# AC small-signal sensitivities                                               #
# --------------------------------------------------------------------------- #

class ACSensitivities(SpectralSensitivities):
    """Per-frequency complex sensitivities of an AC sweep.

    ``matrix[f]`` is the complex ``(M, P)`` derivative of the output phasors
    at frequency ``f``; :meth:`magnitude_matrix` converts to derivatives of
    ``|y|`` (what resonance/level specs differentiate).
    """


#: Relative parameter step of the AC assembly-level directional differences.
_AC_ASSEMBLY_STEP = 1e-6


def ac_sensitivities(analysis: "ACAnalysis", params: Iterable,
                     outputs: Iterable[str], method: str = "auto",
                     operating_point=None,
                     rel_step: float = _AC_ASSEMBLY_STEP) -> ACSensitivities:
    """Exact-solve sensitivities of the AC output phasors.

    All linear solves are exact and factorization-free beyond the forward
    sweep: per frequency the small-signal matrix is factored once, and each
    output costs one transposed back-substitution (adjoint).  The total
    derivative of the assembled system -- including the dependence of the
    operating point on the parameters, resolved exactly via the DC
    adjoint/direct machinery -- is formed by *assembly-level* central
    differences along the combined direction ``(dp_k, dx0/dp_k)``.

    Each assembly is frequency-free (the exact coefficients of the powers
    of ``s``, :meth:`~repro.circuit.mna.MNASystem.assemble_ac`), so the
    differences are taken once per parameter on the coefficient stacks and
    evaluated at every frequency: 1 + 2 P assemblies for any grid.
    """
    from .op import OperatingPointAnalysis

    circuit = analysis.circuit
    options = analysis.options
    system = MNASystem(circuit)
    stats = {"newton_solves": 0, "adjoint_solves": 0, "direct_solves": 0}
    workspace = NewtonWorkspace(options)
    if operating_point is None:
        operating_point = OperatingPointAnalysis(circuit, options).run(
            workspace=workspace)
        stats["newton_solves"] = 1
    x0 = np.asarray(operating_point.raw, dtype=float)
    if x0.shape != (system.size,):
        raise AnalysisError("operating point does not match this circuit")
    refs = resolve_parameters(circuit, params)
    names, selectors = output_selectors(system, outputs)
    num_params = len(refs)

    # Operating-point dependence: dx0/dp by the direct DC method (P forward
    # back-substitutions on the DC Jacobian; the shared workspace reuses the
    # Newton solve's factorization when the circuit is linear).
    dc_factorization = _factor_at(system, x0, "op", options, workspace)
    dres_dc = parameter_residual_derivatives(system, x0, refs, "op", 0.0,
                                             None, options)
    try:
        dx0 = dc_factorization.solve(-dres_dc)
    except LinAlgError as exc:
        raise SingularMatrixError(
            f"singular DC Jacobian in AC sensitivity chain: {exc}") from exc
    stats["direct_solves"] += num_params

    base_values = [ref.value for ref in refs]
    steps = [rel_step * (abs(v) if v != 0.0 else 1.0) for v in base_values]

    # The assembly derivative along (dp_k, dx0/dp_k), as coefficient stacks
    # of the powers of s (the rhs excitation is frequency-free).
    differences = []
    for k, h in enumerate(steps):
        shifted = list(base_values)
        shifted[k] = base_values[k] + h
        with seeded_parameters(refs, nvars=0, values=shifted):
            up = system.assemble_ac(x0 + h * dx0[:, k], options)
        shifted[k] = base_values[k] - h
        with seeded_parameters(refs, nvars=0, values=shifted):
            down = system.assemble_ac(x0 - h * dx0[:, k], options)
        differences.append(((up.coefficients - down.coefficients) / (2.0 * h),
                            (up.rhs - down.rhs) / (2.0 * h)))
    base = system.assemble_ac(x0, options)

    def system_at(f: int, omega: float):
        return base.at(omega), base.rhs

    def dres_at(f: int, omega: float, solution: np.ndarray) -> np.ndarray:
        dres = np.zeros((system.size, num_params), dtype=complex)
        for k, (coefficients, drhs) in enumerate(differences):
            dres[:, k] = evaluate_powers(coefficients, omega) @ solution - drhs
        return dres

    solver = FactorizedSolver("dense")
    values, matrix, resolved = sweep_spectral_sensitivities(
        analysis.frequencies, selectors, system_at, dres_at, method=method,
        solver=solver, stats=stats,
        solve_error=lambda frequency, exc: SingularMatrixError(
            f"singular small-signal matrix at f={frequency:g} Hz: {exc}"))
    stats["factorizations"] = solver.factorizations \
        + workspace.solver.factorizations
    return ACSensitivities(analysis.frequencies, names,
                           tuple(ref.label for ref in refs), values, matrix,
                           resolved, stats)


# --------------------------------------------------------------------------- #
# optimization-protocol evaluator                                             #
# --------------------------------------------------------------------------- #

class CircuitSensitivityEvaluator:
    """Adjoint-differentiable evaluator over an operating-point analysis.

    Implements both halves of the optimization evaluator protocol: plain
    calls (``evaluator(params) -> {output: value}``) and
    ``evaluate_with_gradient(params) -> (values, {output: {param: d}})`` --
    the hook :class:`repro.optim.objective.Objective` auto-selects for its
    ``gradient="adjoint"`` mode.  Design parameters are mapped onto device
    tunables of a rebuilt netlist, so the evaluator stays picklable
    (module-level ``build``) for campaign fan-out.

    Parameters
    ----------
    build:
        Module-level function ``config_dict -> Circuit``.
    param_map:
        ``{design name: "device.param"}`` -- which tunables the design
        vector controls.
    outputs:
        Canonical unknown signal names to report.
    config:
        Fixed configuration forwarded to ``build``.
    options:
        Simulation options for the operating-point solves.
    """

    def __init__(self, build, param_map: Mapping[str, str],
                 outputs: Sequence[str],
                 config: Mapping[str, object] | None = None,
                 options: SimulationOptions | None = None) -> None:
        self.build = build
        self.param_map = dict(param_map)
        self.outputs = tuple(outputs)
        self.config = dict(config or {})
        self.options = options

    def _prepare(self, params: Mapping[str, float]):
        from .op import OperatingPointAnalysis

        circuit = self.build(dict(self.config))
        refs = resolve_parameters(circuit, list(self.param_map.values()))
        for ref, design_name in zip(refs, self.param_map):
            if design_name in params:
                ref.device.set_parameter(ref.parameter,
                                         float(params[design_name]))
        analysis = OperatingPointAnalysis(
            circuit, self.options or SimulationOptions())
        return analysis, refs

    def __call__(self, params: Mapping[str, float]) -> dict[str, float]:
        analysis, _ = self._prepare(params)
        op = analysis.run()
        return {name: float(op[name]) for name in self.outputs}

    def evaluate_with_gradient(self, params: Mapping[str, float]
                               ) -> tuple[dict[str, float],
                                          dict[str, dict[str, float]]]:
        analysis, refs = self._prepare(params)
        result = operating_point_sensitivities(
            analysis, refs, self.outputs, method="auto")
        label_to_design = {ref.label: design
                           for ref, design in zip(refs, self.param_map)}
        values = {name: float(result.value(name)) for name in self.outputs}
        gradients = {
            name: {label_to_design[label]: float(d)
                   for label, d in result.gradient(name).items()}
            for name in self.outputs
        }
        return values, gradients

    def cache_payload(self) -> dict:
        module = getattr(self.build, "__module__", "?")
        qualname = getattr(self.build, "__qualname__", "?")
        return {
            "evaluator": "repro.circuit.analysis.sensitivity."
                         "CircuitSensitivityEvaluator",
            "build": f"{module}.{qualname}",
            "param_map": dict(sorted(self.param_map.items())),
            "outputs": list(self.outputs),
            "config": {k: self.config[k] for k in sorted(self.config)},
        }
