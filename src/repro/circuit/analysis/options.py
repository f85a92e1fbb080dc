"""Simulation options shared by all analyses.

The knobs deliberately mirror the classic SPICE option names (RELTOL, ABSTOL,
VNTOL, GMIN, ITL1/ITL4, TRTOL) so that option decks from the literature map
one-to-one.  The defaults are tuned for the microsystem netlists of the
paper: across variables span volts down to nanometre-per-second velocities,
hence the fairly tight ``vntol``.  Beyond that set, the Newton linear stage
has two choices only: the solver routing (``linear_solver``) and the
factorization-reuse policy (``jacobian_reuse``: exact-equality ``"auto"``
or ``"chord"``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ... import constants
from ...errors import AnalysisError

__all__ = ["SimulationOptions"]


@dataclass
class SimulationOptions:
    """Numerical settings for the MNA analyses.

    Attributes
    ----------
    reltol:
        Relative convergence tolerance on unknown updates.
    abstol:
        Absolute tolerance on through-type unknowns (currents, forces).
    vntol:
        Absolute tolerance on across-type unknowns (voltages, velocities).
    gmin:
        Conductance tied from every node to ground for conditioning.
    max_newton_iterations:
        Iteration cap of a single Newton solve (SPICE ITL1/ITL4).
    max_source_steps:
        Number of source-stepping levels (at least 1) the operating point
        ramps the independent sources through when plain Newton fails.
    integration_method:
        ``"trapezoidal"`` (default) or ``"backward_euler"``.
    trtol:
        Truncation-error over-estimation factor in the step controller.
    min_step_ratio:
        Smallest allowed step as a fraction of the requested print step.
    max_step_growth:
        Largest factor by which two consecutive steps may differ.
    linear_solver:
        Linear-solve routing for the Newton updates, serial and batched
        alike: ``"auto"`` picks the sparse direct solver once the unknown
        count exceeds ``sparse_threshold``; ``"dense"`` forces LAPACK;
        ``"sparse"`` forces the SuperLU direct solve.  (MNA Jacobians are
        not symmetric positive definite, so there is no iterative option.)
    sparse_threshold:
        Unknown count above which ``"auto"`` switches from the dense LAPACK
        solve to sparse assembly + SuperLU.
    jacobian_reuse:
        Factorization-reuse policy of the Newton linear stage:

        * ``"auto"`` (default) -- compare the assembled Jacobian against
          the recently factored matrices (exact array equality) and reuse
          the held factorization whenever the values are unchanged.
          Bit-identical to factoring every Jacobian; linear circuits factor
          once per structure/step-size and sweeps/transients amortize it,
        * ``"chord"`` -- additionally hold the factorization across
          iterations and accepted time steps, assembling residual-only
          (no derivatives) while it converges, with an automatic
          full-Newton refactor when the residual stalls and on every
          step-size change.  Fastest for smooth nonlinear transients;
          iterates may differ from full Newton within the convergence
          tolerance.

        AC sweeps of at least 4 frequencies take the cached
        ``G + jwC + S/(jw)`` path under either policy (see
        :mod:`repro.circuit.analysis.ac`).
    behavioral_compile:
        Compile behavioral models to generated kernels
        (:mod:`repro.hdl.compile`) instead of re-interpreting their
        expressions through the AD layer on every stamp.  Results are
        bit-identical; the interpreter remains the verified fallback for
        anything the tracer cannot follow.  Set False to force the
        interpreter everywhere.
    telemetry:
        Instrumentation level of the run (see :mod:`repro.telemetry`):
        ``"off"`` (default) collects nothing beyond the always-on counters;
        ``"summary"`` records phase spans, timing histograms and convergence
        digests; ``"full"`` additionally keeps per-step/per-point detail
        spans and residual trajectories.  When enabled the analysis attaches
        a :class:`~repro.telemetry.TelemetryReport` to its result object as
        ``result.telemetry``.
    telemetry_max_records:
        Storage cap per convergence-diagnostics category (Newton traces,
        step records, optimizer iterates).  Storage stops at the cap, the
        ``*_total`` counters keep counting -- see
        :mod:`repro.telemetry.convergence` for the contract.
    health_check:
        Run a cheap 1-norm condition estimate (LAPACK ``gecon`` / a
        deterministic Hager iteration, see
        :mod:`repro.telemetry.health`) on every freshly factored Jacobian
        and warn (``NumericalHealthWarning`` + ``health.near_singular``
        counter) when it exceeds ``condition_limit``.  Off by default:
        costs a few back-substitutions per factorization.
    condition_limit:
        Condition-estimate threshold of ``health_check``.
    forensics:
        Capture a structured :class:`~repro.telemetry.FailureReport`
        (residual trajectory, offending unknown names, condition estimate,
        last-good state) when a solve fails, attached to the raised
        exception as ``exc.report`` and retained in
        ``repro.telemetry.forensics.recent_failures()``.  Off by default;
        the capture only runs on failure paths, but tracking the residual
        trajectory costs one float per Newton iteration.
    """

    reltol: float = constants.RELTOL
    abstol: float = constants.ABSTOL
    vntol: float = constants.VNTOL
    gmin: float = constants.GMIN
    max_newton_iterations: int = constants.MAX_NEWTON_ITERATIONS
    max_source_steps: int = constants.MAX_SOURCE_STEPS
    integration_method: str = "trapezoidal"
    trtol: float = 7.0
    min_step_ratio: float = 1e-9
    max_step_growth: float = 2.0
    linear_solver: str = "auto"
    sparse_threshold: int = 256
    jacobian_reuse: str = "auto"
    behavioral_compile: bool = True
    telemetry: str = "off"
    telemetry_max_records: int = 10000
    health_check: bool = False
    condition_limit: float = 1e12
    forensics: bool = False

    def __post_init__(self) -> None:
        if self.reltol <= 0.0 or self.reltol >= 1.0:
            raise AnalysisError("reltol must be in (0, 1)")
        if self.abstol <= 0.0 or self.vntol <= 0.0:
            raise AnalysisError("abstol and vntol must be positive")
        if self.gmin < 0.0:
            raise AnalysisError("gmin must be non-negative")
        if self.max_newton_iterations < 2:
            raise AnalysisError("max_newton_iterations must be at least 2")
        if self.max_source_steps < 1:
            raise AnalysisError("max_source_steps must be at least 1")
        if self.integration_method not in ("trapezoidal", "backward_euler"):
            raise AnalysisError(
                f"unknown integration method {self.integration_method!r}")
        if self.max_step_growth < 1.1:
            raise AnalysisError("max_step_growth must be at least 1.1")
        if self.linear_solver not in ("auto", "dense", "sparse"):
            raise AnalysisError(
                f"unknown linear solver {self.linear_solver!r} "
                "(use 'auto', 'dense' or 'sparse')")
        if self.sparse_threshold < 1:
            raise AnalysisError("sparse_threshold must be at least 1")
        if self.jacobian_reuse not in ("auto", "chord"):
            raise AnalysisError(
                f"unknown jacobian_reuse policy {self.jacobian_reuse!r} "
                "(use 'auto' or 'chord')")
        if self.telemetry not in ("off", "summary", "full"):
            raise AnalysisError(
                f"unknown telemetry level {self.telemetry!r} "
                "(use 'off', 'summary' or 'full')")
        if self.telemetry_max_records < 1:
            raise AnalysisError("telemetry_max_records must be at least 1")
        if self.condition_limit <= 1.0:
            raise AnalysisError("condition_limit must exceed 1")

    def use_sparse(self, size: int) -> bool:
        """Whether a system of ``size`` unknowns should assemble sparse."""
        if self.linear_solver == "dense":
            return False
        if self.linear_solver == "sparse":
            return True
        return size > self.sparse_threshold

    def with_(self, **changes) -> "SimulationOptions":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)
