"""Numerical health checks: condition estimates and singularity attribution.

PR 6 made the solver stack *observable*; this module makes it *diagnosable*.
Three ingredients, all cheap enough to run on demand:

- :func:`check_factorization` turns the 1-norm condition estimate a
  :class:`repro.linalg.Factorization` handle can compute (LAPACK ``gecon``
  for dense LU, a deterministic Hager/Higham iteration for SuperLU) into
  a :class:`ConditionRecord`, feeds the ``linalg.condition_estimate``
  histogram, and emits a :class:`NumericalHealthWarning` when the estimate
  crosses the caller's limit.  Opt-in via ``SimulationOptions.health_check``
  so the default hot path never pays for it.
- :func:`attribute_residual` names the unknowns carrying the dominant
  residual terms when a Newton solve fails -- "which equation is broken".
- :func:`singular_diagnosis` inspects an assembled (not factorable) matrix
  for structurally empty or numerically negligible rows/columns and maps
  them back to unknown names -- "which stamp broke the matrix" (a floating
  node shows up as an empty column, a dangling current row as an empty row).

The module deliberately imports nothing from ``repro.linalg`` or
``repro.circuit`` (both import ``repro.telemetry``); callers hand in
factorization handles, matrices and label lists.
"""

from __future__ import annotations

import logging
import math
import warnings

import numpy as np

from . import registry
from .context import current_path

__all__ = ["NumericalHealthWarning", "ConditionRecord", "check_factorization",
           "attribute_residual", "singular_diagnosis"]

logger = logging.getLogger("repro.telemetry.health")


class NumericalHealthWarning(UserWarning):
    """A factorized system matrix is near-singular (condition over limit)."""


class ConditionRecord:
    """Outcome of one condition-estimate health check."""

    __slots__ = ("context", "backend", "size", "condition", "limit")

    def __init__(self, context: str, backend: str, size: int,
                 condition: float, limit: float) -> None:
        self.context = context
        self.backend = backend
        self.size = int(size)
        self.condition = float(condition)
        self.limit = float(limit)

    @property
    def near_singular(self) -> bool:
        """Whether the estimate crossed the limit (or is not finite)."""
        return not math.isfinite(self.condition) or self.condition >= self.limit

    def to_json(self) -> dict:
        return {"context": self.context, "backend": self.backend,
                "size": self.size, "condition": self.condition,
                "limit": self.limit, "near_singular": self.near_singular}

    def __repr__(self) -> str:
        flag = " NEAR-SINGULAR" if self.near_singular else ""
        return (f"ConditionRecord({self.context!r}, {self.backend}, n={self.size}, "
                f"cond~{self.condition:.3e}{flag})")


def check_factorization(factorization, limit: float = 1e12,
                        context: str = "", warn: bool = True) -> ConditionRecord:
    """Estimate the condition of a factorized matrix and judge it.

    Feeds the process-wide registry (``health.condition_checks`` counter,
    ``linalg.condition_estimate`` histogram, ``health.near_singular``
    counter) and -- when the estimate crosses ``limit`` -- logs a warning on
    the ``repro.telemetry.health`` logger and issues a
    :class:`NumericalHealthWarning` (suppress with ``warn=False``).
    An estimator failure is reported as an infinite condition rather than
    raised: a health check must never turn a working solve into a crash.
    """
    try:
        condition = float(factorization.condition_estimate())
    except Exception:  # estimator trouble == worst possible health
        condition = float("inf")
    record = ConditionRecord(context=context,
                             backend=getattr(factorization, "backend", "?"),
                             size=factorization.shape[0],
                             condition=condition, limit=limit)
    registry.inc("health.condition_checks")
    if math.isfinite(condition):
        registry.observe("linalg.condition_estimate", condition)
    if record.near_singular:
        registry.inc("health.near_singular")
        where = context or current_path() or "solve"
        message = (f"near-singular system matrix in {where}: condition "
                   f"estimate {condition:.3e} exceeds limit {limit:.1e} "
                   f"(backend={record.backend}, n={record.size})")
        logger.warning(message, extra={"span_path": current_path()})
        if warn:
            warnings.warn(message, NumericalHealthWarning, stacklevel=2)
    return record


def attribute_residual(labels, residual, top: int = 5):
    """Rank unknowns by absolute residual contribution, worst first.

    Returns ``[(label, value), ...]`` of the ``top`` largest ``|residual|``
    entries (non-finite entries rank above everything).  This is the
    "which equation is broken" signal attached to Newton failures: in MNA
    terms each label is a node's KCL equation (``v(node)``) or a device's
    branch equation, so the top entry names the stamp whose contribution
    the iteration could not balance.
    """
    residual = np.asarray(residual, dtype=float)
    labels = list(labels)
    if residual.shape[0] != len(labels):
        raise ValueError(f"residual has {residual.shape[0]} entries for "
                         f"{len(labels)} labels")
    magnitude = np.abs(residual)
    # Non-finite residual entries are the failure; surface them first.
    magnitude = np.where(np.isfinite(magnitude), magnitude, np.inf)
    order = np.argsort(-magnitude, kind="stable")[:max(0, int(top))]
    return [(labels[i], float(residual[i])) for i in order]


def singular_diagnosis(matrix, labels=None, rtol: float = 1e-12) -> dict:
    """Structural diagnosis of a singular or near-singular assembled matrix.

    Finds rows and columns whose 1-norm is zero or below ``rtol`` times the
    largest row/column norm, and maps them to unknown names when ``labels``
    are given.  An empty *column* means no equation constrains that unknown
    (floating node); an empty *row* means that equation constrains nothing
    (dangling branch relation).  Returns a dict with ``zero_rows``,
    ``zero_cols``, ``suspects`` (the union, worst candidates first) and a
    human-readable ``message``.
    """
    if hasattr(matrix, "toarray") and not isinstance(matrix, np.ndarray):
        dense = np.abs(np.asarray(matrix.todense()))
    else:
        dense = np.abs(np.asarray(matrix))
    n = dense.shape[0]
    names = [str(label) for label in labels] if labels is not None \
        else [f"unknown[{i}]" for i in range(n)]
    if len(names) != n:
        raise ValueError(f"matrix is {n}x{n} but {len(names)} labels given")
    row_norms = dense.sum(axis=1)
    col_norms = dense.sum(axis=0)
    scale = float(max(row_norms.max(initial=0.0), col_norms.max(initial=0.0)))
    threshold = rtol * scale
    zero_rows = [names[i] for i in range(n) if row_norms[i] <= threshold]
    zero_cols = [names[i] for i in range(n) if col_norms[i] <= threshold]
    suspects = list(dict.fromkeys(zero_cols + zero_rows))
    if suspects:
        message = ("no equation constrains " + ", ".join(zero_cols)
                   if zero_cols else
                   "equation(s) for " + ", ".join(zero_rows) + " constrain nothing")
    else:
        message = ("no structurally empty rows/columns; singularity is "
                   "numerical (e.g. cancelling stamps or a shorted loop)")
    return {"zero_rows": zero_rows, "zero_cols": zero_cols,
            "suspects": suspects, "message": message}
