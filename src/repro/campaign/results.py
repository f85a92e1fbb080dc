"""Columnar campaign results with filtering, grouping and yield statistics.

:class:`CampaignResult` is the table every campaign run returns: one row per
scenario point (in spec order, regardless of execution backend), one column
per swept parameter and per evaluator output.  Failed points keep their row
-- parameters intact, outputs NaN, the error message in ``error(i)`` -- so a
Monte Carlo yield study can distinguish "converged but out of spec" from
"no stable solution" (e.g. beyond the pull-in fold).
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from ..errors import CampaignError

__all__ = ["CampaignRow", "CampaignResult", "SOLVER_STATS"]


class CampaignRow(Mapping[str, object]):
    """One scenario point: parameters, outputs, and the failure state.

    ``forensics`` carries the flat
    :meth:`~repro.telemetry.FailureReport.summary` dict of the solver
    failure that killed the point (offending unknown, residual norm,
    condition estimate, ...) when the evaluator ran with
    ``options.forensics`` on -- ``None`` for successful rows and for
    failures that produced no report.
    """

    __slots__ = ("index", "params", "outputs", "error", "from_cache",
                 "forensics")

    def __init__(self, index: int, params: Mapping[str, object],
                 outputs: Mapping[str, object], error: str | None = None,
                 from_cache: bool = False,
                 forensics: Mapping[str, object] | None = None) -> None:
        self.index = int(index)
        self.params = dict(params)
        self.outputs = dict(outputs)
        self.error = error
        self.from_cache = bool(from_cache)
        self.forensics = dict(forensics) if forensics else None

    @property
    def ok(self) -> bool:
        """True when the point evaluated without error."""
        return self.error is None

    def __getitem__(self, key: str):
        if key in self.outputs:
            return self.outputs[key]
        if key in self.params:
            return self.params[key]
        known = ", ".join(sorted({*self.params, *self.outputs}))
        raise KeyError(f"unknown column {key!r}; available: {known}")

    def __iter__(self) -> Iterator[str]:
        yield from self.params
        yield from self.outputs

    def __len__(self) -> int:
        return len(self.params) + len(self.outputs)

    def __repr__(self) -> str:
        state = "ok" if self.ok else f"error={self.error!r}"
        return f"CampaignRow(#{self.index}, {state})"


#: ``CampaignResult.solver_stats`` key -> metrics-registry counter name, in
#: reporting order: the linalg cache counters and the behavioral-compiler
#: kernel-cache counters.
SOLVER_STATS = {
    "factorizations": "linalg.factorizations",
    "factorization_cache_hits": "linalg.factorization_cache_hits",
    "factorization_cache_misses": "linalg.factorization_cache_misses",
    "structure_rebuilds": "linalg.structure_rebuilds",
    "structure_reuses": "linalg.structure_reuses",
    "transpose_solves": "linalg.transpose_solves",
    "hdl_compiles": "hdl.compile.count",
    "hdl_compile_cache_hits": "hdl.compile.cache_hits",
}


class CampaignResult:
    """Ordered table of campaign rows with columnar accessors.

    Parameters
    ----------
    rows:
        The per-point rows in spec order.
    param_names:
        Column order of the swept parameters (defaults to first-row order).
    metrics:
        The :mod:`repro.telemetry.registry` deltas of the work actually
        dispatched for this campaign, merged over serial execution and
        every pool worker chunk at every telemetry level: ``{"counters",
        "gauges", "histograms"}``.  ``None`` for derived results
        (``filter``/``group_by``), whose work already appears in the
        parent's metrics.
    telemetry:
        Merged telemetry profile of the dispatched work when the runner was
        created with ``telemetry != "off"``: a dict with ``mode``,
        ``span_totals`` (per-span-name count/total/self aggregates over
        every worker), ``metrics`` (the same dict as :attr:`metrics`) and
        ``wall_s`` (summed worker evaluation time).  ``None`` otherwise and
        for derived results.
    """

    def __init__(self, rows: Iterable[CampaignRow],
                 param_names: Iterable[str] | None = None,
                 metrics: Mapping | None = None,
                 telemetry: Mapping | None = None) -> None:
        self.rows = list(rows)
        self.metrics = metrics
        self.telemetry = dict(telemetry) if telemetry else None
        #: ID of the RunRecord appended for this run, when the runner had a
        #: ledger attached (set post-construction by the runner).
        self.run_record_id: str | None = None
        if param_names is not None:
            self.param_names = tuple(param_names)
        elif self.rows:
            self.param_names = tuple(self.rows[0].params)
        else:
            self.param_names = ()
        # Every signal once, in order of first appearance.
        self.output_names = tuple(dict.fromkeys(
            chain.from_iterable(row.outputs for row in self.rows)))

    @property
    def solver_stats(self) -> dict[str, int]:
        """The :data:`SOLVER_STATS` counters of :attr:`metrics`, as a new dict.

        Factorizations, factorization-cache hits/misses (Newton reuse
        included), sparsity-pattern rebuilds/reuses, transposed solves and
        behavioral-compiler kernel compiles/cache hits -- zero when the
        campaign never bumped them, empty for derived results.
        """
        if self.metrics is None:
            return {}
        counters = self.metrics.get("counters", {})
        return {key: int(counters.get(name, 0))
                for key, name in SOLVER_STATS.items()}

    # ------------------------------------------------------------------ basics
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[CampaignRow]:
        return iter(self.rows)

    def __getitem__(self, index: int) -> CampaignRow:
        return self.rows[index]

    def columns(self) -> tuple[str, ...]:
        """All column names, parameters first."""
        return (*self.param_names, *self.output_names)

    @property
    def ok_mask(self) -> np.ndarray:
        """Boolean mask of rows that evaluated without error."""
        return np.array([row.ok for row in self.rows], dtype=bool)

    @property
    def num_failures(self) -> int:
        """Number of rows that failed to evaluate."""
        return sum(not row.ok for row in self.rows)

    @property
    def num_cached(self) -> int:
        """Number of rows served from the result cache."""
        return sum(row.from_cache for row in self.rows)

    def failures(self) -> list[CampaignRow]:
        """The failed rows (parameters intact, error message set)."""
        return [row for row in self.rows if not row.ok]

    def forensic_summaries(self) -> list[dict]:
        """Flat forensic digests of the failed rows that captured one.

        Each entry is the row's :attr:`CampaignRow.forensics` dict plus the
        row ``index`` -- empty unless the evaluator ran with
        ``options.forensics`` enabled.
        """
        return [{"index": row.index, **row.forensics}
                for row in self.rows if row.forensics]

    def error(self, index: int) -> str | None:
        """Error message of row ``index`` (None when it succeeded)."""
        return self.rows[index].error

    # ----------------------------------------------------------------- columns
    def column(self, name: str) -> np.ndarray:
        """One column over all rows; missing/failed outputs become NaN.

        Numeric columns come back as float arrays; non-numeric parameter
        columns (corner labels, device variants) as object arrays.
        """
        if not self.rows:
            return np.array([], dtype=float)
        if name in self.param_names:
            values = [row.params.get(name) for row in self.rows]
        elif name in self.output_names:
            values = [row.outputs.get(name, np.nan) for row in self.rows]
        else:
            known = ", ".join(self.columns())
            raise CampaignError(f"unknown column {name!r}; available: {known}")
        try:
            return np.array([np.nan if v is None else float(v) for v in values],
                            dtype=float)
        except (TypeError, ValueError):
            return np.array(values, dtype=object)

    def ok_column(self, name: str) -> np.ndarray:
        """A column restricted to rows that evaluated successfully."""
        return self.column(name)[self.ok_mask]

    # --------------------------------------------------------------- filtering
    def filter(self, predicate: Callable[[CampaignRow], bool] | None = None,
               **param_equals) -> "CampaignResult":
        """Rows satisfying a predicate and/or exact parameter values."""
        selected = []
        for row in self.rows:
            if param_equals and any(row.params.get(k) != v
                                    for k, v in param_equals.items()):
                continue
            if predicate is not None and not predicate(row):
                continue
            selected.append(row)
        return CampaignResult(selected, self.param_names)

    def group_by(self, name: str) -> dict:
        """Sub-results keyed by the distinct values of one column.

        Grouping by an output column skips failed rows (they have no value
        to group under); grouping by a parameter column keeps every row.
        """
        if name not in self.columns():
            raise CampaignError(f"unknown column {name!r}")
        is_param = name in self.param_names
        groups: dict[object, list[CampaignRow]] = {}
        for row in self.rows:
            if is_param:
                groups.setdefault(row.params[name], []).append(row)
            elif name in row.outputs:
                groups.setdefault(row.outputs[name], []).append(row)
        return {key: CampaignResult(rows, self.param_names)
                for key, rows in groups.items()}

    # -------------------------------------------------------------- statistics
    def _ok_values(self, name: str) -> np.ndarray:
        values = self.ok_column(name).astype(float)
        values = values[np.isfinite(values)]
        if values.size == 0:
            raise CampaignError(
                f"no successful finite values of {name!r} to aggregate")
        return values

    def mean(self, name: str) -> float:
        """Mean of a column over successful rows."""
        return float(np.mean(self._ok_values(name)))

    def std(self, name: str) -> float:
        """Standard deviation of a column over successful rows."""
        return float(np.std(self._ok_values(name)))

    def minimum(self, name: str) -> float:
        """Minimum of a column over successful rows."""
        return float(np.min(self._ok_values(name)))

    def maximum(self, name: str) -> float:
        """Maximum of a column over successful rows."""
        return float(np.max(self._ok_values(name)))

    def percentile(self, name: str, q: float | Iterable[float]):
        """Percentile(s) of a column over successful rows."""
        result = np.percentile(self._ok_values(name), q)
        return float(result) if np.ndim(result) == 0 else np.asarray(result)

    def yield_fraction(self, predicate: Callable[[CampaignRow], bool] | None = None
                       ) -> float:
        """Fraction of all points that evaluated OK and pass ``predicate``.

        Failed points always count against the yield -- a device that pulls
        in (no stable solution) is a yield loss even though it produced no
        number to compare against the spec limit.
        """
        if not self.rows:
            raise CampaignError("cannot compute the yield of an empty result")
        passing = sum(1 for row in self.rows
                      if row.ok and (predicate is None or predicate(row)))
        return passing / len(self.rows)

    def summary(self, name: str) -> dict[str, float]:
        """Mean/std/min/median/max digest of one output column."""
        values = self._ok_values(name)
        return {
            "count": int(values.size),
            "mean": float(np.mean(values)),
            "std": float(np.std(values)),
            "min": float(np.min(values)),
            "p50": float(np.percentile(values, 50.0)),
            "max": float(np.max(values)),
        }

    def solver_summary(self) -> dict[str, float]:
        """Cache-efficacy digest of the dispatched solver work.

        Hit *rates* are derived from the aggregated counters; a campaign
        whose workers never touched a cache reports zero rates rather than
        NaN.  When the campaign ran with telemetry enabled the digest grows
        into a full profile: the merged ``span_totals`` / ``metrics`` /
        ``wall_s`` of every worker appear under a ``telemetry`` key
        (see :meth:`telemetry_report` for the renderable form).
        """
        stats = self.solver_stats
        hits = stats.get("factorization_cache_hits", 0)
        misses = stats.get("factorization_cache_misses", 0)
        reuses = stats.get("structure_reuses", 0)
        rebuilds = stats.get("structure_rebuilds", 0)
        stats["factorization_cache_hit_rate"] = \
            hits / (hits + misses) if hits + misses else 0.0
        stats["structure_reuse_rate"] = \
            reuses / (reuses + rebuilds) if reuses + rebuilds else 0.0
        compiles = stats.get("hdl_compiles", 0)
        kernel_hits = stats.get("hdl_compile_cache_hits", 0)
        stats["hdl_compile_cache_hit_rate"] = \
            kernel_hits / (kernel_hits + compiles) \
            if kernel_hits + compiles else 0.0
        if self.telemetry is not None:
            stats["telemetry"] = {
                "mode": self.telemetry.get("mode"),
                "wall_s": self.telemetry.get("wall_s", 0.0),
                "span_totals": {name: dict(entry) for name, entry in
                                self.telemetry.get("span_totals", {}).items()},
                "metrics": self.telemetry.get("metrics", {}),
            }
        return stats

    def telemetry_report(self):
        """The merged campaign profile as a :class:`~repro.telemetry.TelemetryReport`.

        Aggregate-only (no span trees -- workers never ship those), so the
        Chrome-trace exporter has nothing to draw, but
        ``profile_summary()`` and ``to_json()`` work.  ``None`` when the
        campaign ran without telemetry.
        """
        if self.telemetry is None:
            return None
        from ..telemetry import TelemetryReport

        return TelemetryReport(
            self.telemetry.get("mode") or "summary", [],
            self.telemetry.get("span_totals", {}),
            self.telemetry.get("metrics", {}),
            self.telemetry.get("wall_s", 0.0))

    def to_rows(self) -> list[dict]:
        """Plain-dict rows (params + outputs + error) for serialization."""
        return [{**row.params, **row.outputs, "error": row.error}
                for row in self.rows]

    def __repr__(self) -> str:
        solver = ""
        factorizations = self.solver_stats.get("factorizations")
        if factorizations:
            solver = f", {factorizations} factorizations"
        return (f"CampaignResult({len(self.rows)} points, "
                f"{len(self.param_names)} params, {len(self.output_names)} outputs, "
                f"{self.num_failures} failures, {self.num_cached} cached"
                f"{solver})")
