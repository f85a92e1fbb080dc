"""Process-wide metrics registry: counters, gauges and histograms.

Any layer of the stack can bump a **counter** (monotone event count, e.g.
the ``linalg.*`` factorization- and structure-cache counters), publish a
**gauge** (last-written value) or **observe** a value into a **histogram**
(count / sum / min / max digest -- the form that merges across processes
without binning decisions).

Counters follow two rules:

* plain module-level state, no locks -- each process mutates only its own
  copy, and every campaign chunk ships one *delta* (:func:`delta`) back to
  the parent, where they are merged (:func:`merge`) into
  ``CampaignResult.metrics`` at every telemetry level,
* recording is unconditional and cheap (one dict lookup + add), so the
  always-on counters cost the same whether telemetry is enabled or not.

Timing histograms are the exception: the instrumentation sites that feed
them guard on :func:`repro.telemetry.enabled` because the two
``perf_counter`` calls per observation are only worth paying when someone
is collecting.

Naming convention: dotted lowercase paths (``linalg.factorizations``,
``mna.assembly.tran.full_s``); durations carry an ``_s`` suffix and are
reported in seconds.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = ["inc", "set_gauge", "observe", "counter_value", "gauge_value",
           "histogram_value", "snapshot", "delta", "merge", "reset",
           "HISTOGRAM_FIELDS"]

#: Field order of a histogram digest (kept mergeable across processes).
HISTOGRAM_FIELDS = ("count", "sum", "min", "max")

_counters: dict[str, float] = {}
_gauges: dict[str, float] = {}
#: name -> [count, sum, min, max]
_histograms: dict[str, list[float]] = {}


# --------------------------------------------------------------------- write
def inc(name: str, amount: float = 1.0) -> None:
    """Bump counter ``name`` by ``amount`` (created at zero on first use)."""
    _counters[name] = _counters.get(name, 0) + amount


def set_gauge(name: str, value: float) -> None:
    """Publish the current value of gauge ``name`` (last write wins)."""
    _gauges[name] = float(value)


def observe(name: str, value: float) -> None:
    """Record one observation into histogram ``name``."""
    value = float(value)
    digest = _histograms.get(name)
    if digest is None:
        _histograms[name] = [1, value, value, value]
        return
    digest[0] += 1
    digest[1] += value
    if value < digest[2]:
        digest[2] = value
    if value > digest[3]:
        digest[3] = value


# ---------------------------------------------------------------------- read
def counter_value(name: str, default: float = 0) -> float:
    """Current value of counter ``name`` (``default`` when never bumped)."""
    return _counters.get(name, default)


def gauge_value(name: str, default: float = 0.0) -> float:
    """Last published value of gauge ``name``."""
    return _gauges.get(name, default)


def histogram_value(name: str) -> dict[str, float] | None:
    """Digest dict of histogram ``name`` (``None`` when never observed)."""
    digest = _histograms.get(name)
    if digest is None:
        return None
    return dict(zip(HISTOGRAM_FIELDS, digest))


def snapshot() -> dict:
    """Deep copy of the whole registry: the unit of cross-process shipping.

    The shape is ``{"counters": {...}, "gauges": {...}, "histograms":
    {name: {count, sum, min, max}}}`` -- plain JSON/pickle-friendly dicts.
    """
    return {
        "counters": dict(_counters),
        "gauges": dict(_gauges),
        "histograms": {name: dict(zip(HISTOGRAM_FIELDS, digest))
                       for name, digest in _histograms.items()},
    }


# --------------------------------------------------------------- aggregation
def delta(before: Mapping, after: Mapping | None = None) -> dict:
    """Per-metric difference ``after - before`` (``after`` defaults to now).

    Counters and histogram count/sum subtract; histogram min/max and gauges
    are taken from ``after`` (they describe state, not flow).  Metrics that
    did not change are dropped, so an idle worker ships an empty payload.
    """
    if after is None:
        after = snapshot()
    counters_before = before.get("counters", {})
    counters = {}
    for name, value in after.get("counters", {}).items():
        diff = value - counters_before.get(name, 0)
        if diff:
            counters[name] = diff
    histograms_before = before.get("histograms", {})
    histograms = {}
    for name, digest in after.get("histograms", {}).items():
        prior = histograms_before.get(name)
        count = digest["count"] - (prior["count"] if prior else 0)
        if count <= 0:
            continue
        histograms[name] = {
            "count": count,
            "sum": digest["sum"] - (prior["sum"] if prior else 0.0),
            "min": digest["min"],
            "max": digest["max"],
        }
    gauges_before = before.get("gauges", {})
    gauges = {name: value for name, value in after.get("gauges", {}).items()
              if gauges_before.get(name) != value}
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def merge(total: dict, part: Mapping) -> dict:
    """Accumulate one snapshot/delta into a running total, in place.

    ``total`` may start as ``{}``; the merged shape matches
    :func:`snapshot`.  Counters and histogram count/sum add, histogram
    min/max widen, gauges last-write-win.  Returns ``total``.
    """
    counters = total.setdefault("counters", {})
    for name, value in part.get("counters", {}).items():
        counters[name] = counters.get(name, 0) + value
    gauges = total.setdefault("gauges", {})
    gauges.update(part.get("gauges", {}))
    histograms = total.setdefault("histograms", {})
    for name, digest in part.get("histograms", {}).items():
        into = histograms.get(name)
        if into is None:
            histograms[name] = dict(digest)
            continue
        into["count"] += digest["count"]
        into["sum"] += digest["sum"]
        into["min"] = min(into["min"], digest["min"])
        into["max"] = max(into["max"], digest["max"])
    return total


def reset(names: Iterable[str] | None = None, prefix: str | None = None) -> None:
    """Zero counters/gauges/histograms (test isolation helper).

    With no arguments the whole registry is cleared; ``names`` restricts the
    reset to exact metric names, ``prefix`` to every metric whose name
    starts with it (both filters combine as a union).
    """
    if names is None and prefix is None:
        _counters.clear()
        _gauges.clear()
        _histograms.clear()
        return
    selected = set(names or ())

    def matches(name: str) -> bool:
        return name in selected or (prefix is not None
                                    and name.startswith(prefix))

    for store in (_counters, _gauges, _histograms):
        for name in [name for name in store if matches(name)]:
            del store[name]
