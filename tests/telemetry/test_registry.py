"""The metrics registry: counters, gauges, histograms, delta/merge/reset."""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.linalg import FactorizedSolver
from repro.telemetry import registry


@pytest.fixture(autouse=True)
def _clean_registry():
    registry.reset(prefix="test.")
    yield
    registry.reset(prefix="test.")


class TestPrimitives:
    def test_counter_inc_and_read(self):
        assert registry.counter_value("test.c") == 0
        registry.inc("test.c")
        registry.inc("test.c", 2.5)
        assert registry.counter_value("test.c") == 3.5

    def test_gauge_last_write_wins(self):
        registry.set_gauge("test.g", 1.0)
        registry.set_gauge("test.g", -4.0)
        assert registry.gauge_value("test.g") == -4.0

    def test_histogram_digest(self):
        assert registry.histogram_value("test.h") is None
        for value in (3.0, 1.0, 2.0):
            registry.observe("test.h", value)
        digest = registry.histogram_value("test.h")
        assert digest == {"count": 3, "sum": 6.0, "min": 1.0, "max": 3.0}

    def test_snapshot_is_detached_copy(self):
        registry.inc("test.c")
        snap = registry.snapshot()
        registry.inc("test.c")
        assert snap["counters"]["test.c"] == 1
        assert registry.counter_value("test.c") == 2


class TestDeltaMerge:
    def test_delta_drops_unchanged(self):
        registry.inc("test.stable")
        before = registry.snapshot()
        registry.inc("test.changed", 2)
        registry.observe("test.h_s", 0.5)
        diff = registry.delta(before)
        assert diff["counters"] == {"test.changed": 2}
        assert "test.stable" not in diff["counters"]
        assert diff["histograms"]["test.h_s"]["count"] == 1

    def test_delta_of_histogram_growth(self):
        registry.observe("test.h_s", 1.0)
        before = registry.snapshot()
        registry.observe("test.h_s", 3.0)
        diff = registry.delta(before)
        digest = diff["histograms"]["test.h_s"]
        assert digest["count"] == 1 and digest["sum"] == 3.0

    def test_merge_accumulates(self):
        total = {}
        registry.merge(total, {"counters": {"test.c": 1},
                               "histograms": {"test.h": {"count": 1, "sum": 2.0,
                                                         "min": 2.0, "max": 2.0}}})
        registry.merge(total, {"counters": {"test.c": 2},
                               "gauges": {"test.g": 7.0},
                               "histograms": {"test.h": {"count": 2, "sum": 1.0,
                                                         "min": 0.5, "max": 0.5}}})
        assert total["counters"]["test.c"] == 3
        assert total["gauges"]["test.g"] == 7.0
        assert total["histograms"]["test.h"] == {"count": 3, "sum": 3.0,
                                                 "min": 0.5, "max": 2.0}

    def test_serial_equals_merged_chunks(self):
        """Splitting a stream of observations into deltas loses nothing."""
        base = registry.snapshot()
        registry.inc("test.c", 5)
        registry.observe("test.h", 1.0)
        mid = registry.snapshot()
        registry.inc("test.c", 7)
        registry.observe("test.h", 9.0)
        merged = registry.merge(registry.merge({}, registry.delta(base, mid)),
                                registry.delta(mid))
        whole = registry.delta(base)
        assert merged["counters"] == whole["counters"]
        assert merged["histograms"]["test.h"]["count"] == \
            whole["histograms"]["test.h"]["count"]
        assert merged["histograms"]["test.h"]["sum"] == \
            whole["histograms"]["test.h"]["sum"]

    def test_reset_filters(self):
        registry.inc("test.a")
        registry.inc("test.b")
        registry.set_gauge("test.g", 1.0)
        registry.reset(names=["test.a"])
        assert registry.counter_value("test.a") == 0
        assert registry.counter_value("test.b") == 1
        registry.reset(prefix="test.")
        assert registry.counter_value("test.b") == 0
        assert registry.gauge_value("test.g") == 0.0


class TestLinalgCounters:
    def test_session_delta_sees_linalg_counters(self):
        with telemetry.session() as sess:
            FactorizedSolver("dense").factorize(np.eye(3))
        assert sess.report.metrics["counters"]["linalg.factorizations"] == 1
