"""Spans, sessions, nesting, exception safety and the disabled fast path."""

from __future__ import annotations

import threading

import pytest

from repro import telemetry
from repro.telemetry.context import _NULL_SPAN


class TestDisabledPath:
    def test_span_is_shared_null_object_without_session(self):
        assert telemetry.span("anything") is _NULL_SPAN
        assert telemetry.detail_span("anything") is _NULL_SPAN
        assert not telemetry.enabled()
        assert not telemetry.detail_enabled()

    def test_null_span_is_inert(self):
        with telemetry.span("x") as s:
            s.set("a", 1)
            s.bump("b")
            s.annotate(c=2)
        assert s is _NULL_SPAN
        assert s.attrs == {} and s.children == []

    def test_current_without_open_span(self):
        assert telemetry.current() is _NULL_SPAN


class TestNesting:
    def test_children_attach_to_enclosing_span(self):
        with telemetry.session() as sess:
            with telemetry.span("outer"):
                with telemetry.span("inner.a"):
                    pass
                with telemetry.span("inner.b"):
                    with telemetry.span("leaf"):
                        pass
        (root,) = sess.report.spans
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner.a", "inner.b"]
        assert [c.name for c in root.children[1].children] == ["leaf"]

    def test_durations_nest_and_self_time_is_nonnegative(self):
        with telemetry.session() as sess:
            with telemetry.span("outer"):
                with telemetry.span("inner"):
                    pass
        (root,) = sess.report.spans
        inner = root.children[0]
        assert root.duration_s >= inner.duration_s >= 0.0
        assert root.self_s >= 0.0

    def test_attributes_recorded(self):
        with telemetry.session() as sess:
            with telemetry.span("work", tag="x") as s:
                s.set("n", 3)
                s.bump("hits")
                s.bump("hits")
        (root,) = sess.report.spans
        assert root.attrs == {"tag": "x", "n": 3, "hits": 2}

    def test_sibling_roots_collected_in_order(self):
        with telemetry.session() as sess:
            for name in ("a", "b", "c"):
                with telemetry.span(name):
                    pass
        assert [s.name for s in sess.report.spans] == ["a", "b", "c"]


class TestExceptionSafety:
    def test_exception_closes_span_and_propagates(self):
        with telemetry.session() as sess:
            with pytest.raises(ValueError):
                with telemetry.span("failing"):
                    raise ValueError("boom")
        (root,) = sess.report.spans
        assert root.attrs["error"] == "ValueError"
        assert root.duration_s >= 0.0

    def test_stack_unwinds_past_skipped_inner_exits(self):
        from repro.telemetry.context import _state

        with telemetry.session() as sess:
            with pytest.raises(RuntimeError):
                with telemetry.span("outer"):
                    inner = telemetry.span("inner")
                    inner.__enter__()  # never exited: the error skips it
                    raise RuntimeError("skipped inner exit")
        assert _state.stack == []
        (root,) = sess.report.spans
        assert root.name == "outer"

    def test_session_exits_cleanly_on_exception(self):
        with pytest.raises(KeyError):
            with telemetry.session():
                raise KeyError("x")
        assert not telemetry.enabled()


class TestSessions:
    def test_report_wall_time_and_totals(self):
        with telemetry.session() as sess:
            with telemetry.span("a"):
                with telemetry.span("b"):
                    pass
            with telemetry.span("b"):
                pass
        report = sess.report
        assert report.wall_s > 0.0
        assert report.span_totals["a"]["count"] == 1
        assert report.span_totals["b"]["count"] == 2
        assert report.span_totals["b"]["total_s"] >= 0.0

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            telemetry.session(mode="verbose")

    def test_detail_span_only_in_full_mode(self):
        with telemetry.session(mode="summary") as sess:
            assert telemetry.detail_span("fine") is _NULL_SPAN
            assert not telemetry.detail_enabled()
        assert sess.report.spans == []
        with telemetry.session(mode="full") as sess:
            assert telemetry.detail_enabled()
            with telemetry.detail_span("fine"):
                pass
        assert [s.name for s in sess.report.spans] == ["fine"]

    def test_nested_sessions_fold_totals_outward(self):
        with telemetry.session() as outer:
            with telemetry.span("outer.work"):
                pass
            with telemetry.session() as inner:
                with telemetry.span("inner.work"):
                    pass
        assert [s.name for s in inner.report.spans] == ["inner.work"]
        # The outer report still accounts for the inner session's spans in
        # its aggregate totals (but does not own the span tree).
        assert [s.name for s in outer.report.spans] == ["outer.work"]
        assert outer.report.span_totals["inner.work"]["count"] == 1

    def test_aggregate_only_session_keeps_totals_not_trees(self):
        with telemetry.session(keep_spans=False) as sess:
            for _ in range(3):
                with telemetry.span("chunk"):
                    with telemetry.span("leaf"):
                        pass
        report = sess.report
        assert report.spans == []
        assert report.span_totals["chunk"]["count"] == 3
        assert report.span_totals["leaf"]["count"] == 3
        # No registry delta: the caller (a campaign chunk) takes its own.
        assert report.metrics == {}
        payload = report.aggregate_payload()
        assert set(payload) == {"span_totals", "wall_s"}

    def test_sessions_are_thread_local(self):
        seen = {}

        def worker():
            seen["enabled"] = telemetry.enabled()
            seen["span"] = telemetry.span("w")

        with telemetry.session():
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["enabled"] is False
        assert seen["span"] is _NULL_SPAN


class TestAggregation:
    def test_merge_span_totals(self):
        a = {"x": {"count": 1, "total_s": 1.0, "self_s": 0.5}}
        b = {"x": {"count": 2, "total_s": 2.0, "self_s": 1.0},
             "y": {"count": 1, "total_s": 0.25, "self_s": 0.25}}
        merged = telemetry.merge_span_totals(a, b)
        assert merged is a
        assert a["x"] == {"count": 3, "total_s": 3.0, "self_s": 1.5}
        assert a["y"] == {"count": 1, "total_s": 0.25, "self_s": 0.25}
        # The source mapping must not be aliased into the target.
        b["y"]["count"] = 99
        assert a["y"]["count"] == 1
