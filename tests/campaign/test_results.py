"""Tests for the columnar CampaignResult table."""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import CampaignResult, CampaignRow
from repro.errors import CampaignError


def _result():
    rows = [
        CampaignRow(0, {"corner": "slow", "v": 1.0}, {"force": 1.0}),
        CampaignRow(1, {"corner": "slow", "v": 2.0}, {"force": 4.0}),
        CampaignRow(2, {"corner": "fast", "v": 1.0}, {"force": 2.0},
                    from_cache=True),
        CampaignRow(3, {"corner": "fast", "v": 2.0}, {},
                    error="ConvergenceError: pulled in"),
    ]
    return CampaignResult(rows, param_names=("corner", "v"))


class TestColumns:
    def test_param_and_output_columns(self):
        result = _result()
        assert result.columns() == ("corner", "v", "force")
        np.testing.assert_allclose(result.column("v"), [1.0, 2.0, 1.0, 2.0])
        assert list(result.column("corner")) == ["slow", "slow", "fast", "fast"]

    def test_output_names_keep_first_appearance_order(self):
        rows = [
            CampaignRow(0, {"v": 1.0}, {}, error="ConvergenceError: x"),
            CampaignRow(1, {"v": 2.0}, {"b": 1.0, "a": 2.0}),
            CampaignRow(2, {"v": 3.0}, {}, error="ConvergenceError: y"),
            CampaignRow(3, {"v": 4.0}, {"a": 3.0, "extra": 0.5, "b": 4.0}),
            CampaignRow(4, {"v": 5.0}, {"c": 1.0, "a": 5.0}),
        ]
        result = CampaignResult(rows, param_names=("v",))
        assert result.output_names == ("b", "a", "extra", "c")
        assert result.columns() == ("v", "b", "a", "extra", "c")
        extra = result.column("extra")
        assert extra[3] == 0.5
        assert np.isnan(extra[[0, 1, 2, 4]]).all()
        assert CampaignResult([]).output_names == ()

    def test_failed_rows_become_nan(self):
        force = _result().column("force")
        np.testing.assert_allclose(force[:3], [1.0, 4.0, 2.0])
        assert np.isnan(force[3])

    def test_ok_mask_and_failures(self):
        result = _result()
        assert list(result.ok_mask) == [True, True, True, False]
        assert result.num_failures == 1
        assert result.num_cached == 1
        assert result.failures()[0].error.startswith("ConvergenceError")
        assert result.error(3) is not None and result.error(0) is None

    def test_unknown_column_rejected(self):
        with pytest.raises(CampaignError):
            _result().column("nope")


class TestFilterGroup:
    def test_filter_by_param_value(self):
        slow = _result().filter(corner="slow")
        assert len(slow) == 2
        np.testing.assert_allclose(slow.column("force"), [1.0, 4.0])

    def test_filter_by_predicate(self):
        big = _result().filter(lambda row: row.ok and row["force"] > 1.5)
        assert len(big) == 2

    def test_group_by(self):
        groups = _result().group_by("corner")
        assert set(groups) == {"slow", "fast"}
        assert len(groups["fast"]) == 2
        assert groups["fast"].num_failures == 1

    def test_group_by_output_skips_failed_rows(self):
        groups = _result().group_by("force")
        assert set(groups) == {1.0, 4.0, 2.0}
        assert all(len(group) == 1 for group in groups.values())


class TestStatistics:
    def test_aggregates_skip_failures(self):
        result = _result()
        assert result.mean("force") == pytest.approx(7.0 / 3.0)
        assert result.minimum("force") == 1.0
        assert result.maximum("force") == 4.0
        assert result.percentile("force", 50.0) == 2.0
        summary = result.summary("force")
        assert summary["count"] == 3 and summary["p50"] == 2.0

    def test_yield_counts_failures_against(self):
        result = _result()
        # 3 of 4 points succeeded at all:
        assert result.yield_fraction() == pytest.approx(0.75)
        # 2 of 4 meet the spec limit; the failed point is a yield loss:
        assert result.yield_fraction(lambda row: row["force"] >= 2.0) \
            == pytest.approx(0.5)

    def test_empty_aggregation_rejected(self):
        result = CampaignResult([CampaignRow(0, {"v": 1.0}, {}, error="boom")],
                                param_names=("v",))
        with pytest.raises(CampaignError):
            result.mean("force")
        with pytest.raises(CampaignError):
            CampaignResult([]).yield_fraction()

    def test_to_rows(self):
        rows = _result().to_rows()
        assert rows[0] == {"corner": "slow", "v": 1.0, "force": 1.0, "error": None}
        assert rows[3]["error"].startswith("ConvergenceError")
