"""Tests for repro.bench.reporting."""

import pytest

from repro.bench.reporting import paper_vs_measured_table

pytestmark = pytest.mark.fast


class TestPaperVsMeasured:
    def test_deviation_computed(self):
        out = paper_vs_measured_table("T", [("reduction", 0.38, 0.36)])
        assert "reduction" in out
        assert "-0.05" in out  # (0.36-0.38)/0.38 ≈ -0.0526

    def test_none_renders_dash(self):
        out = paper_vs_measured_table("T", [("x", None, 1.0), ("y", 1.0, None)])
        assert out.count("–") >= 2

    def test_zero_paper_value_no_deviation(self):
        out = paper_vs_measured_table("T", [("x", 0.0, 1.0)])
        assert "–" in out
