"""Tests for the terminal rendering helpers."""

from __future__ import annotations

import numpy as np

from repro.analysis.render import bar, cdf_strip, mix_table, sparkline


class TestSparkline:
    def test_length_capped_at_width(self):
        assert len(sparkline(np.arange(1000), width=40)) == 40

    def test_short_series_kept(self):
        assert len(sparkline(np.arange(5), width=40)) == 5

    def test_flat_series(self):
        line = sparkline(np.full(10, 3.0))
        assert line == "▄" * 10

    def test_monotone_series_renders_ramp(self):
        line = sparkline(np.arange(8, dtype=float), width=8)
        assert line[0] == " " and line[-1] == "█"

    def test_empty(self):
        assert sparkline(np.array([])) == ""

    def test_diurnal_shape_has_peaks_and_valleys(self):
        t = np.linspace(0, 4 * np.pi, 200)
        line = sparkline(np.sin(t) + 1, width=40)
        assert "█" in line and " " in line


class TestBar:
    def test_full_and_empty(self):
        assert bar(1.0, width=10) == "#" * 10
        assert bar(0.0, width=10) == "." * 10

    def test_half(self):
        assert bar(0.5, width=10) == "#####....."

    def test_clipped(self):
        assert bar(2.0, width=4) == "####"
        assert bar(-1.0, width=4) == "...."


class TestMixTable:
    def test_renders_all_categories(self):
        table = mix_table(
            {
                "private": {"diurnal": 0.6, "stable": 0.1},
                "public": {"diurnal": 0.3, "stable": 0.4},
            }
        )
        assert "diurnal" in table and "stable" in table
        assert "private" in table and "public" in table
        # Sorted by the first column's share: diurnal row first.
        assert table.index("diurnal") < table.index("stable")

    def test_empty(self):
        assert mix_table({}) == ""


class TestCdfStrip:
    def test_quantiles_shown(self):
        values = np.arange(1, 101, dtype=float)
        probs = values / 100.0
        strip = cdf_strip(values, probs)
        assert "p50=50" in strip
        assert "p90=90" in strip

    def test_empty(self):
        assert cdf_strip(np.array([]), np.array([])) == ""


def test_summary_cli_command(capsys):
    from repro.cli import main

    code = main(["summary", "--seed", "3", "--scale", "0.08"])
    assert code == 0
    out = capsys.readouterr().out
    assert "VM count/hour" in out
    assert "utilization pattern mix" in out and "diurnal" in out
    assert "private VM count/hour" in out and "public VM count/hour" in out
