"""Tests for the experiment harness (runner / stats / tables)."""

import math

import pytest

from repro.analysis import (
    ParallelRunner,
    doubling_ratios,
    format_table,
    log_fit,
    mean_ci,
    print_banner,
)


class TestRunner:
    def test_repeat_collects_records(self):
        res = ParallelRunner(workers=1).repeat(
            lambda s: {"x": float(s)}, seeds=range(4)
        )
        assert res.column("x") == [0.0, 1.0, 2.0, 3.0]
        assert res.mean("x") == 1.5
        assert res.min("x") == 0.0
        assert res.max("x") == 3.0

    def test_sweep_crosses_points_and_seeds(self):
        results = ParallelRunner(workers=1).sweep(
            lambda seed, n: {"v": float(seed + n)},
            points=[{"n": 10}, {"n": 20}],
            seeds=[1, 2],
        )
        assert len(results) == 2
        assert results[0].params == {"n": 10}
        assert results[0].column("v") == [11.0, 12.0]
        assert results[1].column("v") == [21.0, 22.0]


class TestStats:
    def test_mean_ci_singleton(self):
        assert mean_ci([5.0]) == (5.0, 0.0)

    def test_mean_ci_width_shrinks(self):
        wide = mean_ci([1.0, 3.0])[1]
        narrow = mean_ci([1.0, 3.0] * 10)[1]
        assert narrow < wide

    def test_mean_ci_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_ci([])

    def test_log_fit_recovers_coefficients(self):
        ns = [16, 32, 64, 128, 256]
        ys = [3 * math.log2(n) + 7 for n in ns]
        fit = log_fit(ns, ys)
        assert fit["a"] == pytest.approx(3.0)
        assert fit["b"] == pytest.approx(7.0)
        assert fit["r2"] == pytest.approx(1.0)

    def test_log_fit_bad_input(self):
        with pytest.raises(ValueError):
            log_fit([1], [2])

    def test_doubling_ratios_log_growth_constant(self):
        ns = [16, 32, 64, 128]
        ys = [5 * math.log2(n) for n in ns]
        diffs = doubling_ratios(ns, ys)
        assert all(d == pytest.approx(5.0) for d in diffs)

    def test_doubling_ratios_skips_non_doubling(self):
        assert doubling_ratios([10, 15], [1.0, 2.0]) == []


class TestTables:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 4.125]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "4.125" in lines[3]

    def test_format_table_empty_rows(self):
        out = format_table(["x"], [])
        assert "x" in out

    def test_print_banner_smoke(self, capsys):
        print_banner("E1", "something holds")
        captured = capsys.readouterr().out
        assert "E1" in captured and "paper claim" in captured
