"""Tests for the analysis toolkit (CDFs, LoC accounting, tables)."""

from pathlib import Path

import pytest

from repro.analysis import (
    cdf_series,
    count_olg,
    count_python_lines,
    empirical_cdf,
    percentile,
    render_table,
    repo_code_sizes,
    summarize,
)
from repro.analysis.cdf import render_ascii_cdf
from repro.sketches import TDigest

SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"


class TestCdf:
    def test_empirical_cdf(self):
        cdf = empirical_cdf([3, 1, 2, 4])
        assert cdf == [(1, 0.25), (2, 0.5), (3, 0.75), (4, 1.0)]

    def test_empty(self):
        assert empirical_cdf([]) == []

    def test_percentiles(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 100

    def test_percentile_errors(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 150)

    def test_summary(self):
        s = summarize([1, 2, 3, 4, 5])
        assert s["min"] == 1 and s["max"] == 5
        assert s["mean"] == 3

    def test_cdf_series_downsamples(self):
        series = cdf_series(list(range(1000)), points=10)
        assert len(series) <= 12
        assert series[-1][1] == 1.0

    def test_percentile_single_sample(self):
        # every percentile of one sample is that sample
        for p in (0, 1, 50, 99, 100):
            assert percentile([7.5], p) == 7.5

    def test_percentile_negative_p_rejected(self):
        with pytest.raises(ValueError):
            percentile([1, 2, 3], -1)

    def test_percentile_duplicate_heavy_series(self):
        # nearest-rank on a 90%-duplicates series: the median and p90
        # land on the duplicated value, the tail percentiles escape it.
        # True nearest-rank (rank = ceil(p/100*n)): p91 of 100 samples is
        # the 91st order statistic, exactly the first value past the
        # duplicates.
        values = [5] * 90 + list(range(91, 101))
        assert percentile(values, 50) == 5
        assert percentile(values, 90) == 5
        assert percentile(values, 91) == 91
        assert percentile(values, 95) == 95
        assert percentile(values, 100) == 100

    def test_percentile_all_duplicates(self):
        assert percentile([3] * 50, 99) == 3
        assert summarize([3] * 50)["p95"] == 3

    def test_percentile_unsorted_input(self):
        values = [9, 1, 5, 3, 7]
        assert percentile(values, 0) == 1
        assert percentile(values, 50) == 5
        assert percentile(values, 100) == 9

    def test_summarize_empty(self):
        assert summarize([]) == {}

    def test_summarize_tail_keys(self):
        s = summarize(list(range(1, 1001)))
        assert s["p99"] == 990
        assert s["p999"] == 999

    def test_percentile_matches_tdigest_quantiles(self):
        # Cross-validation: the exact nearest-rank percentile and the
        # t-digest's interpolated quantile must agree closely on a
        # well-populated sample (same semantics, different machinery).
        values = [((i * 7919) % 1000) / 10 for i in range(2000)]
        digest = TDigest()
        for v in values:
            digest.add(v)
        spread = max(values) - min(values)
        for p in (1, 10, 25, 50, 75, 90, 95, 99, 99.9):
            exact = percentile(values, p)
            approx = digest.quantile(p / 100)
            assert abs(exact - approx) <= 0.02 * spread, (
                f"p{p}: exact {exact} vs digest {approx}"
            )

    def test_percentile_matches_tdigest_on_extremes(self):
        values = [3.0, 7.0, 11.0, 42.0]
        digest = TDigest()
        for v in values:
            digest.add(v)
        assert percentile(values, 0) == digest.quantile(0.0) == 3.0
        assert percentile(values, 100) == digest.quantile(1.0) == 42.0


class TestAsciiCdf:
    def test_normal_series_renders(self):
        out = render_ascii_cdf({"a": [1, 2, 3, 4]}, width=10, title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert lines[1] == "  a"
        assert lines[-1].endswith("| 4")
        assert "#" * 10 in lines[-1]

    def test_all_zero_series(self):
        out = render_ascii_cdf({"z": [0, 0, 0]}, width=10)
        for line in out.splitlines()[1:]:
            assert "#" not in line  # empty bars, not a full-width wall
            assert line.endswith("| 0")

    def test_all_equal_series_anchors_at_zero(self):
        out = render_ascii_cdf({"c": [5, 5, 5]}, width=10)
        bars = [line for line in out.splitlines() if "|" in line]
        assert bars and all("##########" in line for line in bars)

    def test_negative_values_never_produce_negative_bars(self):
        out = render_ascii_cdf({"n": [-10, -5, 0, 5]}, width=12)
        for line in out.splitlines():
            assert line.count("#") <= 12
        # The most-negative crossing has an empty bar, the max a full one.
        bars = [line for line in out.splitlines() if "|" in line]
        assert "#" not in bars[0]
        assert "#" * 12 in bars[-1]

    def test_empty_inner_series_skipped(self):
        out = render_ascii_cdf({"e": [], "a": [1]}, width=4)
        assert "  a" in out and "  e" not in out

    def test_empty_input(self):
        assert render_ascii_cdf({}, title="t") == "t"
        assert render_ascii_cdf({"x": []}) == ""


class TestLoc:
    def test_count_python_lines_skips_comments_and_docstrings(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text(
            '"""Module docstring\nspanning lines."""\n'
            "# a comment\n"
            "\n"
            "def f():\n"
            '    """doc"""\n'
            "    return 1  # trailing\n"
        )
        # Only `def f():` and `return 1` count: docstrings, comments and
        # blanks are excluded.
        assert count_python_lines(f) == 2

    def test_count_olg(self):
        olg = SRC_ROOT / "boomfs" / "programs" / "boomfs_master.olg"
        stats = count_olg(olg)
        assert stats.rules > 30
        assert stats.tables >= 7
        assert stats.events >= 10
        assert 0 < stats.lines < 400

    def test_repo_code_sizes_cover_all_packages(self):
        sizes = repo_code_sizes(SRC_ROOT)
        assert {"overlog", "boomfs", "paxos", "mapreduce", "hadoop"} <= set(sizes)
        assert sizes["boomfs"]["olg_rules"] > 0
        assert sizes["hadoop"]["olg_rules"] == 0
        assert sizes["hadoop"]["python_loc"] > 100


class TestTables:
    def test_render_table_alignment(self):
        out = render_table(
            ["name", "value"], [["alpha", 1], ["b", 22.5]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "-" in lines[2]
        assert len(lines) == 5

    @pytest.mark.parametrize("row", [["alpha"], ["alpha", 1, 2]])
    def test_render_table_names_a_row_of_the_wrong_length(self, row):
        with pytest.raises(ValueError, match=r"row \['alpha'.*headers"):
            render_table(["name", "value"], [["b", 2], row])
