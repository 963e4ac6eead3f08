"""The CLI's score-code route, pinned to the library's float path on the same input."""

from __future__ import annotations

import io
import math
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from suskit import (
    DIMENSIONS,
    ResponseRow,
    descriptive_stats,
    frequency_table,
    histogram_bins,
    ingest,
    load_responses,
    render_category_chart,
    render_histogram,
    render_report,
    render_single_report,
    score_all,
)
from suskit.cli import main
from suskit.stats import code_counts

answer_tuples = st.lists(st.integers(1, 5), min_size=10, max_size=10).map(tuple)
# Grid input: 1 to 300 responses, all-equal samples and n = 2 included.
response_lists = st.one_of(
    st.lists(answer_tuples, min_size=1, max_size=300),
    st.builds(lambda answers, n: [answers] * n, answer_tuples, st.integers(1, 300)),
    st.lists(answer_tuples, min_size=2, max_size=2),
)
code_lists = st.one_of(
    st.lists(st.integers(0, 40), min_size=1, max_size=300),
    st.builds(lambda k, n: [k] * n, st.integers(0, 40), st.integers(1, 300)),
    st.lists(st.integers(0, 40), min_size=2, max_size=2),
).map(bytes)


def float_path_outputs(scores):
    """What each command prints or writes, from the library's float functions."""
    if len(scores) == 1:
        report = render_single_report(scores[0])
    else:
        tables = {dimension: frequency_table(scores, dimension) for dimension in DIMENSIONS}
        report = render_report(scores, descriptive_stats(scores), tables)
    charts = {"histogram": render_histogram(histogram_bins(scores)).svg_text}
    for dimension in DIMENSIONS:
        charts[dimension] = render_category_chart(frequency_table(scores, dimension)).svg_text
    return "".join(f"{score:.1f}\n" for score in scores), report, charts


def run(*argv) -> str:
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert main(list(argv)) == 0
    return stdout.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("code_path")


@given(responses=response_lists)
def test_cli_outputs_equal_float_path(workdir, responses):
    source = workdir / "responses.csv"
    source.write_text("".join(";".join(map(str, answers)) + "\n" for answers in responses))
    score_text, report, charts = float_path_outputs(score_all(load_responses(source).rows))

    assert run("score", str(source)) == score_text
    assert run("report", str(source), "--output", str(workdir / "report.txt")) == report
    assert (workdir / "report.txt").read_bytes() == report.encode("utf-8")
    for kind, svg in charts.items():
        target = workdir / f"{kind}.svg"
        assert run("chart", kind, str(source), "--output", str(target)) == ""
        assert target.read_bytes() == svg.encode("utf-8")


def test_cli_builds_no_row(workdir):
    answers = [(1, 2, 3, 4, 5, 1, 2, 3, 4, 5), (5, 5, 5, 5, 5, 1, 1, 1, 1, 1), (3,) * 10]
    # Padded fields and a blank line miss the lookup, so every line takes the walk.
    lines = [" ; ".join(map(str, row)) for row in answers]
    source = workdir / "padded.csv"
    source.write_bytes("\r\n".join([lines[0], "", *lines[1:], ""]).encode())
    score_text, report, charts = float_path_outputs(score_all(map(ResponseRow, answers)))

    with mock.patch.object(ingest, "ResponseRow", side_effect=AssertionError("row built")):
        assert run("score", str(source)) == score_text
        assert run("report", str(source), "--output", str(workdir / "report.txt")) == report
        for kind, svg in charts.items():
            target = workdir / f"{kind}.svg"
            assert run("chart", kind, str(source), "--output", str(target)) == ""
            assert target.read_bytes() == svg.encode("utf-8")


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="statistics.stdev rounds its result twice before Python 3.11")
@given(codes=code_lists)
def test_code_stats_equal_float_stats(codes):
    expected = descriptive_stats([2.5 * k for k in codes])
    assert repr(descriptive_stats(codes)) == repr(expected)


@given(codes=code_lists)
def test_code_std_is_correctly_rounded(codes):
    scores = [Fraction(5, 2) * k for k in codes]
    n = len(scores)
    mean = sum(scores) / n
    variance = sum((x - mean) ** 2 for x in scores) / (n - 1) if n > 1 else Fraction(0)
    std = descriptive_stats(codes).sample_std
    # The exact root lies within half an ulp of std: between the midpoints to its neighbours.
    below = max(Fraction(0), (Fraction(std) + Fraction(math.nextafter(std, -math.inf))) / 2)
    above = (Fraction(std) + Fraction(math.nextafter(std, math.inf))) / 2
    assert below * below <= variance <= above * above


def test_codes_above_40_are_rejected():
    assert code_counts(bytes([0, 40, 40])) == (1,) + (0,) * 39 + (2,)
    with pytest.raises(ValueError):
        code_counts(bytes([3, 41]))
    # Each call checks again: a rejected count is not kept.
    codes = bytes([41, 0])
    for aggregate in (descriptive_stats, histogram_bins,
                      *(partial(frequency_table, dimension=d) for d in DIMENSIONS)):
        with pytest.raises(ValueError, match="score codes run 0-40"):
            aggregate(codes)
    valid = bytes([40, 0])
    tables = {dimension: frequency_table(valid, dimension) for dimension in DIMENSIONS}
    with pytest.raises(ValueError, match="score codes run 0-40"):
        render_report(codes, descriptive_stats(valid), tables)


class CountingCodes(bytes):
    """Score codes that record how often one of their codes is counted."""

    counted = 0

    def count(self, *args):
        self.counted += 1
        return super().count(*args)


def test_aggregates_count_the_codes_once():
    # Codes no other test aggregates, so the counts are not already at hand.
    codes = CountingCodes(bytes(range(41)) * 3 + bytes([7]))
    descriptive_stats(codes)
    tables = {dimension: frequency_table(codes, dimension) for dimension in DIMENSIONS}
    bins = histogram_bins(codes)
    assert codes.counted == 41
    scores = [2.5 * k for k in codes]
    assert tables == {dimension: frequency_table(scores, dimension) for dimension in DIMENSIONS}
    assert bins == histogram_bins(scores)
