"""The CLI's score-code route, pinned to the library's float path and to reference statistics."""

from __future__ import annotations

import io
import math
from contextlib import redirect_stdout
from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from suskit import (
    DIMENSIONS,
    EmptyScoreSetError,
    ResponseRow,
    descriptive_stats,
    frequency_table,
    histogram_bins,
    render_category_chart,
    render_histogram,
    render_report,
    render_single_report,
    score_all,
)
from suskit.cli import main
from suskit.scoring import CODE_SCORES
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
        report = render_report(scores)
    charts = {"histogram": render_histogram(histogram_bins(scores))}
    for dimension in DIMENSIONS:
        charts[dimension] = render_category_chart(frequency_table(scores, dimension))
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
    score_text, report, charts = float_path_outputs(score_all(map(ResponseRow, responses)))

    assert run("score", str(source)) == score_text
    assert run("report", str(source), "--output", str(workdir / "report.txt")) == report
    assert (workdir / "report.txt").read_bytes() == report.encode("utf-8")
    for kind, svg in charts.items():
        target = workdir / f"{kind}.svg"
        assert run("chart", kind, str(source), "--output", str(target)) == ""
        assert target.read_bytes() == svg.encode("utf-8")


def test_cli_builds_no_row(workdir):
    answers = [(1, 2, 3, 4, 5, 1, 2, 3, 4, 5), (5, 5, 5, 5, 5, 1, 1, 1, 1, 1), (3,) * 10]
    # Padded fields and a blank line do not fit the layout, so every line takes the walk.
    lines = [" ; ".join(map(str, row)) for row in answers]
    source = workdir / "padded.csv"
    source.write_bytes("\r\n".join([lines[0], "", *lines[1:], ""]).encode())
    score_text, report, charts = float_path_outputs(score_all(map(ResponseRow, answers)))

    with mock.patch.object(ResponseRow, "__new__", side_effect=AssertionError("row built")):
        assert run("score", str(source)) == score_text
        assert run("report", str(source), "--output", str(workdir / "report.txt")) == report
        for kind, svg in charts.items():
            target = workdir / f"{kind}.svg"
            assert run("chart", kind, str(source), "--output", str(target)) == ""
            assert target.read_bytes() == svg.encode("utf-8")


# Grid scores, off-grid floats (band edges, exact two-decimal ties, subnormals), -0.0 and
# scores far outside 0-100.
float_lists = st.lists(
    st.one_of(
        st.integers(0, 40).map(lambda k: 2.5 * k),
        st.floats(0, 100),
        st.sampled_from([59.9, 62.4, 0.125, 0.375, -0.0]),
        st.floats(-50, 1e6),
    ),
    min_size=1,
    max_size=300,
)


def reference_stats(scores) -> tuple[float, float, float, float]:
    """Mean and quartiles: math.fsum over n, and interpolation at rank p * (n - 1) of sorted."""
    ordered = sorted(scores)
    n = len(ordered)
    quartiles = []
    for p in (0.25, 0.5, 0.75):
        h = p * (n - 1)
        low = math.floor(h)
        frac = h - low
        if frac == 0:
            quartiles.append(float(ordered[low]))
        else:
            quartiles.append(ordered[low] + frac * (ordered[low + 1] - ordered[low]))
    return (math.fsum(scores) / n, *quartiles)


@given(codes=code_lists)
def test_code_stats_equal_float_stats(codes):
    scores = [2.5 * k for k in codes]
    stats = descriptive_stats(codes)
    assert repr(stats) == repr(descriptive_stats(scores))
    assert (stats.mean, stats.q1, stats.median, stats.q3) == reference_stats(scores)


@given(scores=float_lists)
def test_float_stats_equal_reference(scores):
    stats = descriptive_stats(scores)
    assert (stats.mean, stats.q1, stats.median, stats.q3) == reference_stats(scores)


@given(scores=st.one_of(code_lists, float_lists))
def test_code_std_is_correctly_rounded(scores):
    if isinstance(scores, bytes):
        exact = [Fraction(5, 2) * k for k in scores]
    else:
        exact = list(map(Fraction, scores))
    n = len(exact)
    mean = sum(exact) / n
    variance = sum((x - mean) ** 2 for x in exact) / (n - 1) if n > 1 else Fraction(0)
    std = descriptive_stats(scores).sample_std
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
    with pytest.raises(ValueError, match="score codes run 0-40"):
        render_report(codes)


@given(codes=st.one_of(st.lists(st.integers(0, 40), max_size=300).map(bytes), st.binary(max_size=8)))
def test_code_tallies_equal_float_tallies(codes):
    # Codes reach the tallies through their 41 counts and scores through a Counter; both cut the
    # same running counts, so they agree, and codes keep their own errors.
    tallies = [histogram_bins, *(partial(frequency_table, dimension=d) for d in DIMENSIONS)]
    for tally in tallies:
        if max(codes, default=0) > 40:
            with pytest.raises(ValueError, match="score codes run 0-40"):
                tally(codes)
        elif not codes:
            with pytest.raises(EmptyScoreSetError):
                tally(codes)
        else:
            assert tally(codes) == tally([CODE_SCORES[k] for k in codes])


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


def test_codes_are_never_sorted():
    # Codes bring their 41 scores ascending: no aggregate of them sorts anything.
    codes = bytes([7, 40, 0, 7, 19, 33, 26])
    with mock.patch("suskit.stats.sorted", create=True, side_effect=AssertionError("sorted")):
        descriptive_stats(codes)
        for dimension in DIMENSIONS:
            frequency_table(codes, dimension)
        histogram_bins(codes)
        render_report(codes)
        with pytest.raises(AssertionError, match="sorted"):  # floats do sort, so the patch holds
            descriptive_stats([2.5 * k for k in codes])
