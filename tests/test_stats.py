"""Descriptive statistics, frequency tables, and histogram binning."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import permutations

import oracle
import pytest

from suskit import stats
from suskit import (
    DIMENSIONS,
    EmptyScoreSetError,
    FrequencyTable,
    HistogramBins,
    descriptive_stats,
    frequency_table,
    histogram_bins,
    render_report,
)


def test_sample_statistics(sample_scores):
    stats = descriptive_stats(sample_scores)
    assert stats.mean == 78.875
    exact = oracle.exact_stats(bytes(int(score / 2.5) for score in sample_scores))
    assert stats.sample_std == pytest.approx(exact["Standard Deviation"], rel=1e-12)
    assert f"{stats.sample_std:.2f}" == "25.20"
    assert stats.q1 == 82.5
    assert stats.median == 90.0
    assert stats.q3 == 92.5


def test_single_score():
    stats = descriptive_stats([87.5])
    assert stats.mean == 87.5
    assert stats.sample_std == 0.0
    assert (stats.q1, stats.median, stats.q3) == (87.5, 87.5, 87.5)


def test_two_extreme_scores():
    stats = descriptive_stats([0.0, 100.0])
    assert stats.mean == 50.0
    assert stats.sample_std == pytest.approx(math.sqrt(5000.0), rel=1e-12)
    assert (stats.q1, stats.median, stats.q3) == (25.0, 50.0, 75.0)


def test_quartiles_odd_count():
    stats = descriptive_stats([0.0, 50.0, 100.0])
    assert (stats.q1, stats.median, stats.q3) == (25.0, 50.0, 75.0)
    assert stats.sample_std == 50.0


def test_quartiles_interpolate_between_order_statistics():
    stats = descriptive_stats([10.0, 20.0, 30.0, 100.0])
    assert stats.q1 == 17.5
    assert stats.median == 25.0
    assert stats.q3 == 47.5


def test_quartiles_of_far_apart_scores_stay_finite():
    # Two finite neighbours more than the largest float apart still interpolate to finite floats.
    stats = descriptive_stats([1e308, -1e308])
    assert (stats.q1, stats.median, stats.q3) == (-5e307, 0.0, 5e307)
    assert f"{'Median (Q2)':<20}{'0.00':<20}\n" in render_report([1e308, -1e308])
    # At three quarters of such a gap, f * upper - f * q overflows too: q - f * q comes first.
    far = [Fraction(-1.3e308)] * 4 + [Fraction(1.75e308)] * 2
    q3 = descriptive_stats([float(x) for x in far]).q3
    assert q3 == pytest.approx(float(far[3] + Fraction(3, 4) * (far[4] - far[3])), rel=1e-15)


def test_mean_of_scores_whose_sum_leaves_the_float_range():
    # The sum 3.4e308 is past the largest float, the mean 1.7e308 is not.
    assert descriptive_stats([1.7e308, 1.7e308]) == (1.7e308, 0.0, 1.7e308, 1.7e308, 1.7e308)
    # Here the standard deviation, 1.7e308 * sqrt(2), is itself past it.
    with pytest.raises(OverflowError):
        descriptive_stats([1.7e308, -1.7e308])


@pytest.mark.parametrize(
    ("num", "den", "root"),
    [
        (10**40, 1, 1e20),  # a ratio past 2**109 is scaled down, not up
        ((2**53 + 1) ** 2, 1, 2.0**53),  # an exact root gets no odd bit, so its tie rounds to even
    ],
)
def test_sqrt_of_ratio_is_correctly_rounded(num, den, root):
    assert stats._sqrt_of_ratio(num, den) == root


def test_stats_ignore_input_order(sample_scores):
    forward = descriptive_stats(sample_scores)
    backward = descriptive_stats(list(reversed(sample_scores)))
    assert forward == backward


def test_empty_scores_rejected():
    for func in (descriptive_stats, histogram_bins):
        with pytest.raises(EmptyScoreSetError):
            func([])
    with pytest.raises(EmptyScoreSetError):
        frequency_table([], "grade")


AGGREGATES = (
    descriptive_stats,
    histogram_bins,
    *(partial(frequency_table, dimension=d) for d in DIMENSIONS),
)


def test_non_finite_scores_rejected():
    # Not labelled as the top or bottom band, nor binned as "outside 0-100".
    for func in AGGREGATES:
        for bad in (math.nan, math.inf, -math.inf):
            for scores in ([bad], [2.5, bad], [bad, 2.5]):
                with pytest.raises(ValueError, match=f"^score {bad} is not finite$"):
                    func(scores)
    # The first non-finite score in input order is named, and the report inherits the error.
    for func in (*AGGREGATES, render_report):
        with pytest.raises(ValueError, match="^score -inf is not finite$"):
            func([50.0, -math.inf, math.nan, math.inf])


def test_negative_zero_counts_as_zero():
    # The statistics do not depend on the order, or the sign, of the zeros.
    stats = {repr(descriptive_stats(list(zeros))) for zeros in permutations([0.0, -0.0, 0.0])}
    assert stats == {repr(descriptive_stats([0.0, 0.0, 0.0]))}
    assert repr(descriptive_stats([-0.0, -0.0])) == repr(descriptive_stats([0.0, 0.0]))


def as_pairs(table: FrequencyTable) -> list[tuple[str, int]]:
    return [(label.value, count) for label, count in table.entries]


def test_acceptability_table(sample_scores):
    table = frequency_table(sample_scores, "acceptability")
    assert as_pairs(table) == [
        ("NOT ACCEPTABLE", 3),
        ("LOW MARGINAL", 0),
        ("HIGH MARGINAL", 0),
        ("ACCEPTABLE", 17),
    ]
    assert sum(n for _, n in table.entries) == 20


def test_grade_table(sample_scores):
    table = frequency_table(sample_scores, "grade")
    assert as_pairs(table) == [("A", 11), ("B", 6), ("C", 0), ("D", 0), ("F", 3)]


def test_adjective_table(sample_scores):
    table = frequency_table(sample_scores, "adjective")
    assert as_pairs(table) == [
        ("WORST IMAGINABLE", 2),
        ("POOR", 0),
        ("OK", 1),
        ("GOOD", 0),
        ("EXCELLENT", 3),
        ("BEST IMAGINABLE", 14),
    ]


def test_single_score_table():
    table = frequency_table([50.0], "acceptability")
    assert as_pairs(table) == [
        ("NOT ACCEPTABLE", 0),
        ("LOW MARGINAL", 1),
        ("HIGH MARGINAL", 0),
        ("ACCEPTABLE", 0),
    ]


def test_table_totals_match_input_size(sample_scores):
    for dimension in ("acceptability", "grade", "adjective"):
        table = frequency_table(sample_scores, dimension)
        assert sum(n for _, n in table.entries) == len(sample_scores)


def test_unknown_dimension_rejected():
    with pytest.raises(ValueError):
        frequency_table([50.0], "vibe")


def test_histogram_sample(sample_scores):
    bins = histogram_bins(sample_scores)
    assert bins.counts == (1, 0, 1, 0, 1, 0, 0, 0, 6, 11)
    assert sum(bins.counts) == 20


def test_histogram_bin_edges():
    assert histogram_bins([0.0]).counts[0] == 1
    assert histogram_bins([9.9]).counts[0] == 1
    assert histogram_bins([10.0]).counts[1] == 1
    # 100 belongs to the last bin, which is closed on the right.
    assert histogram_bins([100.0]).counts[9] == 1
    assert histogram_bins([90.0]).counts[9] == 1
    assert histogram_bins([89.9]).counts[8] == 1


def test_histogram_rejects_out_of_range():
    with pytest.raises(ValueError):
        histogram_bins([101.0])
    with pytest.raises(ValueError):
        histogram_bins([-0.1])


def test_histogram_error_names_first_bad_score():
    # 120.0 repeats and -5.0 comes later: the message names the first bad score in input order.
    with pytest.raises(ValueError, match=r"^score 120\.0 outside 0-100$"):
        histogram_bins([50.0, 120.0, -5.0, 120.0])


def test_histogram_bins_length_validated():
    with pytest.raises(ValueError):
        HistogramBins(counts=(0,) * 9)
    with pytest.raises(ValueError):
        HistogramBins((0,) * 10)._replace(counts=(0,) * 9)
