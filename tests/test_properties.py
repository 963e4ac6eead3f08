"""Property-based checks over randomized responses and score sets."""

from __future__ import annotations

import math
import re

import oracle
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from suskit import (
    DIMENSIONS,
    ResponseRow,
    classify_each,
    descriptive_stats,
    frequency_table,
    histogram_bins,
    parse_responses,
    render_report,
    render_single_report,
    score_all,
    score_response,
)

answer_tuples = st.lists(st.integers(1, 5), min_size=10, max_size=10).map(tuple)
rows = answer_tuples.map(ResponseRow)
# Any reachable score is k * 2.5 for k in 0..40.
score_values = st.integers(0, 40).map(lambda k: k * 2.5)
score_lists = st.lists(score_values, min_size=1, max_size=12)
code_lists = st.lists(st.integers(0, 40), min_size=1, max_size=12).map(bytes)

# Band labels ordered worst to best.
ASCENDING = {dimension: [label for _, label in bands] for dimension, bands in oracle.BANDS.items()}


@given(row=rows)
def test_score_range_and_quantization(row):
    score = score_response(row)
    assert 0.0 <= score <= 100.0
    assert score % 2.5 == 0.0


@given(answers=answer_tuples)
def test_complement_symmetry(answers):
    mirrored = tuple(6 - a for a in answers)
    assert score_response(ResponseRow(mirrored)) == 100.0 - score_response(ResponseRow(answers))


@given(answers=answer_tuples, position=st.integers(0, 9))
def test_single_item_bump_moves_score_by_2_5(answers, position):
    if answers[position] == 5:
        return
    bumped = list(answers)
    bumped[position] += 1
    delta = score_response(ResponseRow(tuple(bumped))) - score_response(ResponseRow(answers))
    # 1-based odd items reward agreement, even items reward disagreement.
    expected = 2.5 if position % 2 == 0 else -2.5
    assert delta == expected


@given(rows_list=st.lists(answer_tuples, min_size=1, max_size=8))
def test_parse_round_trip(rows_list):
    text = "\n".join(";".join(str(a) for a in answers) for answers in rows_list) + "\n"
    report = parse_responses(text)
    assert list(report.codes) == list(map(oracle.code, rows_list))
    assert report.source_line_count == len(rows_list)


@given(rows_list=st.lists(answer_tuples, min_size=1, max_size=8))
def test_scores_follow_rows_elementwise(rows_list):
    parsed = [ResponseRow(answers) for answers in rows_list]
    assert score_all(parsed) == [score_response(row) for row in parsed]


@given(score=score_values)
def test_classifiers_partition_every_score(score):
    for dimension in DIMENSIONS:
        label = classify_each([score], dimension)[0]
        assert label.value in oracle.ORDER[dimension]


@given(a=score_values, b=score_values)
def test_classifiers_are_monotonic(a, b):
    low, high = min(a, b), max(a, b)
    for dimension, ascending in ASCENDING.items():
        low_label, high_label = classify_each([low, high], dimension)
        assert ascending.index(low_label.value) <= ascending.index(high_label.value)


@given(codes=code_lists)
def test_quartiles_match_exact_arithmetic(codes):
    stats = descriptive_stats([k * 2.5 for k in codes])
    if len(codes) == 1:
        assert (stats.q1, stats.median, stats.q3) == (codes[0] * 2.5,) * 3
        return
    exact = oracle.exact_stats(codes)
    assert stats.q1 == float(exact["First Quartile (Q1)"])
    assert stats.median == float(exact["Median (Q2)"])
    assert stats.q3 == float(exact["Third Quartile (Q3)"])


@given(codes=code_lists)
def test_std_matches_exact_arithmetic(codes):
    stats = descriptive_stats([k * 2.5 for k in codes])
    if len(codes) == 1:
        assert stats.sample_std == 0.0
        return
    std = oracle.exact_stats(codes)["Standard Deviation"]
    assert math.isclose(stats.sample_std, std, rel_tol=1e-12, abs_tol=1e-12)


@given(scores=score_lists)
def test_quartiles_are_ordered_and_bounded(scores):
    stats = descriptive_stats(scores)
    assert min(scores) <= stats.q1 <= stats.median <= stats.q3 <= max(scores)
    assert min(scores) <= stats.mean <= max(scores)


@given(scores=score_lists, data=st.data())
def test_stats_are_permutation_invariant(scores, data):
    shuffled = data.draw(st.permutations(scores))
    assert descriptive_stats(shuffled) == descriptive_stats(scores)
    assert histogram_bins(shuffled) == histogram_bins(scores)
    for dimension in DIMENSIONS:
        assert frequency_table(shuffled, dimension) == frequency_table(scores, dimension)


@given(scores=score_lists)
def test_counts_are_conserved(scores):
    assert sum(histogram_bins(scores).counts) == len(scores)
    for dimension in DIMENSIONS:
        table = frequency_table(scores, dimension)
        assert sum(n for _, n in table.entries) == len(scores)
        assert [label.value for label, _ in table.entries] == oracle.ORDER[dimension]


@given(scores=st.lists(st.integers(0, 36).map(lambda k: k * 2.5), min_size=2, max_size=12))
def test_translation_moves_location_not_spread(scores):
    shift = 7.5
    base = descriptive_stats(scores)
    moved = descriptive_stats([s + shift for s in scores])
    assert math.isclose(moved.mean, base.mean + shift, abs_tol=1e-9)
    assert math.isclose(moved.q1, base.q1 + shift, abs_tol=1e-9)
    assert math.isclose(moved.median, base.median + shift, abs_tol=1e-9)
    assert math.isclose(moved.q3, base.q3 + shift, abs_tol=1e-9)
    assert math.isclose(moved.sample_std, base.sample_std, abs_tol=1e-9)


# Grid scores, off-grid floats (band edges, exact two-decimal ties) and -0.0.
report_score_values = st.one_of(
    score_values,
    st.floats(0, 100),
    st.sampled_from([59.9, 62.4, 0.125, 0.375, -0.0]),
)


@given(scores=st.lists(report_score_values, min_size=2, max_size=12))
def test_summary_rows_match_single_reports(scores):
    # render_single_report formats each score on its own: the reference for the memoised rows.
    lines = render_report(scores).split("\n")
    start = lines.index("-" * 60) + 1
    for score, row in zip(scores, lines[start : start + len(scores)], strict=True):
        cells = [row[0:15], row[15:30], row[30:45], row[45:]]
        expected = [line[20:].strip() for line in render_single_report(score).split("\n")[:4]]
        assert [cell.strip() for cell in cells] == expected


@given(scores=st.lists(report_score_values, min_size=1, max_size=30))
def test_tallies_match_per_row_counts(scores):
    # Reference: every row is labelled and binned on its own and counts once.
    bins = [0] * 10
    for score in scores:
        bins[min(int(score // 10), 9)] += 1
    assert histogram_bins(scores).counts == tuple(bins)
    for dimension in DIMENSIONS:
        expected = dict.fromkeys(oracle.ORDER[dimension], 0)
        for label in classify_each(scores, dimension):
            expected[label.value] += 1
        table = frequency_table(scores, dimension)
        assert [(label.value, n) for label, n in table.entries] == list(expected.items())


@given(scores=st.lists(st.one_of(score_values, st.sampled_from([-5.0, -0.0, 100.5, 1e6])),
                       min_size=1, max_size=30))
@example(scores=[50.0, -5.0, 1e6, -0.0, 100.5])
def test_tallies_outside_0_100(scores):
    # The lowest band takes every score below 0, and the top band every score above 100.
    for dimension in DIMENSIONS:
        bands = oracle.BANDS[dimension]
        labels = [label.value for label in classify_each(scores, dimension)]
        assert labels == [([name for lower, name in bands[1:] if score >= lower] or [bands[0][1]])[-1]
                          for score in scores]
        table = frequency_table(scores, dimension)
        expected = [(label, labels.count(label)) for label in oracle.ORDER[dimension]]
        assert [(label.value, n) for label, n in table.entries] == expected
    # The histogram rejects them instead, naming the first in input order.
    outside = [score for score in scores if not 0 <= score <= 100]
    if outside:
        with pytest.raises(ValueError, match=f"^score {re.escape(str(outside[0]))} outside 0-100$"):
            histogram_bins(scores)
