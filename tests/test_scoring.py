"""Score computation and the three categorical classifiers."""

from __future__ import annotations

import oracle
import pytest

from suskit import (
    DIMENSIONS,
    Acceptability,
    Adjective,
    Grade,
    ResponseRow,
    classify_each,
    score_all,
    score_response,
)


@pytest.mark.parametrize(
    ("answers", "expected"),
    [
        ((5, 2, 5, 1, 4, 1, 5, 1, 4, 2), 90.0),
        ((1, 5, 1, 5, 1, 5, 1, 5, 1, 5), 0.0),
        ((5, 1, 5, 1, 5, 1, 5, 1, 5, 1), 100.0),
        ((3, 3, 3, 3, 3, 3, 3, 3, 3, 3), 50.0),
        ((2, 4, 2, 4, 2, 4, 2, 4, 2, 4), 25.0),
    ],
)
def test_known_scores(answers, expected):
    assert score_response(ResponseRow(answers)) == expected


def test_score_all_matches_sample(sample_rows, sample_scores):
    assert score_all(sample_rows) == sample_scores


def test_score_matches_per_item_formula(sample_rows):
    for row in sample_rows:
        assert score_response(row) == 2.5 * oracle.code(row.answers)


@pytest.mark.parametrize(
    ("score", "expected"),
    [
        (0.0, Acceptability.NOT_ACCEPTABLE),
        (49.9, Acceptability.NOT_ACCEPTABLE),
        (50.0, Acceptability.LOW_MARGINAL),
        (62.4, Acceptability.LOW_MARGINAL),
        (62.5, Acceptability.HIGH_MARGINAL),
        (69.9, Acceptability.HIGH_MARGINAL),
        (70.0, Acceptability.ACCEPTABLE),
        (100.0, Acceptability.ACCEPTABLE),
    ],
)
def test_acceptability_bands(score, expected):
    assert classify_each([score], "acceptability") == [expected]


@pytest.mark.parametrize(
    ("score", "expected"),
    [
        (0.0, Grade.F),
        (59.9, Grade.F),
        (60.0, Grade.D),
        (69.9, Grade.D),
        (70.0, Grade.C),
        (79.9, Grade.C),
        (80.0, Grade.B),
        (89.9, Grade.B),
        (90.0, Grade.A),
        (100.0, Grade.A),
    ],
)
def test_grade_bands(score, expected):
    assert classify_each([score], "grade") == [expected]


@pytest.mark.parametrize(
    ("score", "expected"),
    [
        (0.0, Adjective.WORST_IMAGINABLE),
        (24.9, Adjective.WORST_IMAGINABLE),
        (25.0, Adjective.POOR),
        (38.9, Adjective.POOR),
        (39.0, Adjective.OK),
        (51.9, Adjective.OK),
        (52.0, Adjective.GOOD),
        (72.9, Adjective.GOOD),
        (73.0, Adjective.EXCELLENT),
        (84.9, Adjective.EXCELLENT),
        (85.0, Adjective.BEST_IMAGINABLE),
        (100.0, Adjective.BEST_IMAGINABLE),
    ],
)
def test_adjective_bands(score, expected):
    assert classify_each([score], "adjective") == [expected]


def test_display_strings():
    assert Acceptability.NOT_ACCEPTABLE.value == "NOT ACCEPTABLE"
    assert Acceptability.LOW_MARGINAL.value == "LOW MARGINAL"
    assert Acceptability.HIGH_MARGINAL.value == "HIGH MARGINAL"
    assert Acceptability.ACCEPTABLE.value == "ACCEPTABLE"
    assert Grade.A.value == "A"
    assert Grade.F.value == "F"
    assert Adjective.WORST_IMAGINABLE.value == "WORST IMAGINABLE"
    assert Adjective.BEST_IMAGINABLE.value == "BEST IMAGINABLE"


def test_classify_each_sample(sample_scores):
    acceptability = classify_each(sample_scores, "acceptability")
    assert acceptability.count(Acceptability.ACCEPTABLE) == 17
    assert acceptability.count(Acceptability.NOT_ACCEPTABLE) == 3
    grades = classify_each(sample_scores, "grade")
    assert grades[0] is Grade.A
    assert grades[13] is Grade.F
    adjectives = classify_each(sample_scores, "adjective")
    assert adjectives[18] is Adjective.OK
    assert adjectives[19] is Adjective.WORST_IMAGINABLE


def test_classify_each_preserves_order(sample_scores):
    grades = classify_each(sample_scores, "grade")
    assert len(grades) == len(sample_scores)
    assert [g.value for g in grades[:3]] == ["A", "A", "B"]


def test_classify_each_unknown_dimension():
    with pytest.raises(ValueError):
        classify_each([50.0], "vibe")


def test_label_enums_in_report_order():
    # A dimension's labels in report order are its enum's members: tuple(Grade), and so on.
    assert [m.value for m in Acceptability] == [
        "NOT ACCEPTABLE",
        "LOW MARGINAL",
        "HIGH MARGINAL",
        "ACCEPTABLE",
    ]
    assert [m.value for m in Grade] == ["A", "B", "C", "D", "F"]
    assert [m.value for m in Adjective] == [
        "WORST IMAGINABLE",
        "POOR",
        "OK",
        "GOOD",
        "EXCELLENT",
        "BEST IMAGINABLE",
    ]


def test_dimension_names():
    assert DIMENSIONS == ("acceptability", "grade", "adjective")


def test_sample_scores_fixture_consistency(sample_rows, sample_scores):
    # The frozen expected-score list must agree with the independent oracle.
    assert [2.5 * oracle.code(row.answers) for row in sample_rows] == sample_scores
