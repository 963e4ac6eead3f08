"""SUS score computation and threshold classification.

A score is 2.5 times the sum of per-item contributions: odd-numbered
items contribute (answer - 1), even-numbered items (5 - answer). Scores
are therefore multiples of 2.5 in [0, 100], exact in binary floating
point, so the classifiers below need no tolerance at their boundaries.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .ingest import ITEMS_PER_RESPONSE, ResponseRow, _score_code


class Acceptability(Enum):
    """Four-level acceptability band, listed lowest to highest."""

    NOT_ACCEPTABLE = "NOT ACCEPTABLE"
    LOW_MARGINAL = "LOW MARGINAL"
    HIGH_MARGINAL = "HIGH MARGINAL"
    ACCEPTABLE = "ACCEPTABLE"


class Grade(Enum):
    """School-style grade, listed in report order (best first)."""

    A = "A"
    B = "B"
    C = "C"
    D = "D"
    F = "F"


class Adjective(Enum):
    """Six-level verbal rating, listed lowest to highest."""

    WORST_IMAGINABLE = "WORST IMAGINABLE"
    POOR = "POOR"
    OK = "OK"
    GOOD = "GOOD"
    EXCELLENT = "EXCELLENT"
    BEST_IMAGINABLE = "BEST IMAGINABLE"


@dataclass(frozen=True)
class ScoreBreakdown:
    """Summed contributions of the positive and negative items, each 0-20."""

    positive_sum: int
    negative_sum: int


def score_breakdown(row: ResponseRow) -> ScoreBreakdown:
    """Split one response into positive- and negative-item contribution sums."""
    answers = row.answers
    positive = sum(answers[i] - 1 for i in range(0, ITEMS_PER_RESPONSE, 2))
    negative = sum(5 - answers[i] for i in range(1, ITEMS_PER_RESPONSE, 2))
    return ScoreBreakdown(positive_sum=positive, negative_sum=negative)


def score_response(row: ResponseRow) -> float:
    """SUS score for one response: 2.5 times the summed contributions."""
    return 2.5 * _score_code(row.answers)


def score_all(rows: Sequence[ResponseRow]) -> list[float]:
    """Score every response, preserving order."""
    return [score_response(row) for row in rows]


# The score of each score code k in 0-40 (see ingest.ParseReport.codes), indexed by k.
CODE_SCORES: tuple[float, ...] = tuple(2.5 * k for k in range(4 * ITEMS_PER_RESPONSE + 1))


@dataclass
class _Dimension:
    """One categorical dimension: its bands, and how reports and charts name it."""

    labels: type[Enum]  # member order is report order
    bands: tuple[tuple[float, Enum], ...]  # (inclusive lower bound, label), lowest band first
    heading: str  # frequency-table heading in the multi-response report
    rule: int  # length of the separator under that heading
    field_name: str  # row name in the single-response report, column in the summary table
    chart_title: str

    def __post_init__(self):
        # A score below every bound is in the lowest band, so its own bound is not searched.
        self.bounds = tuple(bound for bound, _ in self.bands[1:])
        self.band_labels = tuple(label for _, label in self.bands)

    def classify(self, score: float) -> Enum:
        return self.band_labels[bisect_right(self.bounds, score)]


# Bands after Bangor, Kortum & Miller (2009).
_TABLE: dict[str, _Dimension] = {
    "acceptability": _Dimension(
        Acceptability,
        ((0, Acceptability.NOT_ACCEPTABLE), (50, Acceptability.LOW_MARGINAL),
         (62.5, Acceptability.HIGH_MARGINAL), (70, Acceptability.ACCEPTABLE)),
        "Acceptability", 27, "Acceptability", "Acceptability level chart",
    ),
    "grade": _Dimension(
        Grade,
        ((0, Grade.F), (60, Grade.D), (70, Grade.C), (80, Grade.B), (90, Grade.A)),
        "Grades", 26, "Grade", "Grade chart",
    ),
    "adjective": _Dimension(
        Adjective,
        ((0, Adjective.WORST_IMAGINABLE), (25, Adjective.POOR), (39, Adjective.OK),
         (52, Adjective.GOOD), (73, Adjective.EXCELLENT), (85, Adjective.BEST_IMAGINABLE)),
        "Adjectives", 26, "Adjective", "Adjective ratings chart",
    ),
}

DIMENSIONS: tuple[str, ...] = tuple(_TABLE)


def _dimension(name: str) -> _Dimension:
    try:
        return _TABLE[name]
    except KeyError:
        raise ValueError(
            f"unknown dimension {name!r}; expected one of: {', '.join(DIMENSIONS)}"
        ) from None


def classify_acceptability(score: float) -> Acceptability:
    """Acceptability band for a score; each band includes its lower bound."""
    return _TABLE["acceptability"].classify(score)


def classify_grade(score: float) -> Grade:
    """Grade for a score; each band includes its lower bound."""
    return _TABLE["grade"].classify(score)


def classify_adjective(score: float) -> Adjective:
    """Adjective rating for a score; each band includes its lower bound."""
    return _TABLE["adjective"].classify(score)


def dimension_labels(dimension: str) -> tuple[Enum, ...]:
    """All labels of one categorical dimension, in report order."""
    return tuple(_dimension(dimension).labels)


def classify_each(scores: Sequence[float], dimension: str) -> list[Enum]:
    """Classify every score along one dimension, preserving order."""
    return list(map(_dimension(dimension).classify, scores))
