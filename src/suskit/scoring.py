"""SUS score computation and threshold classification.

A score is 2.5 times the sum of per-item contributions: odd-numbered
items contribute (answer - 1), even-numbered items (5 - answer). Scores
are therefore multiples of 2.5 in [0, 100], exact in binary floating
point, so the classifiers below need no tolerance at their boundaries.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from enum import Enum

from .ingest import ITEMS_PER_RESPONSE, ResponseRow, _score_code

__all__ = [
    "DIMENSIONS", "Acceptability", "Adjective", "Grade", "classify_each", "score_all", "score_response",
]


class Acceptability(Enum):
    """Four-level acceptability band, in report order (lowest first)."""

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
    """Six-level verbal rating, in report order (lowest first)."""

    WORST_IMAGINABLE = "WORST IMAGINABLE"
    POOR = "POOR"
    OK = "OK"
    GOOD = "GOOD"
    EXCELLENT = "EXCELLENT"
    BEST_IMAGINABLE = "BEST IMAGINABLE"


def score_response(row: ResponseRow) -> float:
    """SUS score for one response: 2.5 times the summed contributions."""
    return 2.5 * _score_code(row.answers)


def score_all(rows: Sequence[ResponseRow]) -> list[float]:
    """Score every response, preserving order."""
    return [score_response(row) for row in rows]


# The score of each score code k in 0-40 (see ingest.ParseReport.codes), indexed by k.
CODE_SCORES: tuple[float, ...] = tuple(2.5 * k for k in range(4 * ITEMS_PER_RESPONSE + 1))


class _Dimension:
    """One categorical dimension: its bands, and how reports and charts name it."""

    def __init__(self, labels: type[Enum], bands: tuple[tuple[float, Enum], ...], heading: str,
                 rule: int, field_name: str, chart_title: str):
        # bands are (inclusive lower bound, label), lowest band first.
        self.bounds, self.band_labels = zip(*bands)
        # Each label in report order, its enum's member order, with the index of its band.
        self.report_order = tuple((label, self.band_labels.index(label)) for label in labels)
        self.heading = heading  # frequency-table heading in the multi-response report
        self.rule = rule  # length of the separator under that heading
        self.field_name = field_name  # row name in the single-response report, summary column
        self.chart_title = chart_title

    def classify(self, score: float) -> Enum:
        # A score below every bound is in the lowest band, so the search starts past its bound.
        return self.band_labels[bisect_right(self.bounds, score, 1) - 1]


# Bands after Bangor, Kortum & Miller (2009). Lowest bounds are unread on purpose: see classify.
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


def classify_each(scores: Sequence[float], dimension: str) -> list[Enum]:
    """Classify every score along one dimension, preserving order."""
    return list(map(_dimension(dimension).classify, scores))
