"""Descriptive statistics, frequency tables, and histogram binning for score sets.

Every aggregate reads one pair: the distinct scores in ascending order and the count of
each, at most 41 scores for SUS. A score set may also be given as score codes, a ``bytes``
of k in 0-40 for the scores 2.5 * k; its pair is all 41 scores with their 41 counts, zeros
included, as they are. Quartiles, label counts and bin counts are cuts of the running
counts. The sums behind the mean and the variance are exact integer arithmetic.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from collections.abc import Sequence
from functools import lru_cache
from itertools import accumulate, compress

from .scoring import CODE_SCORES, _dimension

__all__ = [
    "EmptyScoreSetError", "FrequencyTable", "HistogramBins", "SurveyStats", "descriptive_stats",
    "frequency_table", "histogram_bins",
]

NUM_BINS = 10


class EmptyScoreSetError(ValueError):
    """An operation that needs at least one score received none."""

    def __init__(self):
        super().__init__("score set is empty")


class SurveyStats(namedtuple("SurveyStats", "mean sample_std q1 median q3")):
    """Mean, sample standard deviation, and quartiles of a score set, as floats."""

    __slots__ = ()


class FrequencyTable(namedtuple("FrequencyTable", "dimension entries")):
    """Per-label counts for one categorical dimension, in report order.

    ``entries`` is a tuple of (label, count) pairs, the labels ``Enum`` members.
    Every label of the dimension appears exactly once, zero counts included.
    """

    __slots__ = ()


class HistogramBins(namedtuple("HistogramBins", "counts")):
    """Counts over the ten intervals [0,10), [10,20), ... [80,90), [90,100]."""

    __slots__ = ()

    def __new__(cls, counts: tuple[int, ...]):
        if len(counts) != NUM_BINS:
            raise ValueError(f"expected {NUM_BINS} bins, got {len(counts)}")
        return super().__new__(cls, counts)

    @classmethod
    def _make(cls, fields):  # _replace builds through _make, so it validates too
        return cls(*fields)


@lru_cache(maxsize=1)  # one command aggregates the same codes several times
def code_counts(codes: bytes) -> tuple[int, ...]:
    """How often each score code k in 0-40 occurs in ``codes``, indexed by k.

    No codes raise ``EmptyScoreSetError``, and a code above 40 ``ValueError``.
    """
    if not codes:
        raise EmptyScoreSetError()
    counts = tuple(codes.count(k) for k in range(len(CODE_SCORES)))
    if sum(counts) != len(codes):
        raise ValueError(f"score codes run 0-{len(CODE_SCORES) - 1}")
    return counts


def _sqrt_of_ratio(num: int, den: int) -> float:
    # sqrt(num / den), correctly rounded: the integer root of the ratio scaled to 2 * 53 + 3
    # bits, rounded to odd, rounds once to the nearest float (statistics' method from 3.11).
    shift = (num.bit_length() - den.bit_length() - 109) // 2
    num, den = (num, den << 2 * shift) if shift >= 0 else (num << -2 * shift, den)
    root = math.isqrt(num // den)
    return math.ldexp(root | (root * root * den != num), shift)


def _counted(scores: Sequence[float]) -> tuple[Sequence[float], Sequence[int]]:
    """The distinct scores of a score set in ascending order, and the count of each.

    Codes give all 41 ``CODE_SCORES`` with their ``code_counts``, zeros included: a zero
    count moves no sum, quartile rank or band cut. ``-0.0`` counts as ``0.0``. A NaN or
    infinite score raises ``ValueError``, naming the first one in input order.
    """
    if not scores:
        raise EmptyScoreSetError()
    if isinstance(scores, bytes):
        return CODE_SCORES, code_counts(scores)
    counts = {score or 0.0: n for score, n in Counter(scores).items()}  # -0.0 becomes 0.0
    for score in counts:
        if not math.isfinite(score):
            raise ValueError(f"score {score} is not finite")
    return tuple(zip(*sorted(counts.items())))  # the scores ascending, then their counts


def descriptive_stats(scores: Sequence[float]) -> SurveyStats:
    """Mean, sample standard deviation, and linearly interpolated quartiles.

    The standard deviation uses the n-1 denominator and is defined as 0
    for a single score. A NaN or infinite score raises ``ValueError``.
    """
    ordered, weights = _counted(scores)
    n = len(scores)
    # Each score with a count is num / den, den a power of two: an integer over the largest den.
    ratios = [score.as_integer_ratio() for score in compress(ordered, weights)]
    scale = max(den for _, den in ratios)
    scaled = [num * (scale // den) for num, den in ratios]
    total = sum(x * count for x, count in zip(scaled, filter(None, weights)))
    squares = sum(x * x * count for x, count in zip(scaled, filter(None, weights)))
    std = _sqrt_of_ratio(n * squares - total * total, n * (n - 1) * scale**2) if n > 1 else 0.0
    # The score at 0-based rank r in sorted order is the first whose cumulative count exceeds r.
    ranks = list(accumulate(weights))
    quartiles = []
    for h in (0.25 * (n - 1), 0.5 * (n - 1), 0.75 * (n - 1)):  # fractional ranks
        low = math.floor(h)
        q = float(ordered[bisect_right(ranks, low)])
        if h > low:  # interpolate towards the next score in sorted order
            f, upper = h - low, ordered[bisect_right(ranks, low + 1)]
            # A gap past the float range (inf) is split into terms that each stay finite.
            q = q + f * (upper - q) if upper - q < math.inf else q - f * q + f * upper
        quartiles.append(q)
    # total / scale is the correctly rounded sum, so the mean equals math.fsum(scores) / n
    # wherever that sum is finite; where it is not, the mean may still be.
    try:
        mean = total / scale / n
    except OverflowError:
        mean = total / (scale * n)
    return SurveyStats(mean, std, *quartiles)


def _band_counts(ordered: Sequence[float], weights: Sequence[int], bounds: Sequence[float]) -> list[int]:
    """Scores per band, lowest first, from the bands' inclusive lower bounds. The lowest
    bound is not read: that band takes every score below the next bound."""
    below = [0, *accumulate(weights)]  # scores under ordered[i]
    cuts = [0, *[below[bisect_left(ordered, bound)] for bound in bounds[1:]], below[-1]]
    return [high - low for low, high in zip(cuts, cuts[1:])]


def frequency_table(scores: Sequence[float], dimension: str) -> FrequencyTable:
    """Count scores per label of one dimension; zero-count labels included.
    Scores below 0 count in the lowest band, scores above 100 in the top band."""
    counted, dim = _counted(scores), _dimension(dimension)  # an empty set is reported first
    bands = _band_counts(*counted, dim.bounds)
    return FrequencyTable(dimension, tuple((label, bands[i]) for label, i in dim.report_order))


def histogram_bins(scores: Sequence[float]) -> HistogramBins:
    """Bin scores into ten equal intervals; the last bin is closed at 100."""
    ordered, weights = _counted(scores)
    if not 0 <= ordered[0] <= ordered[-1] <= 100:
        outside = next(score for score in scores if not 0 <= score <= 100)  # the first one
        raise ValueError(f"score {outside} outside 0-100")
    return HistogramBins(tuple(_band_counts(ordered, weights, range(0, 100, 10))))
