"""Descriptive statistics, frequency tables, and histogram binning for score sets.

A score set may also be given as score codes, a ``bytes`` of k in 0-40 for the
scores 2.5 * k; those are aggregated from their 41 counts.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from statistics import fmean, stdev
from typing import Callable, Hashable, Iterable, Sequence

from .scoring import CODE_SCORES, _dimension

NUM_BINS = 10


class EmptyScoreSetError(ValueError):
    """An operation that needs at least one score received none."""

    def __init__(self):
        super().__init__("score set is empty")


@dataclass(frozen=True)
class SurveyStats:
    """Mean, sample standard deviation, and quartiles of a score set."""

    mean: float
    sample_std: float
    q1: float
    median: float
    q3: float


@dataclass(frozen=True)
class FrequencyTable:
    """Per-label counts for one categorical dimension, in report order.

    Every label of the dimension appears exactly once, zero counts included.
    """

    dimension: str
    entries: tuple[tuple[Enum, int], ...]

    @property
    def total(self) -> int:
        return sum(count for _, count in self.entries)


@dataclass(frozen=True)
class HistogramBins:
    """Counts over the ten intervals [0,10), [10,20), ... [80,90), [90,100]."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != NUM_BINS:
            raise ValueError(f"expected {NUM_BINS} bins, got {len(self.counts)}")

    @property
    def total(self) -> int:
        return sum(self.counts)


def _quantile(ordered: Sequence[float], p: float) -> float:
    # Linear interpolation at fractional rank p * (n - 1) over the sorted sample.
    h = p * (len(ordered) - 1)
    low = math.floor(h)
    frac = h - low
    if frac == 0.0:
        return float(ordered[low])
    return ordered[low] + frac * (ordered[low + 1] - ordered[low])


def code_counts(codes: bytes) -> list[int]:
    """How often each score code k in 0-40 occurs in ``codes``, indexed by k."""
    counts = [codes.count(k) for k in range(len(CODE_SCORES))]
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


def descriptive_stats(scores: Sequence[float]) -> SurveyStats:
    """Mean, sample standard deviation, and linearly interpolated quartiles.

    The standard deviation uses the n-1 denominator and is defined as 0
    for a single score.
    """
    if not scores:
        raise EmptyScoreSetError()
    if isinstance(scores, bytes):
        # The floats of the float path, but for the standard deviation: the correctly rounded
        # root of the exact variance, as statistics.stdev gives it from Python 3.11 on.
        counts = code_counts(scores)
        n = len(scores)
        total = sum(k * count for k, count in enumerate(counts))
        squares = sum(k * k * count for k, count in enumerate(counts))
        # The variance of the scores 2.5 * k is 6.25 * (n * squares - total**2) / (n * (n - 1)).
        std = _sqrt_of_ratio(25 * (n * squares - total * total), 4 * n * (n - 1)) if n > 1 else 0.0
        # Ranks fall on quarters, so interpolating codes, then scaling by 2.5, is exact as well.
        ordered = b"".join(bytes([k]) * count for k, count in enumerate(counts))
        q1, median, q3 = (2.5 * _quantile(ordered, p) for p in (0.25, 0.5, 0.75))
        return SurveyStats(2.5 * total / n, std, q1, median, q3)
    ordered = sorted(scores)
    return SurveyStats(
        mean=fmean(scores),
        sample_std=stdev(scores) if len(scores) > 1 else 0.0,
        q1=_quantile(ordered, 0.25),
        median=_quantile(ordered, 0.5),
        q3=_quantile(ordered, 0.75),
    )


def _tally(scores: Sequence[float], key: Callable[[float], Hashable], keys: Iterable) -> dict:
    """Count scores per ``key(score)``, one entry per member of ``keys``, in that order."""
    counts = dict.fromkeys(keys, 0)
    # Score codes are counted per code, other scores per distinct value, first-seen first;
    # key runs once per entry, so it raises for the first bad score.
    if isinstance(scores, bytes):
        counted = zip(CODE_SCORES, code_counts(scores))
    else:
        counted = Counter(scores).items()
    for score, count in counted:
        counts[key(score)] += count
    return counts


def frequency_table(scores: Sequence[float], dimension: str) -> FrequencyTable:
    """Count scores per label of one dimension; zero-count labels included."""
    if not scores:
        raise EmptyScoreSetError()
    dim = _dimension(dimension)
    return FrequencyTable(dimension, tuple(_tally(scores, dim.classify, dim.labels).items()))


def _bin(score: float) -> int:
    if not 0 <= score <= 100:
        raise ValueError(f"score {score} outside 0-100")
    return min(int(score // 10), NUM_BINS - 1)


def histogram_bins(scores: Sequence[float]) -> HistogramBins:
    """Bin scores into ten equal intervals; the last bin is closed at 100."""
    if not scores:
        raise EmptyScoreSetError()
    return HistogramBins(tuple(_tally(scores, _bin, range(NUM_BINS)).values()))
