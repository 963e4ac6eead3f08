"""Descriptive statistics, frequency tables, and histogram binning for score sets."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from statistics import fmean, stdev
from typing import Callable, Hashable, Iterable, Sequence

from .scoring import _dimension

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


def descriptive_stats(scores: Sequence[float]) -> SurveyStats:
    """Mean, sample standard deviation, and linearly interpolated quartiles.

    The standard deviation uses the n-1 denominator and is defined as 0
    for a single score.
    """
    if not scores:
        raise EmptyScoreSetError()
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
    # key runs once per distinct score, first-seen first, so it raises for the first bad score.
    for score, count in Counter(scores).items():
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
