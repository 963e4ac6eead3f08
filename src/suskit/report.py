"""Deterministic fixed-width text reports for scored surveys.

Rendering is pure: identical inputs produce byte-identical LF-terminated
text. The multi-response layout is pinned by the golden file shipped with
the test suite, down to column padding and separator lengths.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Mapping, Sequence

from .scoring import _TABLE, CODE_SCORES
from .stats import FrequencyTable, SurveyStats

DEFAULT_REPORT_PATH = "results.txt"

_COL_WIDTH = 20
_SUMMARY_COL_WIDTH = 15


class InsufficientDataError(ValueError):
    """The multi-response renderer received fewer than two scores."""

    def __init__(self):
        super().__init__("multi-response report needs at least two scores")


def _fmt1(value: float) -> str:
    return f"{value:.1f}"


def _fmt2(value: float) -> str:
    # Two decimals, ties rounded half away from zero (f-strings round half even).
    return str(Decimal(value).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _pair_line(left: str, right: str) -> str:
    return f"{left:<{_COL_WIDTH}}{right:<{_COL_WIDTH}}"


def _summary_line(cells: Sequence[str]) -> str:
    return "".join(f"{cell:<{_SUMMARY_COL_WIDTH}}" for cell in cells)


# Names of a score's cells: summary-table header, single-report row names.
_SCORE_FIELDS = ("SUS Value", *(dim.field_name for dim in _TABLE.values()))


def _score_cells(score: float) -> tuple[str, ...]:
    """A score's two-decimal value, then its label in each dimension."""
    return (_fmt2(score), *(dim.classify(score).value for dim in _TABLE.values()))


# The value line and the summary line of each score code k, indexed by k.
_CODE_VALUES = tuple(map(_fmt1, CODE_SCORES))
_CODE_SUMMARIES = tuple(_summary_line(_score_cells(score)) for score in CODE_SCORES)


def render_report(
    scores: Sequence[float], stats: SurveyStats, tables: Mapping[str, FrequencyTable]
) -> str:
    """Render the full multi-response report.

    ``tables`` maps each dimension name to its frequency table. Each row of
    the summary table is labelled from its score. ``scores`` may be score
    codes, a ``bytes`` of codes k standing for the scores 2.5 * k.
    """
    if len(scores) < 2:
        raise InsufficientDataError()
    if isinstance(scores, bytes):
        keys, values, summaries = scores, _CODE_VALUES, _CODE_SUMMARIES
    else:
        # Lines per distinct score, keyed by repr: -0.0 == 0.0, but they print as -0.00 and 0.00.
        keys = list(map(repr, scores))
        distinct = dict(zip(keys, scores))
        values = {key: _fmt1(score) for key, score in distinct.items()}
        summaries = {key: _summary_line(_score_cells(score)) for key, score in distinct.items()}

    values_block = ["SUS values", "-" * 11, *map(values.__getitem__, keys)]

    stats_block = [_pair_line("Statistic", "Value"), "-" * 26]
    stats_block += [
        _pair_line("Mean", _fmt2(stats.mean)),
        _pair_line("Standard Deviation", _fmt2(stats.sample_std)),
        _pair_line("First Quartile (Q1)", _fmt2(stats.q1)),
        _pair_line("Median (Q2)", _fmt2(stats.median)),
        _pair_line("Third Quartile (Q3)", _fmt2(stats.q3)),
    ]

    frequency_blocks = []
    for dimension, dim in _TABLE.items():
        block = [_pair_line(dim.heading, "Number"), "-" * dim.rule]
        block += [_pair_line(label.value, str(count)) for label, count in tables[dimension].entries]
        frequency_blocks.append(block)

    summary_block = [_summary_line(_SCORE_FIELDS), "-" * 60, *map(summaries.__getitem__, keys)]

    blocks = [values_block, stats_block, *frequency_blocks, summary_block]
    # Two blank lines between blocks, one at the end.
    return "\n\n\n".join(map("\n".join, blocks)) + "\n\n"


def render_single_report(score: float) -> str:
    """Render the reduced report for a single response: score plus its labels."""
    return "\n".join(map(_pair_line, _SCORE_FIELDS, _score_cells(score))) + "\n"


def write_report(text: str, path: str | Path = DEFAULT_REPORT_PATH) -> None:
    """Write report text to ``path`` byte-for-byte (no newline translation).

    Parent directories are not created, and OS errors propagate unchanged.
    """
    Path(path).write_text(text, encoding="utf-8", newline="")
