"""Deterministic fixed-width text reports for scored surveys.

Rendering is pure: identical inputs produce byte-identical LF-terminated
text. The multi-response layout is pinned by the golden file shipped with
the test suite, down to column padding and separator lengths.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence

from .scoring import _TABLE, CODE_SCORES
from .stats import _counted, descriptive_stats, frequency_table

__all__ = [
    "DEFAULT_REPORT_PATH", "InsufficientDataError", "render_report", "render_single_report", "write_report",
]

DEFAULT_REPORT_PATH = "results.txt"

_COL_WIDTH = 20
_SUMMARY_COL_WIDTH = 15
# The statistics rows' names, in SurveyStats field order.
_STAT_NAMES = ("Mean", "Standard Deviation", "First Quartile (Q1)", "Median (Q2)", "Third Quartile (Q3)")


class InsufficientDataError(ValueError):
    """The multi-response renderer received fewer than two scores."""

    def __init__(self):
        super().__init__("multi-response report needs at least two scores")


def _fmt1(value: float) -> str:
    return f"{value:.1f}"


def _fmt2(value: float) -> str:
    # Two decimals, ties rounded half away from zero (f-strings round half even), exactly:
    # |value| is num / den, so 100 * |value| rounds to the integer cents with no float error.
    num, den = abs(value).as_integer_ratio()
    cents, rest = divmod(100 * num, den)
    cents += 2 * rest >= den
    sign = "-" if math.copysign(1.0, value) < 0 else ""  # -0.0 and -0.001 print -0.00
    return f"{sign}{cents // 100}.{cents % 100:02d}"


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


def render_report(scores: Sequence[float]) -> str:
    """Render the full multi-response report.

    The statistics, the frequency tables and each row of the summary table
    all come from ``scores``. ``scores`` may be score codes, a ``bytes`` of
    codes k standing for the scores 2.5 * k.
    """
    if len(scores) < 2:
        raise InsufficientDataError()
    stats = descriptive_stats(scores)  # also rejects a code above 40 before it is looked up
    if isinstance(scores, bytes):
        keys, values, summaries = scores, _CODE_VALUES, _CODE_SUMMARIES
    else:
        # Lines per distinct score, keyed by repr: -0.0 == 0.0, but they print as -0.00 and 0.00.
        keys = list(map(repr, scores))
        distinct = dict(zip(keys, scores))
        values = {key: _fmt1(score) for key, score in distinct.items()}
        summaries = {key: _summary_line(_score_cells(score)) for key, score in distinct.items()}

    values_block = ["SUS values", "-" * 11, *map(values.__getitem__, keys)]

    stats_block = [_pair_line("Statistic", "Value"), "-" * 26, *map(_pair_line, _STAT_NAMES, map(_fmt2, stats))]

    frequency_blocks = []
    for dimension, dim in _TABLE.items():
        entries = frequency_table(scores, dimension).entries
        block = [_pair_line(dim.heading, "Number"), "-" * dim.rule]
        block += [_pair_line(label.value, str(count)) for label, count in entries]
        frequency_blocks.append(block)

    summary_block = [_summary_line(_SCORE_FIELDS), "-" * 60, *map(summaries.__getitem__, keys)]

    blocks = [values_block, stats_block, *frequency_blocks, summary_block]
    # Two blank lines between blocks, one at the end.
    return "\n\n\n".join(map("\n".join, blocks)) + "\n\n"


def render_single_report(score: float) -> str:
    """Render the reduced report for a single response: score plus its labels."""
    _counted((score,))  # a NaN or infinite score raises ValueError, as in the aggregates
    return "\n".join(map(_pair_line, _SCORE_FIELDS, _score_cells(score))) + "\n"


def write_report(text: str, path: str | os.PathLike[str] = DEFAULT_REPORT_PATH) -> None:
    """Write report text to ``path`` byte-for-byte (no newline translation).

    Parent directories are not created, OS errors propagate unchanged, and an ``int``
    path raises ``TypeError``. Text that UTF-8 cannot encode raises before the file is
    opened, so an existing file keeps its bytes.
    """
    data = text.encode("utf-8")
    with open(os.fspath(path), "wb") as handle:
        handle.write(data)
