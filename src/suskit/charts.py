"""Standalone SVG bar charts: score histogram and categorical frequency charts.

Charts are rendered as plain SVG 1.1 text with no external dependencies,
so identical inputs give byte-identical files. Every bar carries
``data-label`` and ``data-count`` attributes so tests (or downstream
tools) can read the chart semantics without rasterizing it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

from .scoring import _TABLE, _dimension
from .stats import NUM_BINS, FrequencyTable, HistogramBins

__all__ = ["CATEGORY_TITLES", "HISTOGRAM_TITLE", "render_category_chart", "render_histogram"]

CANVAS_WIDTH = 800
CANVAS_HEIGHT = 600
_MARGIN_X = CANVAS_WIDTH // 10
_MARGIN_Y = CANVAS_HEIGHT // 10
_PLOT_WIDTH = CANVAS_WIDTH - 2 * _MARGIN_X
_PLOT_HEIGHT = CANVAS_HEIGHT - 2 * _MARGIN_Y
_Y1 = _MARGIN_Y + _PLOT_HEIGHT  # the x-axis
_MAX_TICKS = 10
_BAR_FILL = "#4682b4"
_AXIS_COLOR = "#333333"

HISTOGRAM_TITLE = "SUS value histogram"
CATEGORY_TITLES = {dimension: dim.chart_title for dimension, dim in _TABLE.items()}

_BIN_LABELS = tuple(f"{10 * i}-{10 * (i + 1)}" for i in range(NUM_BINS))
_BIN_BOUNDARIES = tuple(str(10 * i) for i in range(NUM_BINS + 1))


def render_histogram(bins: HistogramBins) -> str:
    """SVG histogram of scores over the ten 0-100 intervals, titled HISTOGRAM_TITLE."""
    return _bar_chart_svg("histogram", HISTOGRAM_TITLE, _BIN_LABELS, bins.counts, _BIN_BOUNDARIES)


def render_category_chart(table: FrequencyTable) -> str:
    """SVG bar chart of per-label counts for one dimension, titled CATEGORY_TITLES[dimension]."""
    labels = tuple(label.value for label, _ in table.entries)
    counts = [count for _, count in table.entries]
    return _bar_chart_svg(table.dimension, _dimension(table.dimension).chart_title, labels, counts)


def _escape(text: str) -> str:
    # As xml.sax.saxutils.escape, whose module also imports urllib, http and email.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _n(value: float) -> str:
    return f"{value:.1f}"


def _bar_chart_svg(
    kind: str,
    title: str,
    labels: tuple[str, ...],
    counts: Sequence[int],
    boundary_labels: tuple[str, ...] | None = None,
) -> str:
    """Build the SVG text for a bar chart of one bar per label.

    With ``boundary_labels`` the bars are drawn contiguously (histogram
    style) and the labels mark the slot boundaries; otherwise each bar is
    drawn with a gap and labeled underneath.
    """
    max_count = max(counts)
    tick_step = max(1, math.ceil(max_count / _MAX_TICKS))
    y_top = max(tick_step, tick_step * math.ceil(max_count / tick_step))
    head, head_end, bar_parts, bar_end, tail = _frame(kind, title, labels, boundary_labels)
    parts = [f"{head}{sum(counts)}{head_end}", _y_ticks(y_top, tick_step)]
    for (before_count, before_y, before_height), count in zip(bar_parts, counts):
        height = count / y_top * _PLOT_HEIGHT
        parts.append(f"{before_count}{count}{before_y}{_n(_Y1 - height)}"
                     f"{before_height}{_n(height)}{bar_end}")
    parts.append(tail)
    return "".join(parts)


@lru_cache(maxsize=16)
def _frame(kind: str, title: str, labels: tuple[str, ...],
           boundary_labels: tuple[str, ...] | None) -> tuple:
    """The text of a chart that its counts do not change, cut where they go in: the header
    up to data-total, the rest of the header, each bar's text before its count, y and
    height, the end of a bar, and the text after the bars."""
    x0 = _MARGIN_X
    slot = _PLOT_WIDTH / len(labels)
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_WIDTH}" height="{CANVAS_HEIGHT}"'
        f' viewBox="0 0 {CANVAS_WIDTH} {CANVAS_HEIGHT}" data-kind="{_escape(kind)}" data-total="'
    )
    head_end = '">\n' + "\n".join([
        f'  <rect width="{CANVAS_WIDTH}" height="{CANVAS_HEIGHT}" fill="#ffffff"/>',
        f'  <text x="{_n(CANVAS_WIDTH / 2)}" y="36" font-family="sans-serif" font-size="20"'
        f' text-anchor="middle">{_escape(title)}</text>',
        '  <g class="axes">',
        f'    <line x1="{x0}" y1="{_MARGIN_Y}" x2="{x0}" y2="{_Y1}" stroke="{_AXIS_COLOR}" stroke-width="1"/>',
        f'    <line x1="{x0}" y1="{_Y1}" x2="{x0 + _PLOT_WIDTH}" y2="{_Y1}" stroke="{_AXIS_COLOR}" stroke-width="1"/>',
        "  </g>",
        '  <g class="y-ticks" font-family="sans-serif" font-size="12" text-anchor="end">\n',
    ])

    contiguous = boundary_labels is not None
    bar_width = slot if contiguous else slot * 0.7
    bar_parts = tuple(
        (f'    <rect class="bar" data-label="{_escape(label)}" data-count="',
         f'" x="{_n(x0 + index * slot + (0 if contiguous else slot * 0.15))}" y="',
         f'" width="{_n(bar_width)}" height="')
        for index, label in enumerate(labels)
    )
    stroke = ' stroke="#ffffff" stroke-width="1"' if contiguous else ""
    bar_end = f'" fill="{_BAR_FILL}"{stroke}/>\n'

    if contiguous:
        label_font, x_labels, shift = 12, boundary_labels, 0
    else:
        label_font, x_labels, shift = 10, labels, 0.5
    tail = "\n".join([
        "  </g>",
        f'  <g class="x-labels" font-family="sans-serif" font-size="{label_font}" text-anchor="middle">',
        *(f'    <text x="{_n(x0 + (index + shift) * slot)}" y="{_Y1 + 24}">{_escape(text)}</text>'
          for index, text in enumerate(x_labels)),
        "  </g>",
        "</svg>\n",
    ])
    return head, head_end, bar_parts, bar_end, tail


@lru_cache(maxsize=64)
def _y_ticks(y_top: int, tick_step: int) -> str:
    """The y-tick group from its first tick to the start of the bars, for one axis scale."""
    x0 = _MARGIN_X
    lines = []
    for value in range(0, y_top + 1, tick_step):
        y = _Y1 - value / y_top * _PLOT_HEIGHT
        lines.append(
            f'    <line x1="{x0 - 6}" y1="{_n(y)}" x2="{x0}" y2="{_n(y)}"'
            f' stroke="{_AXIS_COLOR}" stroke-width="1"/>'
        )
        lines.append(f'    <text x="{x0 - 10}" y="{_n(y + 4)}">{value}</text>')
    return "\n".join([*lines, "  </g>", '  <g class="bars">\n'])
