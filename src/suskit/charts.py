"""Standalone SVG bar charts: score histogram and categorical frequency charts.

Charts are rendered as plain SVG 1.1 text with no external dependencies,
so identical inputs give byte-identical files. Every bar carries
``data-label`` and ``data-count`` attributes so tests (or downstream
tools) can read the chart semantics without rasterizing it.
"""

from __future__ import annotations

import math

from .scoring import _TABLE, _dimension
from .stats import FrequencyTable, HistogramBins

CANVAS_WIDTH = 800
CANVAS_HEIGHT = 600
_MARGIN_X = CANVAS_WIDTH // 10
_MARGIN_Y = CANVAS_HEIGHT // 10
_PLOT_WIDTH = CANVAS_WIDTH - 2 * _MARGIN_X
_PLOT_HEIGHT = CANVAS_HEIGHT - 2 * _MARGIN_Y
_MAX_TICKS = 10
_BAR_FILL = "#4682b4"
_AXIS_COLOR = "#333333"

HISTOGRAM_TITLE = "SUS value histogram"
CATEGORY_TITLES = {dimension: dim.chart_title for dimension, dim in _TABLE.items()}


def render_histogram(bins: HistogramBins) -> str:
    """SVG histogram of scores over the ten 0-100 intervals, titled HISTOGRAM_TITLE."""
    bars = [(f"{10 * i}-{10 * (i + 1)}", count) for i, count in enumerate(bins.counts)]
    boundaries = [str(10 * i) for i in range(len(bins.counts) + 1)]
    return _bar_chart_svg("histogram", HISTOGRAM_TITLE, bars, boundary_labels=boundaries)


def render_category_chart(table: FrequencyTable) -> str:
    """SVG bar chart of per-label counts for one dimension, titled CATEGORY_TITLES[dimension]."""
    bars = [(label.value, count) for label, count in table.entries]
    return _bar_chart_svg(table.dimension, _dimension(table.dimension).chart_title, bars)


def _escape(text: str) -> str:
    # As xml.sax.saxutils.escape, whose module also imports urllib, http and email.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _n(value: float) -> str:
    return f"{value:.1f}"


def _bar_chart_svg(
    kind: str,
    title: str,
    bars: list[tuple[str, int]],
    boundary_labels: list[str] | None = None,
) -> str:
    """Build the SVG text for a bar chart.

    With ``boundary_labels`` the bars are drawn contiguously (histogram
    style) and the labels mark the slot boundaries; otherwise each bar is
    drawn with a gap and labeled underneath.
    """
    max_count = max(count for _, count in bars)
    tick_step = max(1, math.ceil(max_count / _MAX_TICKS))
    y_top = max(tick_step, tick_step * math.ceil(max_count / tick_step))
    total = sum(count for _, count in bars)

    x0 = _MARGIN_X
    y0 = _MARGIN_Y
    y1 = _MARGIN_Y + _PLOT_HEIGHT
    slot = _PLOT_WIDTH / len(bars)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_WIDTH}" height="{CANVAS_HEIGHT}"'
        f' viewBox="0 0 {CANVAS_WIDTH} {CANVAS_HEIGHT}" data-kind="{_escape(kind)}" data-total="{total}">',
        f'  <rect width="{CANVAS_WIDTH}" height="{CANVAS_HEIGHT}" fill="#ffffff"/>',
        f'  <text x="{_n(CANVAS_WIDTH / 2)}" y="36" font-family="sans-serif" font-size="20"'
        f' text-anchor="middle">{_escape(title)}</text>',
        '  <g class="axes">',
        f'    <line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="{_AXIS_COLOR}" stroke-width="1"/>',
        f'    <line x1="{x0}" y1="{y1}" x2="{x0 + _PLOT_WIDTH}" y2="{y1}" stroke="{_AXIS_COLOR}" stroke-width="1"/>',
        "  </g>",
        '  <g class="y-ticks" font-family="sans-serif" font-size="12" text-anchor="end">',
    ]
    for value in range(0, y_top + 1, tick_step):
        y = y1 - value / y_top * _PLOT_HEIGHT
        parts.append(
            f'    <line x1="{x0 - 6}" y1="{_n(y)}" x2="{x0}" y2="{_n(y)}"'
            f' stroke="{_AXIS_COLOR}" stroke-width="1"/>'
        )
        parts.append(f'    <text x="{x0 - 10}" y="{_n(y + 4)}">{value}</text>')
    parts.append("  </g>")

    contiguous = boundary_labels is not None
    bar_width = slot if contiguous else slot * 0.7
    parts.append('  <g class="bars">')
    for index, (label, count) in enumerate(bars):
        x = x0 + index * slot + (0 if contiguous else slot * 0.15)
        height = count / y_top * _PLOT_HEIGHT
        stroke = ' stroke="#ffffff" stroke-width="1"' if contiguous else ""
        parts.append(
            f'    <rect class="bar" data-label="{_escape(label)}" data-count="{count}"'
            f' x="{_n(x)}" y="{_n(y1 - height)}" width="{_n(bar_width)}" height="{_n(height)}"'
            f' fill="{_BAR_FILL}"{stroke}/>'
        )
    parts.append("  </g>")

    if contiguous:
        label_font, labels, shift = 12, boundary_labels, 0
    else:
        label_font, labels, shift = 10, [label for label, _ in bars], 0.5
    parts.append(
        f'  <g class="x-labels" font-family="sans-serif" font-size="{label_font}" text-anchor="middle">'
    )
    for index, text in enumerate(labels):
        parts.append(f'    <text x="{_n(x0 + (index + shift) * slot)}" y="{y1 + 24}">{_escape(text)}</text>')
    parts.append("  </g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
