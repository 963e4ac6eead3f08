"""SVG chart rendering: structure, embedded data attributes, geometry."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from unittest import mock
from xml.sax.saxutils import escape

import pytest
from hypothesis import given
from hypothesis import strategies as st

from suskit import charts

from suskit import (
    CATEGORY_TITLES,
    HISTOGRAM_TITLE,
    FrequencyTable,
    HistogramBins,
    frequency_table,
    histogram_bins,
    render_category_chart,
    render_histogram,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse_bars(svg_text: str) -> list[dict]:
    root = ET.fromstring(svg_text)
    bars = [el.attrib for el in root.iter(f"{SVG_NS}rect") if el.get("class") == "bar"]
    assert bars, "chart contains no bar rects"
    return bars


def bar_pairs(svg_text: str) -> list[tuple[str, int]]:
    return [(bar["data-label"], int(bar["data-count"])) for bar in parse_bars(svg_text)]


def test_histogram_semantics(sample_scores):
    doc = render_histogram(histogram_bins(sample_scores))
    assert doc.kind == "histogram"
    assert doc.title == HISTOGRAM_TITLE
    pairs = bar_pairs(doc.svg_text)
    assert [label for label, _ in pairs] == [
        "0-10", "10-20", "20-30", "30-40", "40-50",
        "50-60", "60-70", "70-80", "80-90", "90-100",
    ]
    assert [count for _, count in pairs] == [1, 0, 1, 0, 1, 0, 0, 0, 6, 11]


def test_root_metadata(sample_scores):
    doc = render_histogram(histogram_bins(sample_scores))
    root = ET.fromstring(doc.svg_text)
    assert root.tag == f"{SVG_NS}svg"
    assert root.get("data-kind") == "histogram"
    assert root.get("data-total") == "20"
    assert root.get("viewBox") == "0 0 800 600"
    assert (root.get("width"), root.get("height")) == ("800", "600")


@pytest.mark.parametrize(
    ("dimension", "expected"),
    [
        (
            "acceptability",
            [("NOT ACCEPTABLE", 3), ("LOW MARGINAL", 0), ("HIGH MARGINAL", 0), ("ACCEPTABLE", 17)],
        ),
        ("grade", [("A", 11), ("B", 6), ("C", 0), ("D", 0), ("F", 3)]),
        (
            "adjective",
            [
                ("WORST IMAGINABLE", 2),
                ("POOR", 0),
                ("OK", 1),
                ("GOOD", 0),
                ("EXCELLENT", 3),
                ("BEST IMAGINABLE", 14),
            ],
        ),
    ],
)
def test_category_chart_semantics(sample_scores, dimension, expected):
    table = frequency_table(sample_scores, dimension)
    doc = render_category_chart(table)
    assert doc.kind == dimension
    assert doc.title == CATEGORY_TITLES[dimension]
    assert bar_pairs(doc.svg_text) == expected
    root = ET.fromstring(doc.svg_text)
    assert root.get("data-kind") == dimension
    assert root.get("data-total") == "20"


def test_zero_count_bars_still_drawn(sample_scores):
    table = frequency_table(sample_scores, "grade")
    bars = parse_bars(render_category_chart(table).svg_text)
    zero_bars = [bar for bar in bars if bar["data-count"] == "0"]
    assert len(zero_bars) == 2
    for bar in zero_bars:
        assert bar["height"] == "0.0"


def test_rendering_is_deterministic(sample_scores):
    bins = histogram_bins(sample_scores)
    assert render_histogram(bins).svg_text == render_histogram(bins).svg_text


def test_title_element_present(sample_scores):
    doc = render_histogram(histogram_bins(sample_scores))
    root = ET.fromstring(doc.svg_text)
    texts = [el.text for el in root.iter(f"{SVG_NS}text")]
    assert HISTOGRAM_TITLE in texts


def test_bar_heights_proportional_to_counts(sample_scores):
    bars = parse_bars(render_histogram(histogram_bins(sample_scores)).svg_text)
    counts = [int(bar["data-count"]) for bar in bars]
    heights = [float(bar["height"]) for bar in bars]
    top = max(counts)
    tallest = max(heights)
    for count, height in zip(counts, heights):
        assert height == pytest.approx(count / top * tallest, abs=0.1)


def test_max_bar_fills_plot_height():
    bins = HistogramBins(counts=(0, 0, 0, 3, 0, 0, 0, 0, 0, 0))
    bars = parse_bars(render_histogram(bins).svg_text)
    assert float(bars[3]["height"]) == 480.0
    assert float(bars[3]["y"]) == 60.0


def test_bars_stay_inside_plot_area(sample_scores):
    for doc in (
        render_histogram(histogram_bins(sample_scores)),
        render_category_chart(frequency_table(sample_scores, "adjective")),
    ):
        for bar in parse_bars(doc.svg_text):
            x = float(bar["x"])
            width = float(bar["width"])
            y = float(bar["y"])
            height = float(bar["height"])
            assert 80.0 <= x and x + width <= 720.0 + 0.1
            # x/y/width/height are each rounded to one decimal independently.
            assert 60.0 <= y and abs(y + height - 540.0) <= 0.11


def test_histogram_boundary_labels(sample_scores):
    doc = render_histogram(histogram_bins(sample_scores))
    root = ET.fromstring(doc.svg_text)
    groups = [el for el in root.iter(f"{SVG_NS}g") if el.get("class") == "x-labels"]
    labels = [text.text for text in groups[0]]
    assert labels == [str(10 * i) for i in range(11)]


def test_category_labels_under_bars(sample_scores):
    doc = render_category_chart(frequency_table(sample_scores, "grade"))
    root = ET.fromstring(doc.svg_text)
    groups = [el for el in root.iter(f"{SVG_NS}g") if el.get("class") == "x-labels"]
    labels = [text.text for text in groups[0]]
    assert labels == ["A", "B", "C", "D", "F"]


def test_unknown_dimension_rejected():
    from suskit import Grade

    table = FrequencyTable(dimension="vibe", entries=((Grade.A, 1),))
    with pytest.raises(ValueError):
        render_category_chart(table)


def test_svg_is_well_formed_single_root(sample_scores):
    doc = render_category_chart(frequency_table(sample_scores, "acceptability"))
    ET.fromstring(doc.svg_text)
    assert doc.svg_text.startswith("<svg ")
    assert doc.svg_text.endswith("</svg>\n")


markup_texts = st.text(alphabet="&<>\"'a ;", max_size=12)


@given(kind=markup_texts, title=markup_texts, labels=st.lists(markup_texts, min_size=1, max_size=4))
def test_markup_escapes_as_saxutils(kind, title, labels):
    bars = [(label, count) for count, label in enumerate(labels)]

    def render():
        return (charts._bar_chart_svg(kind, title, bars),
                charts._bar_chart_svg(kind, title, bars, boundary_labels=[*labels, "&end"]))

    ours = render()
    with mock.patch.object(charts, "_escape", escape):
        assert render() == ours
