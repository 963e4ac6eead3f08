"""SVG chart rendering: structure, embedded data attributes, geometry."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from unittest import mock
from xml.sax.saxutils import escape

import pytest
from hypothesis import example, given
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


def kind_and_title(svg_text: str) -> tuple[str, str]:
    """The root's data-kind and the text of its first <text> element."""
    root = ET.fromstring(svg_text)
    return root.get("data-kind"), root.find(f"{SVG_NS}text").text


def test_histogram_semantics(sample_scores):
    svg = render_histogram(histogram_bins(sample_scores))
    assert kind_and_title(svg) == ("histogram", HISTOGRAM_TITLE)
    pairs = bar_pairs(svg)
    assert [label for label, _ in pairs] == [
        "0-10", "10-20", "20-30", "30-40", "40-50",
        "50-60", "60-70", "70-80", "80-90", "90-100",
    ]
    assert [count for _, count in pairs] == [1, 0, 1, 0, 1, 0, 0, 0, 6, 11]


def test_root_metadata(sample_scores):
    svg = render_histogram(histogram_bins(sample_scores))
    root = ET.fromstring(svg)
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
    svg = render_category_chart(table)
    assert kind_and_title(svg) == (dimension, CATEGORY_TITLES[dimension])
    assert bar_pairs(svg) == expected
    assert ET.fromstring(svg).get("data-total") == "20"


def test_zero_count_bars_still_drawn(sample_scores):
    table = frequency_table(sample_scores, "grade")
    bars = parse_bars(render_category_chart(table))
    zero_bars = [bar for bar in bars if bar["data-count"] == "0"]
    assert len(zero_bars) == 2
    for bar in zero_bars:
        assert bar["height"] == "0.0"


def test_rendering_is_deterministic(sample_scores):
    bins = histogram_bins(sample_scores)
    assert render_histogram(bins) == render_histogram(bins)


def test_title_element_present(sample_scores):
    svg = render_histogram(histogram_bins(sample_scores))
    root = ET.fromstring(svg)
    texts = [el.text for el in root.iter(f"{SVG_NS}text")]
    assert HISTOGRAM_TITLE in texts


def test_bar_heights_proportional_to_counts(sample_scores):
    bars = parse_bars(render_histogram(histogram_bins(sample_scores)))
    counts = [int(bar["data-count"]) for bar in bars]
    heights = [float(bar["height"]) for bar in bars]
    top = max(counts)
    tallest = max(heights)
    for count, height in zip(counts, heights):
        assert height == pytest.approx(count / top * tallest, abs=0.1)


def test_max_bar_fills_plot_height():
    bins = HistogramBins(counts=(0, 0, 0, 3, 0, 0, 0, 0, 0, 0))
    bars = parse_bars(render_histogram(bins))
    assert float(bars[3]["height"]) == 480.0
    assert float(bars[3]["y"]) == 60.0


def test_tick_step_1_labels_every_count_up_to_the_top():
    # The tallest bar is at most 10, so there is one tick per count and none above the plot.
    root = ET.fromstring(render_histogram(HistogramBins((1, 3, 0, 0, 0, 0, 0, 0, 0, 0))))
    ticks = next(g for g in root.iter(f"{SVG_NS}g") if g.get("class") == "y-ticks")
    assert [text.text for text in ticks.iter(f"{SVG_NS}text")] == ["0", "1", "2", "3"]


def test_bars_stay_inside_plot_area(sample_scores):
    for svg in (
        render_histogram(histogram_bins(sample_scores)),
        render_category_chart(frequency_table(sample_scores, "adjective")),
    ):
        for bar in parse_bars(svg):
            x = float(bar["x"])
            width = float(bar["width"])
            y = float(bar["y"])
            height = float(bar["height"])
            assert 80.0 <= x and x + width <= 720.0 + 0.1
            # x/y/width/height are each rounded to one decimal independently.
            assert 60.0 <= y and abs(y + height - 540.0) <= 0.11


def test_histogram_boundary_labels(sample_scores):
    svg = render_histogram(histogram_bins(sample_scores))
    root = ET.fromstring(svg)
    groups = [el for el in root.iter(f"{SVG_NS}g") if el.get("class") == "x-labels"]
    labels = [text.text for text in groups[0]]
    assert labels == [str(10 * i) for i in range(11)]


def test_category_labels_under_bars(sample_scores):
    svg = render_category_chart(frequency_table(sample_scores, "grade"))
    root = ET.fromstring(svg)
    groups = [el for el in root.iter(f"{SVG_NS}g") if el.get("class") == "x-labels"]
    labels = [text.text for text in groups[0]]
    assert labels == ["A", "B", "C", "D", "F"]


def test_charts_of_one_kind_keep_their_own_labels():
    # A chart drawn from a table lends its labels to no later chart of the same kind.
    full = frequency_table(bytes(range(41)), "grade")
    for table in (full, FrequencyTable("grade", full.entries[::-1]), full):
        svg = render_category_chart(table)
        assert bar_pairs(svg) == [(label.value, count) for label, count in table.entries]


def test_a_second_chart_of_one_frame_and_scale_builds_nothing_again():
    # Both charts have a largest count of 3, so they share the template and the y-ticks:
    # the second one escapes no text and formats no number outside the template's holes.
    first, second = histogram_bins([50.0] * 3), histogram_bins([10.0, 20.0, 30.0, 30.0, 30.0])
    render_histogram(first)
    with mock.patch.object(charts, "_escape", side_effect=AssertionError("text escaped again")), \
            mock.patch.object(charts, "_n", side_effect=AssertionError("number formatted again")):
        svg = render_histogram(second)
    assert bar_pairs(svg) == list(zip(charts._BIN_LABELS, second.counts))


def test_unknown_dimension_rejected():
    from suskit import Grade

    table = FrequencyTable(dimension="vibe", entries=((Grade.A, 1),))
    with pytest.raises(ValueError):
        render_category_chart(table)


def test_svg_is_well_formed_single_root(sample_scores):
    svg = render_category_chart(frequency_table(sample_scores, "acceptability"))
    ET.fromstring(svg)
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")


markup_texts = st.text(alphabet="&<>\"'a ;%", max_size=12)


@example(kind="100%", title="%s of %d", labels=["%%", "%.1f"])
@given(kind=markup_texts, title=markup_texts, labels=st.lists(markup_texts, min_size=1, max_size=4))
def test_markup_escapes_as_saxutils(kind, title, labels):
    labels, counts = tuple(labels), range(len(labels))

    def render():
        charts._template.cache_clear()  # a template kept from the other render would hide _escape
        return (charts._bar_chart_svg(kind, title, labels, counts),
                charts._bar_chart_svg(kind, title, labels, counts, (*labels, "&end")))

    ours = render()
    # Caller text prints as given, % included, once escaped.
    assert f'data-kind="{escape(kind)}"' in ours[0] and f">{escape(title)}</text>" in ours[0]
    assert all(f'data-label="{escape(label)}"' in ours[0] for label in labels)
    with mock.patch.object(charts, "_escape", escape):
        assert render() == ours
