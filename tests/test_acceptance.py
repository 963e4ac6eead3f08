"""End-to-end acceptance checks, one test per shipping criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; with ``-s`` each also prints an explicit PASS summary.
Every numeric expectation is checked against an independently coded
oracle or a frozen constant, never against the implementation itself.
"""

from __future__ import annotations

import itertools
import math
import random
import time
import xml.etree.ElementTree as ET

import oracle
import pytest

from suskit import (
    BadFieldCountError,
    DIMENSIONS,
    EmptyInputError,
    NotAnIntegerError,
    OutOfRangeError,
    ResponseRow,
    classify_each,
    descriptive_stats,
    frequency_table,
    histogram_bins,
    load_responses,
    parse_responses,
    render_category_chart,
    render_histogram,
    score_response,
)
from suskit.cli import main

SVG_NS = "{http://www.w3.org/2000/svg}"

EXPECTED_SCORES = [
    90.0, 92.5, 85.0, 90.0, 82.5, 92.5, 90.0, 92.5, 85.0, 90.0,
    82.5, 92.5, 82.5, 22.5, 92.5, 90.0, 92.5, 87.5, 40.0, 5.0,
]

EXPECTED_STAT_STRINGS = {
    "Mean": "78.88",
    "Standard Deviation": "25.20",
    "First Quartile (Q1)": "82.50",
    "Median (Q2)": "90.00",
    "Third Quartile (Q3)": "92.50",
}

EXPECTED_HISTOGRAM = (1, 0, 1, 0, 1, 0, 0, 0, 6, 11)


def test_c1_golden_scores_statistics_and_runtime(capsys, tmp_path, monkeypatch, sample_path):
    monkeypatch.chdir(tmp_path)
    started = time.perf_counter()
    code = main(["report", str(sample_path)])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0

    lines = out.split("\n")
    assert lines[0] == "SUS values"
    rendered_scores = lines[2:22]
    assert rendered_scores == [f"{score:.1f}" for score in EXPECTED_SCORES]

    by_name = {line[:20].strip(): line[20:].strip() for line in lines if len(line) > 20}
    for name, expected in EXPECTED_STAT_STRINGS.items():
        assert by_name[name] == expected, f"{name}: {by_name.get(name)!r} != {expected!r}"

    assert elapsed < 1.0, f"report took {elapsed:.3f}s"
    print(f"C1 PASS: 20 golden scores, 5 exact statistic strings, runtime {elapsed:.3f}s < 1s")


def test_c2_frequency_tables_exact(sample_scores):
    acceptability = frequency_table(sample_scores, "acceptability")
    assert [count for _, count in acceptability.entries] == [3, 0, 0, 17]

    grades = frequency_table(sample_scores, "grade")
    assert [(label.value, count) for label, count in grades.entries] == [
        ("A", 11), ("B", 6), ("C", 0), ("D", 0), ("F", 3),
    ]

    adjectives = frequency_table(sample_scores, "adjective")
    assert [count for _, count in adjectives.entries] == [2, 0, 1, 0, 3, 14]
    print("C2 PASS: acceptability 3/0/0/17, grades 11/6/0/0/3, adjectives 2/0/1/0/3/14")


def test_c3_byte_exact_golden_report(capsys, tmp_path, sample_path, golden_path):
    golden_bytes = golden_path.read_bytes()
    target = tmp_path / "results.txt"
    code = main(["report", str(sample_path), "--output", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == golden_bytes
    assert target.read_bytes() == golden_bytes
    print(f"C3 PASS: stdout and written file byte-identical to golden ({len(golden_bytes)} bytes)")


def test_c4_exhaustive_scoring_oracle():
    valid_scores = frozenset(k * 2.5 for k in range(41))
    row_cls = ResponseRow
    score_fn = score_response
    # A row's code is the sum of its halves' codes: 2 x 3,125 oracle calls, then a lookup per row.
    halves = list(itertools.product((1, 2, 3, 4, 5), repeat=5))
    second_halves = [(half, oracle.partial_code(half, 6)) for half in halves]

    started = time.perf_counter()
    checked = 0
    for first in halves:
        first_code = oracle.partial_code(first, 1)
        for second, second_code in second_halves:
            answers = first + second
            score = score_fn(row_cls(answers))
            expected = 2.5 * (first_code + second_code)
            if score != expected or score not in valid_scores:
                pytest.fail(f"row {answers}: got {score}, oracle {expected}")
            checked += 1
    elapsed = time.perf_counter() - started

    assert checked == 5**10 == 9_765_625
    assert elapsed < 60.0, f"exhaustive sweep took {elapsed:.1f}s"
    print(f"C4 PASS: all {checked:,} rows match the per-item oracle in {elapsed:.1f}s < 60s")


# Threshold -> (dimension, label at the threshold, label just below it).
BOUNDARY_EXPECTATIONS = [
    (25.0, "adjective", "POOR", "WORST IMAGINABLE"),
    (39.0, "adjective", "OK", "POOR"),
    (50.0, "acceptability", "LOW MARGINAL", "NOT ACCEPTABLE"),
    (52.0, "adjective", "GOOD", "OK"),
    (60.0, "grade", "D", "F"),
    (62.5, "acceptability", "HIGH MARGINAL", "LOW MARGINAL"),
    (70.0, "acceptability", "ACCEPTABLE", "HIGH MARGINAL"),
    (70.0, "grade", "C", "D"),
    (73.0, "adjective", "EXCELLENT", "GOOD"),
    (80.0, "grade", "B", "C"),
    (85.0, "adjective", "BEST IMAGINABLE", "EXCELLENT"),
    (90.0, "grade", "A", "B"),
]


def test_c5_property_suite():
    rng = random.Random(20260819)
    rows = [tuple(rng.randint(1, 5) for _ in range(10)) for _ in range(10_000)]

    for answers in rows:
        mirrored = tuple(6 - a for a in answers)
        assert score_response(ResponseRow(mirrored)) == 100.0 - score_response(
            ResponseRow(answers)
        )

    steps_checked = 0
    for answers in rows[:1000]:
        base = score_response(ResponseRow(answers))
        for position in range(10):
            if answers[position] == 5:
                continue
            bumped = list(answers)
            bumped[position] += 1
            moved = score_response(ResponseRow(tuple(bumped)))
            expected = 2.5 if position % 2 == 0 else -2.5
            assert moved - base == expected
            steps_checked += 1
    assert steps_checked > 5000

    for k in range(41):
        for dimension in DIMENSIONS:
            label = classify_each([k * 2.5], dimension)[0]
            assert label.value == oracle.label(dimension, k)

    for threshold, dimension, at_label, below_label in BOUNDARY_EXPECTATIONS:
        at = classify_each([threshold], dimension)[0]
        below = classify_each([threshold - 1e-9], dimension)[0]
        assert at.value == at_label, f"{dimension} at {threshold}"
        assert below.value == below_label, f"{dimension} just below {threshold}"

    print(
        "C5 PASS: complement symmetry on 10,000 rows, "
        f"{steps_checked} monotonic unit steps, 41-score partition, "
        f"{len(BOUNDARY_EXPECTATIONS)} lower-inclusive boundaries"
    )


def test_c6_quantile_and_std_oracle():
    rng = random.Random(987654321)
    samples_checked = 0
    for _ in range(1000):
        size = rng.randint(1, 12)
        codes = bytes(rng.randint(0, 40) for _ in range(size))
        stats = descriptive_stats([k * 2.5 for k in codes])

        if size == 1:
            # One score is its own quartiles, with no spread.
            assert (stats.q1, stats.median, stats.q3) == (codes[0] * 2.5,) * 3
            assert stats.sample_std == 0.0
        else:
            exact = oracle.exact_stats(codes)
            assert stats.q1 == float(exact["First Quartile (Q1)"])
            assert stats.median == float(exact["Median (Q2)"])
            assert stats.q3 == float(exact["Third Quartile (Q3)"])
            std = exact["Standard Deviation"]
            assert math.isclose(stats.sample_std, std, rel_tol=1e-12, abs_tol=0.0)
        samples_checked += 1

    assert samples_checked == 1000
    print("C6 PASS: 1,000 samples; quartiles exact, std within 1e-12 relative")


def svg_bar_pairs(svg_text: str) -> list[tuple[str, int]]:
    root = ET.fromstring(svg_text)
    return [
        (el.get("data-label"), int(el.get("data-count")))
        for el in root.iter(f"{SVG_NS}rect")
        if el.get("class") == "bar"
    ]


def test_c7_chart_semantics(sample_scores):
    for dimension in DIMENSIONS:
        table = frequency_table(sample_scores, dimension)
        pairs = svg_bar_pairs(render_category_chart(table))
        assert pairs == [(label.value, count) for label, count in table.entries]

    bins = histogram_bins(sample_scores)
    assert bins.counts == EXPECTED_HISTOGRAM
    histogram_pairs = svg_bar_pairs(render_histogram(bins))
    assert [count for _, count in histogram_pairs] == list(EXPECTED_HISTOGRAM)
    print("C7 PASS: SVG bars recover all 3 frequency tables and histogram 1/0/1/0/1/0/0/0/6/11")


def test_c8_ingest_errors(capsys, tmp_path):
    cases = []

    nine = tmp_path / "nine.csv"
    nine.write_text("1;2;3;4;5;1;2;3;4\n", encoding="utf-8")
    cases.append((nine, BadFieldCountError, "line 1"))

    noninteger = tmp_path / "nonint.csv"
    noninteger.write_text("1;2;three;4;5;1;2;3;4;5\n", encoding="utf-8")
    cases.append((noninteger, NotAnIntegerError, "line 1, field 3"))

    zero = tmp_path / "zero.csv"
    zero.write_text("0;2;3;4;5;1;2;3;4;5\n", encoding="utf-8")
    cases.append((zero, OutOfRangeError, "line 1, field 1"))

    six = tmp_path / "six.csv"
    six.write_text("1;2;3;4;5;1;2;3;4;6\n", encoding="utf-8")
    cases.append((six, OutOfRangeError, "line 1, field 10"))

    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    cases.append((empty, EmptyInputError, "no response rows"))

    for path, exc_type, fragment in cases:
        with pytest.raises(exc_type):
            load_responses(path)
        code = main(["score", str(path)])
        err = capsys.readouterr().err
        assert code == 1, f"{path.name}: exit code {code}"
        assert fragment in err, f"{path.name}: {err!r}"

    missing = tmp_path / "missing.csv"
    with pytest.raises(FileNotFoundError):
        load_responses(missing)
    code = main(["score", str(missing)])
    err = capsys.readouterr().err
    assert code == 1
    assert str(missing) in err

    # Coordinates are also exposed as attributes, not just message text.
    with pytest.raises(OutOfRangeError) as excinfo:
        parse_responses("1;2;3;4;5;1;2;3;4;6\n")
    assert (excinfo.value.line_no, excinfo.value.field_no, excinfo.value.value) == (1, 10, 6)

    print("C8 PASS: 6 malformed inputs -> typed errors, exit code 1, correct coordinates")


def test_scores_agree_with_loaded_sample(sample_path):
    # Cross-check: the frozen expected-score list matches a fresh parse and the per-item oracle.
    codes = load_responses(sample_path).codes
    assert [2.5 * k for k in codes] == EXPECTED_SCORES
    lines = sample_path.read_text(encoding="utf-8").splitlines()
    assert [2.5 * oracle.code(oracle.split_answers(line, ";")) for line in lines] == EXPECTED_SCORES
