"""Fixed-width report layout, rounding, and file output."""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from suskit import (
    InsufficientDataError,
    descriptive_stats,
    render_report,
    render_single_report,
    write_report,
)
from suskit.report import _fmt2


def test_full_report_matches_golden(sample_scores, golden_report):
    assert render_report(sample_scores) == golden_report


def test_rendering_is_deterministic(sample_scores):
    assert render_report(sample_scores) == render_report(sample_scores)


def test_report_ends_with_blank_line(sample_scores):
    assert render_report(sample_scores).endswith("WORST IMAGINABLE\n\n")


def test_blocks_separated_by_two_blank_lines(sample_scores):
    text = render_report(sample_scores)
    assert text.count("\n\n\n") == 5
    assert "\n\n\n\n" not in text


def test_values_block_one_decimal(sample_scores):
    lines = render_report(sample_scores).split("\n")
    assert lines[0] == "SUS values"
    assert lines[1] == "-" * 11
    assert lines[2:22] == [f"{score:.1f}" for score in sample_scores]


def test_statistics_block_layout(sample_scores):
    lines = render_report(sample_scores).split("\n")
    stats_lines = lines[24:31]
    assert stats_lines[0] == "Statistic           Value               "
    assert stats_lines[1] == "-" * 26
    assert stats_lines[2] == "Mean                78.88               "
    assert stats_lines[3] == "Standard Deviation  25.20               "
    assert stats_lines[4] == "First Quartile (Q1) 82.50               "
    assert stats_lines[5] == "Median (Q2)         90.00               "
    assert stats_lines[6] == "Third Quartile (Q3) 92.50               "


def test_summary_block_columns(sample_scores):
    lines = render_report(sample_scores).split("\n")
    header_at = lines.index("SUS Value      Acceptability  Grade          Adjective      ")
    assert lines[header_at + 1] == "-" * 60
    first = lines[header_at + 2]
    assert first.startswith("90.00          ACCEPTABLE     A              BEST IMAGINABLE")
    # A 16-character label overflows its 15-wide column rather than being cut.
    last = lines[header_at + 2 + 19]
    assert last.endswith("WORST IMAGINABLE")
    assert "WORST IMAGINABL " not in "\n".join(lines)


def test_two_decimal_ties_round_half_away_from_zero():
    # q1 of [0, 2.5] is 0.625; half-even formatting would print 0.62.
    scores = [0.0, 2.5]
    assert descriptive_stats(scores).q1 == 0.625
    text = render_report(scores)
    assert "First Quartile (Q1) 0.63" in text
    assert "0.62" not in text


# Finite floats below 1e26, where Decimal's 28 digits hold every result, and exact ties:
# an odd multiple of 1/8 lies halfway between two cents.
@given(st.one_of(
    st.floats(-1e26, 1e26, exclude_min=True, exclude_max=True),
    st.integers(-(10**9), 10**9).map(lambda n: n / 8),
))
@example(0.625)
@example(0.005)
@example(-0.005)
@example(-0.0)
@example(5e-324)
@example(99.995)
def test_fmt2_rounds_as_decimal(value):
    assert _fmt2(value) == str(Decimal(value).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def test_huge_report_values_print_their_digits():
    # Decimal's 28 digits cannot hold 1e30 to two decimals; the cents of an integer can.
    text = render_report([1e30, 2e30])
    mean = descriptive_stats([1e30, 2e30]).mean
    assert f"{'Mean':<20}{int(mean)}.00" in text.splitlines()
    assert f"{int(1e30)}.00" in text and f"{int(2e30)}.00" in text


def _summary_rows(text: str, count: int) -> list[str]:
    lines = text.split("\n")
    header_at = lines.index("SUS Value      Acceptability  Grade          Adjective      ")
    return lines[header_at + 2 : header_at + 2 + count]


def test_negative_zero_keeps_its_sign_in_every_row():
    # -0.0 == 0.0, so a memo keyed on the float itself would print both rows alike.
    text = render_report([-0.0, 0.0])
    lines = text.split("\n")
    assert lines[2:4] == ["-0.0", "0.0"]
    first, second = _summary_rows(text, 2)
    assert first.startswith("-0.00 ")
    assert second.startswith("0.00 ")


def test_summary_rows_round_half_away_from_zero():
    # 0.125 and 0.375 are exact binary ties; half-even formatting would print 0.12 first.
    first, second = _summary_rows(render_report([0.125, 0.375]), 2)
    assert first.startswith("0.13 ")
    assert second.startswith("0.38 ")


def test_insufficient_data_raises():
    # The length check comes first: no EmptyScoreSetError from the statistics, and no
    # ValueError for the code 41, which the statistics reject before it is looked up.
    for scores in ([], b"", [90.0], b"\x05", bytes([41])):
        with pytest.raises(InsufficientDataError):
            render_report(scores)


@pytest.mark.parametrize(
    ("score", "cells"),
    [
        (90.0, ("90.00", "ACCEPTABLE", "A", "BEST IMAGINABLE")),
        (0.0, ("0.00", "NOT ACCEPTABLE", "F", "WORST IMAGINABLE")),
        (100.0, ("100.00", "ACCEPTABLE", "A", "BEST IMAGINABLE")),
        (65.0, ("65.00", "HIGH MARGINAL", "D", "GOOD")),
    ],
)
def test_single_report_content(score, cells):
    text = render_single_report(score)
    lines = text.split("\n")
    assert lines[0] == f"{'SUS Value':<20}{cells[0]:<20}"
    assert lines[1] == f"{'Acceptability':<20}{cells[1]:<20}"
    assert lines[2] == f"{'Grade':<20}{cells[2]:<20}"
    assert lines[3] == f"{'Adjective':<20}{cells[3]:<20}"
    assert lines[4] == ""
    assert len(lines) == 5


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_single_report_rejects_non_finite_score(bad):
    # Not printed as ACCEPTABLE, grade A, BEST IMAGINABLE, nor a decimal.InvalidOperation.
    with pytest.raises(ValueError, match=f"^score {bad} is not finite$"):
        render_single_report(float(bad))


def test_write_report_round_trip(tmp_path, sample_scores):
    text = render_report(sample_scores)
    target = tmp_path / "out.txt"
    write_report(text, target)
    assert target.read_bytes() == text.encode("utf-8")


def test_write_report_default_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_report("hello\n")
    assert (tmp_path / "results.txt").read_text(encoding="utf-8") == "hello\n"


def test_write_report_keeps_the_file_on_text_it_cannot_encode(tmp_path):
    target = tmp_path / "out.txt"
    target.write_bytes(b"old report\n")
    with pytest.raises(UnicodeEncodeError):
        write_report("x\ud800", target)
    assert target.read_bytes() == b"old report\n"


def test_write_report_missing_directory(tmp_path):
    with pytest.raises(OSError):
        write_report("x\n", tmp_path / "absent" / "out.txt")


def test_write_report_to_directory_fails(tmp_path):
    with pytest.raises(OSError):
        write_report("x\n", tmp_path)
