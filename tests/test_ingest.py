"""Parsing and validation of semicolon-delimited questionnaire files."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from suskit import (
    BadFieldCountError,
    EmptyInputError,
    NotAnIntegerError,
    OutOfRangeError,
    ParseError,
    ResponseRow,
    load_responses,
    parse_responses,
)

GOOD_LINE = "1;2;3;4;5;1;2;3;4;5"


def test_parses_sample_file(sample_path):
    report = load_responses(sample_path)
    assert len(report.rows) == 20
    assert report.source_line_count == 20
    assert report.rows[0].answers == (5, 2, 5, 1, 4, 1, 5, 1, 4, 2)
    assert report.rows[-1].answers == (1, 5, 1, 5, 2, 4, 1, 5, 1, 5)


def test_row_order_preserved():
    text = "1;1;1;1;1;1;1;1;1;1\n5;5;5;5;5;5;5;5;5;5\n"
    report = parse_responses(text)
    assert [row.answers[0] for row in report.rows] == [1, 5]


def test_crlf_input_accepted():
    text = GOOD_LINE + "\r\n" + GOOD_LINE + "\r\n"
    report = parse_responses(text)
    assert len(report.rows) == 2


def test_missing_trailing_newline_accepted():
    report = parse_responses(GOOD_LINE)
    assert len(report.rows) == 1


def test_blank_lines_skipped_but_counted():
    text = "\n" + GOOD_LINE + "\n   \n" + GOOD_LINE + "\n"
    report = parse_responses(text)
    assert len(report.rows) == 2
    assert report.source_line_count == 4


def test_field_whitespace_trimmed():
    text = " 1 ;2;3;4;5;1;2;3;4; 5 \n"
    report = parse_responses(text)
    assert report.rows[0].answers == (1, 2, 3, 4, 5, 1, 2, 3, 4, 5)


def test_empty_text_rejected():
    with pytest.raises(EmptyInputError):
        parse_responses("")


def test_blank_only_text_rejected():
    with pytest.raises(EmptyInputError):
        parse_responses("\n  \n\n")


@pytest.mark.parametrize("fields", [9, 11])
def test_wrong_field_count(fields):
    line = ";".join(["3"] * fields)
    with pytest.raises(BadFieldCountError) as excinfo:
        parse_responses(line + "\n")
    err = excinfo.value
    assert err.line_no == 1
    assert str(fields) in str(err)
    assert "expected 10" in str(err)


def test_not_an_integer_reports_coordinates():
    text = GOOD_LINE + "\n1;2;x;4;5;1;2;3;4;5\n"
    with pytest.raises(NotAnIntegerError) as excinfo:
        parse_responses(text)
    err = excinfo.value
    assert err.line_no == 2
    assert err.field_no == 3
    assert "x" in str(err)


def test_float_field_rejected():
    with pytest.raises(NotAnIntegerError):
        parse_responses("1;2;3.5;4;5;1;2;3;4;5\n")


@pytest.mark.parametrize(
    ("bad_value", "field_no"),
    [(0, 1), (6, 10), (-3, 5)],
)
def test_out_of_range_reports_coordinates(bad_value, field_no):
    fields = ["3"] * 10
    fields[field_no - 1] = str(bad_value)
    with pytest.raises(OutOfRangeError) as excinfo:
        parse_responses(";".join(fields) + "\n")
    err = excinfo.value
    assert err.line_no == 1
    assert err.field_no == field_no
    assert str(bad_value) in str(err)
    assert "1" in str(err) and "5" in str(err)


def test_fail_fast_reports_first_error():
    text = "1;2;9;4;5;1;2;3;4;5\n1;2\n"
    with pytest.raises(OutOfRangeError) as excinfo:
        parse_responses(text)
    assert excinfo.value.line_no == 1


def test_first_bad_field_wins_whatever_its_kind():
    # Field 2 is out of range and field 3 is not an integer: field 2 is reported.
    with pytest.raises(OutOfRangeError) as excinfo:
        parse_responses("1;9;x;4;5;1;2;3;4;5\n")
    assert (excinfo.value.line_no, excinfo.value.field_no) == (1, 2)


# Tokens that replace answers; " 3 ", "+5", "05" and "\x1f5" still parse. str.strip
# trims "\x1f" but int() does not, so the parser must strip before converting.
BAD_TOKENS = ["", "0", "6", "x", " 3 ", "1.0", "+5", "05", "\x1f5"]


def expected_outcome(fields, line_no):
    """Oracle: walk the fields in order; the first that is not an integer in 1-5 fails."""
    answers = []
    for field_no, field in enumerate(fields, start=1):
        where = f"line {line_no}, field {field_no}"
        token = field.strip()
        try:
            value = int(token)
        except ValueError:
            return NotAnIntegerError, line_no, field_no, f"{where}: not an integer: {token!r}"
        if not 1 <= value <= 5:
            return OutOfRangeError, line_no, field_no, f"{where}: value {value} outside 1-5"
        answers.append(value)
    return tuple(answers)


@given(
    row=st.lists(st.sampled_from("12345"), min_size=10, max_size=10),
    corruptions=st.lists(
        st.tuples(st.integers(0, 9), st.sampled_from(BAD_TOKENS)), min_size=1, max_size=3
    ),
)
def test_corrupted_fields_match_in_order_oracle(row, corruptions):
    fields = list(row)
    for index, token in corruptions:
        fields[index] = token
    text = GOOD_LINE + "\n" + ";".join(fields) + "\n"
    try:
        outcome = parse_responses(text).rows[1].answers
    except ParseError as err:
        outcome = type(err), err.line_no, err.field_no, str(err)
    assert outcome == expected_outcome(fields, line_no=2)


def test_header_line_is_an_error_not_skipped():
    text = "q1;q2;q3;q4;q5;q6;q7;q8;q9;q10\n" + GOOD_LINE + "\n"
    with pytest.raises(NotAnIntegerError) as excinfo:
        parse_responses(text)
    assert excinfo.value.line_no == 1
    assert excinfo.value.field_no == 1


def test_delimiter_override():
    text = GOOD_LINE.replace(";", ",") + "\n"
    report = parse_responses(text, delimiter=",")
    assert report.rows[0].answers == (1, 2, 3, 4, 5, 1, 2, 3, 4, 5)


def test_error_line_numbers_count_blank_lines():
    text = "\n\n" + "1;2\n"
    with pytest.raises(BadFieldCountError) as excinfo:
        parse_responses(text)
    assert excinfo.value.line_no == 3


def test_load_skips_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "excel.csv"
    path.write_bytes(b"\xef\xbb\xbf" + GOOD_LINE.encode() + b"\r\n")
    report = load_responses(path)
    assert report.rows[0].answers == (1, 2, 3, 4, 5, 1, 2, 3, 4, 5)


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_responses(tmp_path / "absent.csv")


def test_load_tags_parse_errors_with_path(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("1;2;3\n", encoding="utf-8")
    with pytest.raises(BadFieldCountError) as excinfo:
        load_responses(path)
    err = excinfo.value
    assert err.source == str(path)
    assert str(path) in str(err)
    assert "line 1" in str(err)


def test_parse_error_message_shape():
    err = ParseError("boom", line_no=4, field_no=2)
    err.source = "f.csv"
    assert str(err) == "f.csv: line 4, field 2: boom"


def test_parse_error_message_without_source():
    err = ParseError("boom", line_no=4)
    assert str(err) == "line 4: boom"


class TestResponseRow:
    def test_valid(self):
        row = ResponseRow((1, 2, 3, 4, 5, 5, 4, 3, 2, 1))
        assert row.answers[4] == 5

    def test_rejects_short_tuple(self):
        with pytest.raises(ValueError):
            ResponseRow((1, 2, 3))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ResponseRow((1, 2, 3, 4, 6, 1, 2, 3, 4, 5))

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            ResponseRow((1, 2, 3, 4, "5", 1, 2, 3, 4, 5))

    def test_frozen(self):
        row = ResponseRow((3,) * 10)
        with pytest.raises(AttributeError):
            row.answers = (1,) * 10

    def test_rejects_new_attribute(self):
        row = ResponseRow((3,) * 10)
        # TypeError, not FrozenInstanceError: dataclass rebuilds a slotted class, and the
        # generated frozen __setattr__ still calls super() with the class it replaced.
        with pytest.raises((FrozenInstanceError, TypeError)):
            row.extra = 1
        assert not hasattr(row, "extra")
