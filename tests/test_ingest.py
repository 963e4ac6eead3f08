"""Parsing and validation of semicolon-delimited questionnaire files."""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from suskit import (
    BadFieldCountError,
    EmptyInputError,
    NotAnIntegerError,
    OutOfRangeError,
    ParseError,
    ResponseRow,
    ingest,
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


# Delimiters the lookup takes, and answer digits, which it must leave to the parser.
# Line boundaries of str.splitlines ("\x1e", "\x0c", "\x85", "\r") take the lookup too,
# which reads the parser's lines, and miss on every line.
CODE_DELIMITERS = [";", ",", " ", "\t", "1", "5", "\x1e", "\x0c", "\x85", "\r"]
ODD_TOKENS = BAD_TOKENS + ["\x1f", "\x0c", " ", "\x0c3", "3 3"]


@st.composite
def response_files(draw):
    """(file bytes, delimiter): mostly clean lines, some mutated, every C8 error kind."""
    delimiter = draw(st.sampled_from(CODE_DELIMITERS))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        fields = draw(st.lists(st.sampled_from("12345"), min_size=10, max_size=10))
        kind = draw(st.sampled_from(["clean"] * 4 + ["token", "count", "blank", "text"]))
        if kind == "token":
            fields[draw(st.integers(0, 9))] = draw(st.sampled_from(ODD_TOKENS))
        elif kind == "count":
            fields = fields[: draw(st.sampled_from([0, 1, 9]))] + draw(st.sampled_from([[], ["3"]]))
        elif kind == "blank":
            fields = [draw(st.sampled_from(["", " ", "\t", "  \t "]))]
        elif kind == "text":
            fields = [draw(st.text("12345;, \t\r\x0c\x1f\x1e\x85+0x", max_size=25))]
        lines.append(delimiter.join(fields))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    bom = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
    return bom + text.encode("utf-8"), delimiter


def _outcome(path, delimiter):
    try:
        report = load_responses(path, delimiter)
    except ParseError as exc:
        return type(exc), exc.message, exc.line_no, exc.field_no, exc.source
    return report.codes, report.source_line_count, report.rows


@pytest.fixture(scope="module")
def response_file(tmp_path_factory):
    return tmp_path_factory.mktemp("codes") / "responses.csv"


@given(case=response_files())
# A lookup alone would accept each of these; the parser finds the wrong field count.
@example(case=(b"1" * 19 + b"\n", "1"))
@example(case=("\x1e".join("3" * 10).encode() + b"\n", "\x1e"))
@example(case=("\x0c".join("3" * 10).encode() + b"\n", "\x0c"))
@example(case=(b"\xff;1\n", ";"))
def test_lookup_agrees_with_full_parse(response_file, case):
    data, delimiter = case
    response_file.write_bytes(data)
    # Empty lookup tables send every line of the same parse_responses through the walk.
    with mock.patch.object(ingest, "_half_codes", return_value=({}, {})):
        expected = _outcome(response_file, delimiter)
    assert _outcome(response_file, delimiter) == expected
    if isinstance(expected[0], bytes):
        codes, _, rows = expected
        # Odd-numbered items contribute answer - 1, even-numbered ones 5 - answer.
        assert list(codes) == [sum(a - 1 if item % 2 else 5 - a
                                   for item, a in enumerate(row.answers, 1)) for row in rows]


def test_clean_crlf_and_cr_files_take_the_lookup(tmp_path):
    lines = ["1;2;3;4;5;1;2;3;4;5", "5;5;5;5;5;1;1;1;1;1", "3;3;3;3;3;3;3;3;3;3"]
    expected = parse_responses("\n".join(lines) + "\n")
    path = tmp_path / "responses.csv"
    for newline in ("\r\n", "\r"):
        path.write_bytes((newline.join(lines) + newline).encode())
        with mock.patch.object(ingest, "_answers", side_effect=AssertionError("walk")):
            report = load_responses(path)
            assert (report.codes, report.source_line_count) == (expected.codes, 3)
        assert report.rows == expected.rows


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


def test_undecodable_byte_numbered_by_the_parsers_lines(tmp_path):
    path = tmp_path / "mac.csv"
    # CR-only line ends: the bad byte is on line 3 though the file holds no LF.
    path.write_bytes(f"{GOOD_LINE}\r{GOOD_LINE}\r".encode() + b"1;2;3;4;5;1;2;3;4;\xff\r")
    with pytest.raises(ParseError, match="not valid UTF-8") as excinfo:
        load_responses(path)
    assert excinfo.value.line_no == 3
    assert "line 3" in str(excinfo.value)


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
