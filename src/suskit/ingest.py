"""Parsing and validation of delimited SUS response files.

The expected format is plain text, one response per line: exactly ten
integers in 1-5 joined by a delimiter (semicolon by default), no header,
no quoting. Validation is fail-fast: the first offending line or field
aborts the parse with 1-based coordinates.
"""

from __future__ import annotations

import os
from collections import namedtuple
from collections.abc import Iterator, Sequence

__all__ = [
    "DEFAULT_DELIMITER", "BadFieldCountError", "EmptyInputError", "NotAnIntegerError", "OutOfRangeError",
    "ParseError", "ParseReport", "ResponseRow", "load_responses", "parse_responses",
]

LIKERT_MIN = 1
LIKERT_MAX = 5
ITEMS_PER_RESPONSE = 10
DEFAULT_DELIMITER = ";"


class ParseError(ValueError):
    """Response data that cannot be turned into valid rows.

    ``line_no`` counts physical input lines and ``field_no`` delimited
    fields within a line, both 1-based. ``source`` holds the file path
    when the data came from a file.
    """

    def __init__(self, message: str, line_no: int | None = None, field_no: int | None = None):
        super().__init__(message)
        self.message = message
        self.line_no = line_no
        self.field_no = field_no
        self.source: str | None = None

    def __str__(self) -> str:
        parts = []
        if self.source is not None:
            parts.append(self.source)
        if self.line_no is not None:
            location = f"line {self.line_no}"
            if self.field_no is not None:
                location += f", field {self.field_no}"
            parts.append(location)
        parts.append(self.message)
        return ": ".join(parts)


class EmptyInputError(ParseError):
    """Input contained no non-blank lines."""

    def __init__(self):
        super().__init__("no response rows found")


class BadFieldCountError(ParseError):
    """A line did not split into exactly ten fields."""

    def __init__(self, line_no: int, found: int):
        super().__init__(f"expected {ITEMS_PER_RESPONSE} fields, found {found}", line_no=line_no)
        self.found = found


class NotAnIntegerError(ParseError):
    """A field was not a base-10 integer."""

    def __init__(self, line_no: int, field_no: int, text: str):
        super().__init__(f"not an integer: {text!r}", line_no=line_no, field_no=field_no)
        self.text = text


class OutOfRangeError(ParseError):
    """An integer field fell outside the 1-5 answer range."""

    def __init__(self, line_no: int, field_no: int, value: int):
        super().__init__(
            f"value {value} outside {LIKERT_MIN}-{LIKERT_MAX}", line_no=line_no, field_no=field_no
        )
        self.value = value


class ResponseRow(namedtuple("ResponseRow", "answers")):
    """One participant's answers to the ten questionnaire items.

    ``answers`` is always a tuple of exactly ten integers in 1-5;
    construction rejects anything else.
    """

    __slots__ = ()

    def __new__(cls, answers: Sequence[int]):
        answers = tuple(answers)
        if len(answers) != ITEMS_PER_RESPONSE:
            raise ValueError(f"expected {ITEMS_PER_RESPONSE} answers, got {len(answers)}")
        for value in answers:
            if not isinstance(value, int) or not LIKERT_MIN <= value <= LIKERT_MAX:
                raise ValueError(f"answer {value!r} outside {LIKERT_MIN}-{LIKERT_MAX}")
        return super().__new__(cls, answers)

    @classmethod
    def _make(cls, fields):  # _replace builds through _make, so it validates too
        return cls(*fields)


class ParseReport(namedtuple("ParseReport", "codes source_line_count")):
    """Validated responses plus the physical line count of the source text.

    ``codes`` holds each row's score code, one byte per row: the summed item
    contributions k in 0-40, so the row's SUS score is 2.5 * k.
    ``source_line_count`` is an ``int``.
    """

    __slots__ = ()


def _score_code(a: Sequence[int]) -> int:
    # Ten answers' summed SUS contributions k in 0-40, the score being 2.5 * k: an
    # odd-numbered item contributes answer - 1, an even-numbered one 5 - answer.
    return a[0] + a[2] + a[4] + a[6] + a[8] - a[1] - a[3] - a[5] - a[7] - a[9] + 20


def _answers(lines: Sequence[str], delimiter: str) -> Iterator[tuple[int, ...]]:
    """Each non-blank line's ten answers; the first bad line or field raises its error."""
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        fields = line.split(delimiter)
        if len(fields) != ITEMS_PER_RESPONSE:
            raise BadFieldCountError(line_no, len(fields))
        answers = []
        for field_no, field in enumerate(fields, start=1):
            # str.strip also trims \x1f, which int() alone would reject.
            token = field.strip()
            try:
                value = int(token)
            except ValueError:
                raise NotAnIntegerError(line_no, field_no, token) from None
            if not LIKERT_MIN <= value <= LIKERT_MAX:
                raise OutOfRangeError(line_no, field_no, value)
            answers.append(value)
        yield tuple(answers)


# An answer digit's contribution as an odd-numbered item (answer - 1), then as an even one.
_CONTRIBUTIONS = bytes.maketrans(b"12345", b"\0\1\2\3\4"), bytes.maketrans(b"12345", b"\4\3\2\1\0")


def _layout_codes(text: str, delimiter: str) -> bytes | None:
    # Each row's code if the text, CRLF and CR read as LF and a final LF added if missing, is
    # rows of ten digits 1-5 joined by the delimiter (one character, neither 1-5 nor a line break)
    # and ended by LF: the walk's lines. Else None. answers[i::10] is item i + 1's column; its
    # contributions, a byte per row, add up as big integers to each row's k <= 40 with no carry.
    if len(delimiter) != 1 or delimiter in "12345" or delimiter.splitlines() != [delimiter]:
        return None
    table = text.replace("\r\n", "\n").replace("\r", "\n")
    table += "" if table.endswith("\n") else "\n"
    rows, rest = divmod(len(table), 20)
    answers = table[::2].encode("ascii", "replace")  # a non-ASCII character becomes "?"
    if rest or table[1::2] != (delimiter * 9 + "\n") * rows or answers.translate(None, b"12345"):
        return None
    columns = (answers[i::10].translate(_CONTRIBUTIONS[i % 2]) for i in range(10))
    return sum(int.from_bytes(column, "big") for column in columns).to_bytes(rows, "big")


def parse_responses(text: str, delimiter: str = DEFAULT_DELIMITER) -> ParseReport:
    """Parse response text into each row's score code.

    Lines end where ``str.splitlines()`` ends them (LF, CRLF, CR and the other
    Unicode boundaries); blank lines are skipped but still count toward error
    line numbers. Surrounding whitespace on a field is trimmed before integer
    conversion.

    Raises a :class:`ParseError` subclass pointing at the first offending
    line/field, or :class:`EmptyInputError` when nothing parseable remains.
    """
    codes = _layout_codes(text, delimiter)
    if codes is not None:
        return ParseReport(codes, len(codes))
    # A text that does not fit the layout, blank lines included, goes to the walk.
    lines = text.splitlines()
    codes = bytes(map(_score_code, _answers(lines, delimiter)))
    if not codes:
        raise EmptyInputError()
    return ParseReport(codes, len(lines))


def load_responses(path: str | os.PathLike[str], delimiter: str = DEFAULT_DELIMITER) -> ParseReport:
    """Read a UTF-8 response file, with or without a byte order mark, and parse it.

    A missing file raises the usual :class:`FileNotFoundError`, an ``int`` path
    ``TypeError``; parse errors, undecodable bytes included, carry the path.
    """
    try:
        with open(os.fspath(path), "rb") as handle:  # an int is no path; Path("") is "."
            text = handle.read().decode("utf-8-sig")
        return parse_responses(text, delimiter=delimiter)
    except UnicodeDecodeError as exc:
        # exc.object lacks any byte order mark; number lines as str.splitlines() does.
        line_no = len((exc.object[: exc.start].decode("utf-8") + "x").splitlines())
        error = ParseError(f"not valid UTF-8: {exc.reason}", line_no=line_no)
    except ParseError as exc:
        error = exc
    error.source = os.fsdecode(path)
    raise error
