"""Parsing and validation of delimited SUS response files.

The expected format is plain text, one response per line: exactly ten
integers in 1-5 joined by a delimiter (semicolon by default), no header,
no quoting. Validation is fail-fast: the first offending line or field
aborts the parse with 1-based coordinates.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from pathlib import Path
from typing import Callable, Iterator, Sequence

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


@dataclass(frozen=True, slots=True)
class ResponseRow:
    """One participant's answers to the ten questionnaire items.

    ``answers`` is always a tuple of exactly ten integers in 1-5;
    construction rejects anything else.
    """

    answers: tuple[int, ...]

    def __post_init__(self):
        answers = tuple(self.answers)
        if len(answers) != ITEMS_PER_RESPONSE:
            raise ValueError(f"expected {ITEMS_PER_RESPONSE} answers, got {len(answers)}")
        for value in answers:
            if not isinstance(value, int) or not LIKERT_MIN <= value <= LIKERT_MAX:
                raise ValueError(f"answer {value!r} outside {LIKERT_MIN}-{LIKERT_MAX}")
        object.__setattr__(self, "answers", answers)


@dataclass(frozen=True, eq=False)
class ParseReport:
    """Validated responses plus the physical line count of the source text.

    ``codes`` holds each row's score code, one byte per row: the summed item
    contributions k in 0-40, so the row's SUS score is 2.5 * k. ``rows`` holds
    the rows themselves, built on first read from the validated text.
    """

    codes: bytes
    source_line_count: int
    _rows: Callable[[], tuple[ResponseRow, ...]] = dataclasses.field(repr=False)

    @cached_property
    def rows(self) -> tuple[ResponseRow, ...]:
        return self._rows()


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


@cache
def _half_codes(delimiter: str) -> tuple[dict[str, int], dict[str, int]]:
    # Every valid first half "a;b;c;d;e" and second half ";f;g;h;i;j" of a line -> the summed
    # contributions of its five items (1, 5, 1, 5, 1 and 5, 1, 5, 1, 5 contribute nothing as
    # items 1-5 and 6-10). The walk splits such a line into its ten digits only when the
    # delimiter is one character and not a digit 1-5; for any other, both tables are empty.
    first, second = {}, {}
    if len(delimiter) == 1 and delimiter not in "12345":
        for half in product((1, 2, 3, 4, 5), repeat=5):
            text = delimiter.join(map(str, half))
            first[text] = _score_code((*half, 5, 1, 5, 1, 5))
            second[delimiter + text] = _score_code((1, 5, 1, 5, 1, *half))
    return first, second


def parse_responses(text: str, delimiter: str = DEFAULT_DELIMITER) -> ParseReport:
    """Parse response text into validated rows.

    Lines end where ``str.splitlines()`` ends them (LF, CRLF, CR and the other
    Unicode boundaries); blank lines are skipped but still count toward error
    line numbers. Surrounding whitespace on a field is trimmed before integer
    conversion.

    Raises a :class:`ParseError` subclass pointing at the first offending
    line/field, or :class:`EmptyInputError` when nothing parseable remains.
    """
    # A line the lookup finds is one the walk would read the same way; on any miss the walk
    # reads every line, and skips or reports it.
    lines = text.splitlines()
    first, second = _half_codes(delimiter)
    try:
        codes = bytes([first[line[:9]] + second[line[9:]] for line in lines])
    except KeyError:
        codes = bytes(map(_score_code, _answers(lines, delimiter)))
    if not codes:
        raise EmptyInputError()
    return ParseReport(
        codes, len(lines), lambda: tuple(map(ResponseRow, _answers(text.splitlines(), delimiter)))
    )


def load_responses(path: str | Path, delimiter: str = DEFAULT_DELIMITER) -> ParseReport:
    """Read a UTF-8 response file, with or without a byte order mark, and parse it.

    A missing file raises the usual :class:`FileNotFoundError`; parse
    errors, undecodable bytes included, carry the path in their message.
    """
    try:
        return parse_responses(Path(path).read_bytes().decode("utf-8-sig"), delimiter=delimiter)
    except UnicodeDecodeError as exc:
        # exc.object lacks any byte order mark; number lines as str.splitlines() does.
        line_no = len((exc.object[: exc.start].decode("utf-8") + "x").splitlines())
        error = ParseError(f"not valid UTF-8: {exc.reason}", line_no=line_no)
    except ParseError as exc:
        error = exc
    error.source = str(path)
    raise error
