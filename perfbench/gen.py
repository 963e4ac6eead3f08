"""Seeded input generators for the suskit benchmark.

Every generator is a pure function of its seed: the same seed writes the
same bytes. Each generated file comes back as an :class:`Input` that
records what the oracle needs (the score code ``k`` of every row, and the
error a malformed file must produce) plus the facts printed with every
result (rows, blank lines, bytes, SHA-256), so two runs can be shown to
have read identical inputs.

Score codes are drawn uniformly over all 41 values ``k`` in 0..40 (score
``2.5 * k``), so every band of every dimension is exercised. A row is
built from two halves of five answers each whose contributions add up to
the drawn ``k``, so lines stay diverse rather than repeating a few
templates.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

import oracle

LARGE_ROWS = 200_000
SURVEYS = 1000
SURVEY_MAX_ROWS = 100
# Shares of the small-survey workload, in surveys per 1000.
SINGLE_PER_MILLE = 50
MALFORMED_PER_MILLE = 50
MESSY_PER_MILLE = 100
MESSY_BLANK_EVERY = 9  # one blank line per nine rows: 10% of physical lines
MESSY_PAD_SHARE = 0.3

# One entry per C8 error kind, cycled through by the malformed surveys.
ERROR_KINDS = ("fields", "integer", "low", "high", "empty", "missing")

_HALF = 5
_HALF_MAX = 4 * _HALF


@dataclass
class Input:
    """One generated input file and what the oracle knows about it.

    ``codes`` holds the score code of each valid row in order, up to the
    first malformed line.
    ``error`` is None for a valid file, else ``(kind, line, field)`` with
    1-based coordinates (``None`` where the diagnostic names none).
    """

    path: Path
    codes: bytes
    blank_lines: int
    physical_lines: int
    size: int
    sha256: str
    error: tuple[str, int | None, int | None] | None = None

    @property
    def rows(self) -> int:
        """Non-blank lines, including any after a malformed one."""
        return self.physical_lines - self.blank_lines

    def describe(self) -> dict:
        return {
            "file": self.path.name,
            "rows": self.rows,
            "blank_lines": self.blank_lines,
            "bytes": self.size,
            "sha256": self.sha256,
        }


class _Halves:
    """All 5^5 answer tuples of items 1-5 and of items 6-10, grouped by contribution."""

    def __init__(self):
        tuples = list(itertools.product(range(1, 6), repeat=_HALF))
        self.answers = tuples
        self.text = [";".join(map(str, answers)) for answers in tuples]
        self.by_sum = []
        for first_item in (1, 1 + _HALF):
            groups = [[] for _ in range(_HALF_MAX + 1)]
            for index, answers in enumerate(tuples):
                groups[oracle.partial_code(answers, first_item)].append(index)
            self.by_sum.append(groups)

    def draw(self, rng: random.Random) -> tuple[int, int, int]:
        """Draw ``(k, first, second)``: a uniform score code and two half indices."""
        k = rng.randrange(oracle.CODES)
        k1 = rng.randint(max(0, k - _HALF_MAX), min(_HALF_MAX, k))
        return k, rng.choice(self.by_sum[0][k1]), rng.choice(self.by_sum[1][k - k1])


@functools.cache
def _halves() -> _Halves:
    return _Halves()


def _write(path: Path, text: str, codes: bytes, blank_lines: int, physical_lines: int,
           error=None) -> Input:
    data = text.encode("utf-8")
    path.write_bytes(data)
    return Input(path, codes, blank_lines, physical_lines, len(data),
                 hashlib.sha256(data).hexdigest(), error)


def _clean_lines(rng: random.Random, rows: int) -> tuple[bytearray, list[str]]:
    """``rows`` well-formed ``;`` lines (no line ending) and their score codes."""
    halves = _halves()
    codes = bytearray()
    lines = []
    for _ in range(rows):
        k, first, second = halves.draw(rng)
        codes.append(k)
        lines.append(f"{halves.text[first]};{halves.text[second]}")
    return codes, lines


def clean_file(path: Path, rows: int, seed: int) -> Input:
    """``rows`` well-formed lines, ``;``-delimited, LF endings, no blank lines."""
    codes, lines = _clean_lines(random.Random(f"clean:{seed}"), rows)
    return _write(path, "".join(line + "\n" for line in lines), bytes(codes), 0, rows)


def _messy_survey(path: Path, rng: random.Random, rows: int) -> Input:
    """``rows`` valid ``;`` lines with CRLF endings, padded fields and blank lines.

    About 30% of fields carry surrounding spaces, and about one physical
    line in ten (at least one per file) is empty or whitespace-only.
    """
    codes, lines = _clean_lines(rng, rows)
    blank_lines = max(1, rows // MESSY_BLANK_EVERY)
    physical = rows + blank_lines
    blank_at = set(rng.sample(range(physical), blank_lines))
    rows_left = iter(lines)
    text = []
    for line_index in range(physical):
        if line_index in blank_at:
            text.append(rng.choice(("", " ", "   ", "\t", " \t ")))
            continue
        fields = next(rows_left).split(";")
        for index, answer in enumerate(fields):
            if rng.random() < MESSY_PAD_SHARE:
                fields[index] = rng.choice((" {} ", " {}", "{} ", "  {}", "{}   ")).format(answer)
        text.append(";".join(fields))
    return _write(path, "".join(line + "\r\n" for line in text), bytes(codes), blank_lines,
                  physical)


def _malformed_line(rng: random.Random, kind: str, line: str) -> tuple[str, int | None]:
    """Corrupt one valid ``;`` line; returns the new line and the field named."""
    fields = line.split(";")
    if kind == "fields":
        if rng.random() < 0.5:
            fields.pop(rng.randrange(len(fields)))
        else:
            fields.insert(rng.randrange(len(fields) + 1), str(rng.randint(1, 5)))
        return ";".join(fields), None
    field = rng.randrange(len(fields))
    fields[field] = rng.choice({
        "integer": ("x", "3.0", "", "five", "2a"),
        "low": ("0", "-1", "-4"),
        "high": ("6", "9", "12"),
    }[kind])
    return ";".join(fields), field + 1


def _survey(path: Path, rng: random.Random, rows: int, error_kind: str | None) -> Input:
    codes, lines = _clean_lines(rng, rows)
    error = None
    if error_kind == "missing":
        return Input(path, b"", 0, 0, 0, "", (error_kind, None, None))
    if error_kind == "empty":
        text = rng.choice(("", "\n", " \n\n", "\t\n \n"))
        data_lines = text.count("\n")
        return _write(path, text, b"", data_lines, data_lines, (error_kind, None, None))
    if error_kind is not None:
        bad = rng.randrange(rows)
        lines[bad], field = _malformed_line(rng, error_kind, lines[bad])
        error = (error_kind, bad + 1, field)
        # Rows after the first bad line are never read.
        codes = codes[:bad]
    return _write(path, "".join(line + "\n" for line in lines), bytes(codes), 0, rows, error)


def surveys(directory: Path, seed: int, golden_csv: Path) -> list[Input]:
    """``SURVEYS`` small survey files: mostly 2-100 rows, some single, some messy, some malformed.

    The bundled 20-response sample is included once, at a seeded position.
    """
    rng = random.Random(f"surveys:{seed}")
    kinds: list[str | None] = []
    for index in range(SURVEYS * MALFORMED_PER_MILLE // 1000):
        kinds.append(ERROR_KINDS[index % len(ERROR_KINDS)])
    kinds += ["single"] * (SURVEYS * SINGLE_PER_MILLE // 1000)
    kinds += ["messy"] * (SURVEYS * MESSY_PER_MILLE // 1000)
    kinds += ["golden"]
    kinds += [None] * (SURVEYS - len(kinds))
    rng.shuffle(kinds)
    inputs = []
    for index, kind in enumerate(kinds):
        path = directory / f"s{index:04d}.csv"
        if kind == "golden":
            text = golden_csv.read_text(encoding="utf-8")
            codes = bytes(oracle.code(oracle.split_answers(line, ";"))
                          for line in text.splitlines() if line.strip())
            inputs.append(_write(path, text, codes, 0, text.count("\n")))
        elif kind == "single":
            inputs.append(_survey(path, rng, 1, None))
        elif kind == "messy":
            inputs.append(_messy_survey(path, rng, rng.randint(2, SURVEY_MAX_ROWS)))
        else:
            inputs.append(_survey(path, rng, rng.randint(2, SURVEY_MAX_ROWS), kind))
    return inputs
