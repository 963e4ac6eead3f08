"""Output oracle for the suskit benchmark, written from the published spec.

Nothing here imports or calls ``suskit``: scores are summed per item
from the generator's known answers, bands come from the threshold table
of the spec, and statistics are exact ``Fraction`` arithmetic over the
41 possible score codes. A score is ``2.5 * k`` with the integer code
``k`` in 0..40. Every ``check_*`` function returns a list of problems,
empty when the output is right.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

CODES = 41
ITEMS = 10

# Lower bound of each band -> label, lowest band first.
BANDS = {
    "acceptability": ((0, "NOT ACCEPTABLE"), (50, "LOW MARGINAL"), (62.5, "HIGH MARGINAL"),
                      (70, "ACCEPTABLE")),
    "grade": ((0, "F"), (60, "D"), (70, "C"), (80, "B"), (90, "A")),
    "adjective": ((0, "WORST IMAGINABLE"), (25, "POOR"), (39, "OK"), (52, "GOOD"),
                  (73, "EXCELLENT"), (85, "BEST IMAGINABLE")),
}
DIMENSIONS = tuple(BANDS)
# Report and chart order of the labels: grades best first, the rest lowest first.
ORDER = {
    "acceptability": [label for _, label in BANDS["acceptability"]],
    "grade": [label for _, label in reversed(BANDS["grade"])],
    "adjective": [label for _, label in BANDS["adjective"]],
}
HEADINGS = {"acceptability": "Acceptability", "grade": "Grades", "adjective": "Adjectives"}
_SINGLE_NAMES = {"acceptability": "Acceptability", "grade": "Grade", "adjective": "Adjective"}
HISTOGRAM_LABELS = [f"{10 * i}-{10 * (i + 1)}" for i in range(10)]

# Fixed column widths of the golden report layout.
_PAIR_WIDTH = 20
_SUMMARY_WIDTH = 15
_STAT_NAMES = ("Mean", "Standard Deviation", "First Quartile (Q1)", "Median (Q2)",
               "Third Quartile (Q3)")
_DECIMAL2 = re.compile(r"-?\d+\.\d\d")


def contribution(item: int, answer: int) -> int:
    """Points of one answer: odd (1-based) items give answer-1, even items 5-answer."""
    return answer - 1 if item % 2 else 5 - answer


def partial_code(answers, first_item: int) -> int:
    return sum(contribution(item, answer) for item, answer in enumerate(answers, first_item))


def code(answers) -> int:
    """Score code ``k`` of one full response (score = 2.5 * k)."""
    if len(answers) != ITEMS:
        raise ValueError(f"expected {ITEMS} answers, got {len(answers)}")
    return partial_code(answers, 1)


def split_answers(line: str, delimiter: str) -> tuple[int, ...]:
    return tuple(int(field) for field in line.split(delimiter))


def label(dimension: str, k: int) -> str:
    score = 2.5 * k
    return [name for lower, name in BANDS[dimension] if score >= lower][-1]


def histogram_bin(k: int) -> int:
    return min(int(2.5 * k // 10), 9)


_SCORE1 = [f"{2.5 * k:.1f}" for k in range(CODES)]
_SCORE2 = [f"{2.5 * k:.2f}" for k in range(CODES)]
_LABELS = {dimension: [label(dimension, k) for k in range(CODES)] for dimension in DIMENSIONS}
_SUMMARY = [(_SCORE2[k],) + tuple(_LABELS[d][k] for d in DIMENSIONS) for k in range(CODES)]


def _pair(line: str) -> tuple[str, str]:
    return line[:_PAIR_WIDTH].rstrip(), line[_PAIR_WIDTH:].rstrip()


def _summary_cells(line: str) -> tuple[str, ...]:
    w = _SUMMARY_WIDTH
    return tuple(line[i:i + w].rstrip() for i in range(0, 3 * w, w)) + (line[3 * w:].rstrip(),)


def first_difference(got: list, want: list) -> str:
    for index, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"row {index + 1}: got {a!r}, want {b!r}"
    return f"got {len(got)} rows, want {len(want)}"


def exact_stats(codes: bytes) -> dict[str, Fraction | float]:
    """Mean, sample standard deviation and type-7 quartiles, exact except the sqrt."""
    n = len(codes)
    counts = [codes.count(k) for k in range(CODES)]
    total = sum(k * c for k, c in enumerate(counts))
    squares = sum(k * k * c for k, c in enumerate(counts))
    ordered = bytes(sorted(codes))

    def quantile(p: Fraction) -> Fraction:
        h = p * (n - 1)
        low = math.floor(h)
        if h == low:
            return Fraction(ordered[low])
        return ordered[low] + (h - low) * (ordered[low + 1] - ordered[low])

    half = Fraction(5, 2)
    return {
        "Mean": half * Fraction(total, n),
        "Standard Deviation": math.sqrt(half * half * Fraction(n * squares - total * total,
                                                                n * (n - 1))),
        "First Quartile (Q1)": half * quantile(Fraction(1, 4)),
        "Median (Q2)": half * quantile(Fraction(1, 2)),
        "Third Quartile (Q3)": half * quantile(Fraction(3, 4)),
    }


def check_stats_rows(rows: list[str], codes: bytes) -> list[str]:
    problems = []
    exact = exact_stats(codes)
    got = [_pair(row) for row in rows]
    if [name for name, _ in got] != list(_STAT_NAMES):
        return [f"statistics rows {got!r}"]
    for name, text in got:
        # Two printed decimals: off by at most half a unit in the last place.
        if not _DECIMAL2.fullmatch(text) or abs(float(text) - float(exact[name])) > 0.005 + 1e-9:
            problems.append(f"{name}: got {text!r}, exact {float(exact[name])!r}")
    return problems


def frequencies(codes: bytes, dimension: str) -> list[tuple[str, int]]:
    counts = dict.fromkeys(ORDER[dimension], 0)
    for k in range(CODES):
        counts[_LABELS[dimension][k]] += codes.count(k)
    return list(counts.items())


def check_report(text: str, codes: bytes) -> list[str]:
    """Check a report against the codes it was made from (single or multi-response)."""
    if len(codes) == 1:
        k = codes[0]
        want = [("SUS Value", _SCORE2[k])] + [(_SINGLE_NAMES[d], _LABELS[d][k]) for d in DIMENSIONS]
        got = [_pair(line) for line in text.split("\n")]
        if got != want + [("", "")]:
            return [f"single report {got!r}, want {want!r}"]
        return []
    blocks = text.split("\n\n\n")
    if len(blocks) != 6 or not blocks[-1].endswith("\n\n"):
        return [f"report has {len(blocks)} blocks"]
    blocks = [block.split("\n") for block in blocks]
    blocks[-1] = blocks[-1][:-2]
    problems = []
    values, stats, *tables, summary = blocks
    if values[:2] != ["SUS values", "-" * 11]:
        problems.append(f"score block header {values[:2]!r}")
    want_values = [_SCORE1[k] for k in codes]
    if values[2:] != want_values:
        problems.append("score block " + first_difference(values[2:], want_values))
    if _pair(stats[0]) != ("Statistic", "Value") or set(stats[1]) != {"-"}:
        problems.append(f"statistics header {stats[:2]!r}")
    problems += check_stats_rows(stats[2:], codes)
    for dimension, table in zip(DIMENSIONS, tables):
        want = [(HEADINGS[dimension], "Number")] + [
            (name, str(count)) for name, count in frequencies(codes, dimension)]
        got = [_pair(table[0])] + [_pair(line) for line in table[2:]]
        if got != want or set(table[1]) != {"-"}:
            problems.append(f"{dimension} table {got!r}, want {want!r}")
    if (_summary_cells(summary[0]) != ("SUS Value", "Acceptability", "Grade", "Adjective")
            or set(summary[1]) != {"-"}):
        problems.append(f"summary header {summary[:2]!r}")
    cells = {line: _summary_cells(line) for line in set(summary[2:])}
    got_rows = [cells[line] for line in summary[2:]]
    want_rows = [_SUMMARY[k] for k in codes]
    if got_rows != want_rows:
        problems.append("summary " + first_difference(got_rows, want_rows))
    return problems


_SVG_TOTAL = re.compile(r'<svg [^>]*data-kind="([^"]*)" data-total="(\d+)"')
_SVG_BAR = re.compile(r'<rect class="bar" data-label="([^"]*)" data-count="(\d+)"')


def check_chart(svg: str, kind: str, codes: bytes) -> list[str]:
    """Check the ``data-kind``/``data-total`` root and each bar's ``data-count``."""
    if kind == "histogram":
        counts = [0] * 10
        for k in range(CODES):
            counts[histogram_bin(k)] += codes.count(k)
        want = list(zip(HISTOGRAM_LABELS, counts))
    else:
        want = frequencies(codes, kind)
    root = _SVG_TOTAL.search(svg)
    got = [(name, int(count)) for name, count in _SVG_BAR.findall(svg)]
    problems = []
    if root is None or root.groups() != (kind, str(len(codes))):
        problems.append(f"{kind} chart root {root and root.groups()!r}")
    if got != want:
        problems.append(f"{kind} chart bars {got!r}, want {want!r}")
    if not svg.endswith("</svg>\n"):
        problems.append(f"{kind} chart is truncated")
    return problems


def rejection_fragment(error: tuple[str, int | None, int | None]) -> str:
    """The part of the diagnostic that names what is wrong and where."""
    kind, line, field = error
    if kind == "fields":
        return f": line {line}: expected {ITEMS} fields, found "
    if kind == "integer":
        return f": line {line}, field {field}: not an integer: "
    if kind in ("low", "high"):
        return f": line {line}, field {field}: value "
    if kind == "empty":
        return ": no response rows found"
    return ""  # missing file: the OS message, checked through the path


def check_rejection(path: str, error, exit_code, stdout_bytes: int, stderr: str) -> list[str]:
    """A malformed input must exit 1 with one ``suskit: <path>...`` line and no stdout."""
    problems = []
    if exit_code != 1:
        problems.append(f"{path}: exit code {exit_code!r}, want 1")
    if stdout_bytes:
        problems.append(f"{path}: {stdout_bytes} bytes on stdout, want none")
    if not (stderr.startswith("suskit: ") and path in stderr and stderr.count("\n") == 1
            and rejection_fragment(error) in stderr):
        problems.append(f"{path}: diagnostic {stderr!r} lacks {rejection_fragment(error)!r}")
    return problems
