"""Replay recorded mutants of suskit against the tests that should kill them.

Each mutant is a set of text patches to one module of a temporary copy of
``src/``. Every patch must match its module exactly once. For each mutant only
the named tests run, with ``PYTHONPATH`` pointing at the mutated copy; a
mutant survives when they all pass. Before any mutant, the named tests must
pass on an unpatched copy, so a kill always means the patch was caught.

Run from anywhere, stdlib only (pytest does not collect this file)::

    python tests/mutants.py

Exit status: 0 when every mutant is killed, 1 when any survives, 2 when a
patch does not apply or the tests fail on the unpatched copy.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # path under src/suskit
    patches: tuple[tuple[str, str], ...]  # (old, new) text, each old found exactly once
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "layout check without its digit-delimiter clause",
        "ingest.py",
        (('or delimiter in "12345" or', "or"),),
        ("tests/test_ingest.py::test_lookup_agrees_with_full_parse",),
    ),
    Mutant(
        "layout check without its line-break delimiter clause",
        "ingest.py",
        ((" or delimiter.splitlines() != [delimiter]:", ":"),),
        ("tests/test_ingest.py::test_lookup_agrees_with_full_parse",),
    ),
    Mutant(
        "layout check leaves CR line ends",
        "ingest.py",
        (('.replace("\\r", "\\n")', ""),),
        ("tests/test_ingest.py::test_clean_files_take_the_layout",),
    ),
    Mutant(
        "layout counting every item as odd-numbered",
        "ingest.py",
        (("_CONTRIBUTIONS[i % 2]", "_CONTRIBUTIONS[0]"),),
        ("tests/test_ingest.py::test_lookup_agrees_with_full_parse",),
    ),
    Mutant(
        "layout column sum read little-endian",
        "ingest.py",
        (('sum(int.from_bytes(column, "big")', 'sum(int.from_bytes(column, "little")'),),
        ("tests/test_ingest.py::test_layout_route_sweeps_every_response",),
    ),
    Mutant(
        "walk without the range check",
        "ingest.py",
        (("if not LIKERT_MIN <= value <= LIKERT_MAX:", "if False:"),),
        ("tests/test_cli.py::test_out_of_range_diagnostic",),
    ),
    Mutant(
        "walk reports the last bad field",
        "ingest.py",
        (
            ("for field_no, field in enumerate(fields, start=1):",
             "for field_no, field in reversed(list(enumerate(fields, start=1))):"),
            ("answers.append(value)", "answers.insert(0, value)"),
        ),
        ("tests/test_ingest.py::test_corrupted_fields_match_in_order_oracle",),
    ),
    Mutant(
        "walk converts fields unstripped",
        "ingest.py",
        (("token = field.strip()", "token = field"),),
        ("tests/test_ingest.py::test_corrupted_fields_match_in_order_oracle",),
    ),
    Mutant(
        "walk builds a ResponseRow per line",
        "ingest.py",
        (("bytes(map(_score_code, _answers(lines, delimiter)))",
          "bytes(_score_code(ResponseRow(a).answers) for a in _answers(lines, delimiter))"),),
        ("tests/test_code_path.py::test_cli_builds_no_row",),
    ),
    Mutant(
        "ParseReport compares by identity",
        "ingest.py",
        (('class ParseReport(namedtuple("ParseReport", "codes source_line_count")):',
          'class ParseReport(namedtuple("ParseReport", "codes source_line_count")):\n'
          "    __eq__, __hash__ = object.__eq__, object.__hash__"),),
        ("tests/test_ingest.py::test_parse_report_compares_by_value",),
    ),
    Mutant(
        "band counts add 1 per distinct score",
        "stats.py",
        (("[0, *accumulate(weights)]", "[0, *accumulate(1 for _ in weights)]"),),
        ("tests/test_properties.py::test_tallies_match_per_row_counts",),
    ),
    Mutant(
        "report statistics without the first score",
        "report.py",
        (("stats = descriptive_stats(scores)", "stats = descriptive_stats(scores[1:])"),),
        ("tests/test_report.py::test_full_report_matches_golden",),
    ),
    Mutant(
        "frequency counts printed as their last two digits",
        "report.py",
        (("_pair_line(label.value, str(count))", "_pair_line(label.value, str(count)[-2:])"),),
        ("tests/test_oracle.py::test_cli_output_agrees_with_oracle",),
    ),
    Mutant(
        "two-decimal ties rounded down",
        "report.py",
        (("cents += 2 * rest >= den", "cents += 2 * rest > den"),),
        ("tests/test_report.py::test_fmt2_rounds_as_decimal",),
    ),
    Mutant(
        "code summaries taken from the next code",
        "report.py",
        (("_summary_line(_score_cells(score)) for score in CODE_SCORES",
          "_summary_line(_score_cells(score + 2.5)) for score in CODE_SCORES"),),
        # Not test_cli_outputs_equal_float_path: hypothesis shrinks this mutant for minutes.
        ("tests/test_acceptance.py::test_c3_byte_exact_golden_report",),
    ),
    Mutant(
        "code square root without the round-to-odd bit",
        "stats.py",
        (("math.ldexp(root | (root * root * den != num), shift)", "math.ldexp(root, shift)"),),
        ("tests/test_code_path.py::test_code_std_is_correctly_rounded",),
    ),
    Mutant(
        "code square root scaled down by too much",
        "stats.py",
        (("(num, den << 2 * shift)", "(num, den << 3 * shift)"),),
        ("tests/test_stats.py::test_sqrt_of_ratio_is_correctly_rounded",),
    ),
    Mutant(
        "code square root marks every root inexact",
        "stats.py",
        (("root | (root * root * den != num)", "root | (root // root * den != num)"),),
        ("tests/test_stats.py::test_sqrt_of_ratio_is_correctly_rounded",),
    ),
    Mutant(
        "common denominator taken from the smallest ratio",
        "stats.py",
        (("scale = max(den for _, den in ratios)", "scale = min(den for _, den in ratios)"),),
        ("tests/test_stats.py::test_sample_statistics",),
    ),
    Mutant(
        "quartile rank found from the left",
        "stats.py",
        (("from bisect import bisect_left, bisect_right",
          "from bisect import bisect_left, bisect_left as bisect_right"),),
        ("tests/test_stats.py::test_quartiles_interpolate_between_order_statistics",),
    ),
    Mutant(
        "quartile interpolation without the overflow fallback",
        "stats.py",
        (("if upper - q < math.inf else q - f * q + f * upper", "if True else None"),),
        ("tests/test_stats.py::test_quartiles_of_far_apart_scores_stay_finite",),
    ),
    Mutant(
        "negative zero counted apart from zero",
        "stats.py",
        (("{score or 0.0: n for", "{score: n for"),),
        ("tests/test_stats.py::test_negative_zero_counts_as_zero",),
    ),
    Mutant(
        "statistics imported by the aggregates",
        "stats.py",
        (("import math\n", "import math\nimport statistics  # noqa: F401\n"),),
        ("tests/test_cli.py::test_cli_import_loads_no[statistics]",),
    ),
    Mutant(
        "band bounds bisected from the left",
        "scoring.py",
        (("from bisect import bisect_right", "from bisect import bisect_left, bisect_right"),
         ("bisect_right(self.bounds, score, 1)", "bisect_left(self.bounds, score, 1)")),
        ("tests/test_scoring.py::test_grade_bands",),
    ),
    Mutant(
        "category labels on the slot edge",
        "charts.py",
        (("label_font, x_labels, shift = 10, labels, 0.5", "label_font, x_labels, shift = 10, labels, 0"),),
        ("tests/test_cli.py::test_all_chart_kinds_render",),
    ),
    Mutant(
        "y-axis ticks drawn past the top",
        "charts.py",
        (("range(0, y_top + 1, tick_step)", "range(0, y_top + 2, tick_step)"),),
        ("tests/test_charts.py::test_tick_step_1_labels_every_count_up_to_the_top",),
    ),
    Mutant(
        "band cut bisected from the right",
        "stats.py",
        (("below[bisect_left(ordered, bound)]", "below[bisect_right(ordered, bound)]"),),
        ("tests/test_properties.py::test_tallies_match_per_row_counts",),
    ),
    Mutant(
        "band cut at the lowest bound",
        "stats.py",
        (("cuts = [0, *[", "cuts = [below[bisect_left(ordered, bounds[0])], *["),),
        ("tests/test_properties.py::test_tallies_outside_0_100",),
    ),
    Mutant(
        "histogram end check without its top",
        "stats.py",
        (("if not 0 <= ordered[0] <= ordered[-1] <= 100:", "if not 0 <= ordered[0]:"),),
        ("tests/test_properties.py::test_tallies_outside_0_100",),
    ),
    Mutant(
        "argv reader accepts a two-character delimiter",
        "cli.py",
        (('_delimiter_arg(args["delimiter"])', '_delimiter_arg(args["delimiter"][:1])'),),
        ("tests/test_cli.py::test_argv_reader_agrees_with_argparse",),
    ),
    Mutant(
        "chart takes report's default output",
        "cli.py",
        (('"output": (None, "SVG file path', '"output": (DEFAULT_REPORT_PATH, "SVG file path'),),
        ("tests/test_cli.py::test_calls_in_one_process_share_no_state",),
    ),
    Mutant(
        "chart frame cache ignores the labels",
        "charts.py",
        (("@lru_cache(maxsize=16)\ndef _frame(",
          "@(lambda f, memo={}: lambda *a: memo.setdefault(a[:2], f(*a)))\ndef _frame("),),
        ("tests/test_charts.py::test_charts_of_one_kind_keep_their_own_labels",),
    ),
)


def _misfits(mutant: Mutant) -> list[str]:
    """One message per patch that does not match its module exactly once."""
    text = (ROOT / "src" / "suskit" / mutant.module).read_text(encoding="utf-8")
    return [f"{mutant.name}: {old!r} found {text.count(old)} times in {mutant.module}"
            for old, _ in mutant.patches if text.count(old) != 1]


def _mutated_copy(mutant: Mutant | None, into: Path) -> Path:
    """Copy src/ into ``into`` and apply the mutant's patches; return the copy."""
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = src / "suskit" / mutant.module
        text = path.read_text(encoding="utf-8")
        for old, new in mutant.patches:
            text = text.replace(old, new)
        path.write_text(text, encoding="utf-8")
    return src


def _tests_pass(src: Path, tests: tuple[str, ...]) -> bool:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    result = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    return result.returncode == 0


def main() -> int:
    misfits = [message for mutant in MUTANTS for message in _misfits(mutant)]
    if misfits:
        print("\n".join(misfits) + "\nevery patch must match exactly once", file=sys.stderr)
        return 2
    named = tuple(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests))
    with tempfile.TemporaryDirectory() as tmp:
        if not _tests_pass(_mutated_copy(None, Path(tmp)), named):
            print("the named tests fail on the unpatched source", file=sys.stderr)
            return 2
    survivors = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            killed = not _tests_pass(_mutated_copy(mutant, Path(tmp)), mutant.tests)
        survivors += not killed
        verdict = "killed" if killed else "SURVIVED"
        print(f"{verdict:<9}{time.perf_counter() - start:6.1f} s  {mutant.name}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
