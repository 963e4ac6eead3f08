"""Command-line interface wiring parsing, scoring, statistics, and output.

Both argv readers take the commands, their options and defaults from one table, _COMMANDS.
main() reads a well-formed command itself (see _read_argv) and builds the argparse parser
(build_parser) only for any other argv, so help and usage errors stay argparse's own.
Every command works on score codes, one byte k per response
(ingest.ParseReport.codes), which the statistics aggregate through their 41 counts.

Exit codes: 0 on success, 1 for data or I/O errors (diagnostic on stderr),
2 for usage errors.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Sequence

from .charts import render_category_chart, render_histogram
from .ingest import DEFAULT_DELIMITER, ParseError, load_responses
from .report import _CODE_VALUES, DEFAULT_REPORT_PATH, render_report, render_single_report, write_report
# classify_each, score_all and descriptive_stats are not called here;
# the benchmark's span tracer looks them up.
from .scoring import CODE_SCORES, DIMENSIONS, classify_each, score_all  # noqa: F401
from .stats import descriptive_stats, frequency_table, histogram_bins  # noqa: F401

CHART_KINDS = ("histogram",) + DIMENSIONS


def _delimiter_arg(text: str) -> str:
    if len(text) != 1:
        from argparse import ArgumentTypeError

        raise ArgumentTypeError("delimiter must be a single character")
    return text


# Each command's help and options, as name: (default, help). Every command also takes an
# input file, after the chart kind for chart.
_DELIMITER = {"delimiter": (DEFAULT_DELIMITER, f"field delimiter (default {DEFAULT_DELIMITER!r})")}
_COMMANDS = {
    "score": ("print one SUS score per response", _DELIMITER),
    "report": ("print the full text report and write it to a file", {**_DELIMITER, "output": (
        DEFAULT_REPORT_PATH, f"report file path (default {DEFAULT_REPORT_PATH})")}),
    "chart": ("write one SVG chart", {**_DELIMITER, "output": (None, "SVG file path (default <kind>.svg)")}),
}
# The options each command takes, with their defaults as the parser sets them.
_COMMAND_OPTIONS = {command: {name: default for name, (default, _) in options.items()}
                    for command, (_, options) in _COMMANDS.items()}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="suskit",
        description="Compute System Usability Scale scores from questionnaire "
        "responses and report on them.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, options) in _COMMANDS.items():
        subparser = subparsers.add_parser(command, help=command_help)
        if command == "chart":
            subparser.add_argument("kind", choices=CHART_KINDS, help="which chart to draw")
        subparser.add_argument("input", help="response file: one response per line, ten integers 1-5")
        for name, (default, option_help) in options.items():
            subparser.add_argument(f"--{name}", default=default, help=option_help,
                                   type=_delimiter_arg if name == "delimiter" else None)
    return parser


def _read_argv(argv: Sequence[str]) -> dict | None:
    """The parser's vars() for a well-formed command, or None to leave argv to the parser.

    Well-formed is ``COMMAND [KIND] INPUT`` and then each of the command's options at
    most once, as ``--name value``, where no token but an option name starts with "-".
    """
    options = _COMMAND_OPTIONS.get(argv[0] if argv else None)
    if options is None:
        return None
    args, rest = {"command": argv[0], **options}, list(argv[1:])
    if argv[0] == "chart":
        if not rest or rest[0] not in CHART_KINDS:
            return None
        args["kind"] = rest.pop(0)
    given = dict(zip(rest[1::2], rest[2::2]))  # a repeated name is counted once
    if len(rest) != 1 + 2 * len(given) or rest[0].startswith("-") or any(
            name[2:] not in options or not name.startswith("--") or value.startswith("-")
            for name, value in given.items()):
        return None
    args.update({name[2:]: value for name, value in given.items()}, input=rest[0])
    try:
        _delimiter_arg(args["delimiter"])
    except Exception:  # argparse.ArgumentTypeError, which the parser reports
        return None
    return args


def _report_text(codes: bytes) -> str:
    if len(codes) == 1:
        return render_single_report(CODE_SCORES[codes[0]])
    return render_report(codes)


def _chart_svg(codes: bytes, kind: str) -> str:
    if kind == "histogram":
        return render_histogram(histogram_bins(codes))
    return render_category_chart(frequency_table(codes, kind))


def main(argv: Sequence[str | bytes | os.PathLike] | None = None) -> int:
    """Run the CLI and return its exit code instead of exiting. An int token raises TypeError."""
    argv = [os.fsdecode(arg) for arg in (sys.argv[1:] if argv is None else argv)]
    args = _read_argv(argv)
    if args is None:
        try:
            args = vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            # argparse exits itself: 2 on usage errors, 0 on --help.
            return exc.code

    try:
        codes = load_responses(args["input"], delimiter=args["delimiter"]).codes
        if args["command"] == "score":
            sys.stdout.write("\n".join(map(_CODE_VALUES.__getitem__, codes)) + "\n")
        elif args["command"] == "report":
            text = _report_text(codes)
            write_report(text, args["output"])  # an unwritable path fails before any output
            sys.stdout.write(text)
        else:
            output = args["output"] if args["output"] is not None else f"{args['kind']}.svg"
            write_report(_chart_svg(codes, args["kind"]), output)
    except (ParseError, OSError) as exc:
        print(f"suskit: {exc}", file=sys.stderr)
        return 1
    return 0
