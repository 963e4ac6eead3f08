"""Command-line behavior: subcommands, outputs, exit codes, diagnostics."""

from __future__ import annotations

import io
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import suskit.__main__
from suskit import load_responses, write_report
from suskit.cli import CHART_KINDS, _read_argv, build_parser, main

GOOD_LINE = "5;2;5;1;4;1;5;1;4;2"


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_score_prints_one_score_per_row(capsys, sample_path, sample_scores):
    code, out, err = run_cli(capsys, "score", str(sample_path))
    assert code == 0
    assert err == ""
    assert out.splitlines() == [f"{score:.1f}" for score in sample_scores]


def test_report_stdout_matches_golden(capsys, tmp_path, monkeypatch, sample_path, golden_report):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "report", str(sample_path))
    assert code == 0
    assert err == ""
    assert out == golden_report
    assert (tmp_path / "results.txt").read_bytes() == golden_report.encode("utf-8")


def test_report_output_flag(capsys, tmp_path, sample_path, golden_report):
    target = tmp_path / "custom.txt"
    code, out, _ = run_cli(capsys, "report", str(sample_path), "--output", str(target))
    assert code == 0
    assert target.read_bytes() == golden_report.encode("utf-8")
    assert out == golden_report


def test_report_single_response_layout(capsys, tmp_path):
    source = tmp_path / "one.csv"
    source.write_text(GOOD_LINE + "\n", encoding="utf-8")
    out_path = tmp_path / "one.txt"
    code, out, _ = run_cli(capsys, "report", str(source), "--output", str(out_path))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("SUS Value")
    assert "90.00" in lines[0]
    assert lines[1].rstrip() == "Acceptability       ACCEPTABLE"
    assert lines[2].rstrip() == "Grade               A"
    assert lines[3].rstrip() == "Adjective           BEST IMAGINABLE"
    assert out_path.read_text(encoding="utf-8") == out


def test_chart_default_filename(capsys, tmp_path, monkeypatch, sample_path):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "chart", "histogram", str(sample_path))
    assert code == 0
    assert out == ""
    assert (tmp_path / "histogram.svg").exists()


def test_chart_output_flag_and_semantics(capsys, tmp_path, sample_path):
    target = tmp_path / "grades.svg"
    code, _, _ = run_cli(capsys, "chart", "grade", str(sample_path), "--output", str(target))
    assert code == 0
    root = ET.fromstring(target.read_text(encoding="utf-8"))
    ns = "{http://www.w3.org/2000/svg}"
    bars = [el for el in root.iter(f"{ns}rect") if el.get("class") == "bar"]
    assert [(b.get("data-label"), b.get("data-count")) for b in bars] == [
        ("A", "11"), ("B", "6"), ("C", "0"), ("D", "0"), ("F", "3"),
    ]
    assert root.get("data-kind") == "grade"


@pytest.mark.parametrize("kind", ["histogram", "acceptability", "grade", "adjective"])
def test_all_chart_kinds_render(capsys, tmp_path, sample_path, kind):
    # The golden files pin every coordinate, tick, stroke and font size, not only the bars.
    target = tmp_path / f"{kind}.svg"
    code, _, _ = run_cli(capsys, "chart", kind, str(sample_path), "--output", str(target))
    assert code == 0
    assert target.read_bytes() == sample_path.with_name(f"sample20_{kind}.svg").read_bytes()


def test_missing_input_file(capsys, tmp_path):
    missing = tmp_path / "absent.csv"
    code, out, err = run_cli(capsys, "score", str(missing))
    assert code == 1
    assert out == ""
    assert str(missing) in err
    assert err.startswith("suskit:")


@pytest.mark.parametrize(
    "argv",
    [["score", ""], ["report", "SAMPLE", "--output", ""], ["chart", "grade", "SAMPLE", "--output", ""]],
    ids=["score", "report", "chart"],
)
def test_empty_path_is_not_the_current_directory(capsys, sample_path, argv):
    # An empty path names no file; as a Path it would be ".", the current directory.
    argv = [str(sample_path) if arg == "SAMPLE" else arg for arg in argv]
    assert run_cli(capsys, *argv) == (1, "", "suskit: [Errno 2] No such file or directory: ''\n")


def test_integer_path_is_not_a_file_descriptor():
    # open() takes an int as a file descriptor, which it would use and then close.
    read_fd, write_fd = os.pipe()
    os.set_blocking(read_fd, False)  # a read from the empty pipe fails instead of waiting
    try:
        with pytest.raises(TypeError):
            write_report("5.0\n", write_fd)
        with pytest.raises(TypeError):
            load_responses(read_fd)
        for fd in (read_fd, write_fd):
            os.fstat(fd)  # still open
    finally:
        os.close(read_fd)
        os.close(write_fd)
    # The empty path keeps its diagnostic.
    with pytest.raises(FileNotFoundError, match="''"):
        load_responses("")
    with pytest.raises(FileNotFoundError, match="''"):
        write_report("5.0\n", "")


def test_path_tokens_read_as_their_str(capsys, tmp_path, sample_path):
    # A library caller may pass path-like tokens, as load_responses and write_report take.
    for argv in (["score", sample_path], ["score", sample_path, "--delimiter=;"],
                 ["score", os.fsencode(sample_path)],
                 ["report", sample_path, "--output", tmp_path / "report.txt"],
                 ["chart", "grade", sample_path, "--output", tmp_path / "grade.svg"]):
        expected = run_cli(capsys, *map(os.fsdecode, argv))
        assert expected[0] == 0
        assert run_cli(capsys, *argv) == expected
    # A token that is neither a str nor path-like raises before any output.
    with pytest.raises(TypeError):
        main(["report", 3, "--output", str(tmp_path / "int.txt")])
    assert capsys.readouterr() == ("", "")
    assert not (tmp_path / "int.txt").exists()


def test_parse_error_diagnostic_has_coordinates(capsys, tmp_path):
    source = tmp_path / "bad.csv"
    source.write_text("1;2;3;4;5;1;2;3;4\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "score", str(source))
    assert code == 1
    assert out == ""
    assert "line 1" in err
    assert "expected 10 fields, found 9" in err
    assert str(source) in err


def test_out_of_range_diagnostic(capsys, tmp_path):
    source = tmp_path / "range.csv"
    source.write_text(GOOD_LINE + "\n1;2;3;4;5;6;2;3;4;5\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "score", str(source))
    assert code == 1
    assert "line 2, field 6" in err
    assert "6" in err


def test_non_utf8_file_diagnostic(capsys, tmp_path):
    source = tmp_path / "latin1.csv"
    source.write_bytes(GOOD_LINE.encode() + b"\n5;2;5;1;4;1;5;1;4;\xe92\n")
    code, out, err = run_cli(capsys, "score", str(source))
    assert code == 1
    assert out == ""
    assert err.startswith(f"suskit: {source}: line 2: not valid UTF-8")
    assert err.count("\n") == 1


def test_empty_file_diagnostic(capsys, tmp_path):
    source = tmp_path / "empty.csv"
    source.write_text("", encoding="utf-8")
    code, _, err = run_cli(capsys, "report", str(source))
    assert code == 1
    assert "no response rows found" in err


def test_delimiter_override(capsys, tmp_path):
    source = tmp_path / "commas.csv"
    source.write_text(GOOD_LINE.replace(";", ",") + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "score", str(source), "--delimiter", ",")
    assert code == 0
    assert out == "90.0\n"


def test_multichar_delimiter_rejected(capsys, sample_path):
    code, _, err = run_cli(capsys, "score", str(sample_path), "--delimiter", ";;")
    assert code == 2
    assert "single character" in err


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run_cli(capsys, "frobnicate", "x.csv")
    assert code == 2


def test_missing_subcommand_exits_2(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2


def test_unknown_chart_kind_exits_2(capsys, sample_path):
    code, _, err = run_cli(capsys, "chart", "pie", str(sample_path))
    assert code == 2
    assert "invalid choice" in err


def test_help_exits_0(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "score" in out and "report" in out and "chart" in out


# What argparse prints for each help and for one usage error, at 80 columns. Generated from
# this same transcript; a deliberate change of a help text or option rewrites it.
HELP_TRANSCRIPT = Path(__file__).parent / "data" / "cli_help.txt"


def test_help_and_usage_match_the_committed_transcript(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    transcript = ""
    for argv in (["--help"], ["score", "--help"], ["report", "--help"], ["chart", "--help"],
                 ["report", "in.csv", "--delimiter", ";;"]):
        code, out, err = run_cli(capsys, *argv)
        transcript += f"$ suskit {' '.join(argv)}\n[exit {code}]\n[stdout]\n{out}[stderr]\n{err}"
    assert transcript == HELP_TRANSCRIPT.read_text(encoding="utf-8")


def test_report_write_failure(capsys, tmp_path, sample_path):
    target = tmp_path / "nodir" / "out.txt"
    code, out, err = run_cli(capsys, "report", str(sample_path), "--output", str(target))
    assert code == 1
    assert err.startswith("suskit:")
    # The file is written first, so a failed write prints no report.
    assert out == ""


def test_chart_write_failure(capsys, tmp_path, sample_path):
    target = tmp_path / "nodir" / "chart.svg"
    code, _, err = run_cli(capsys, "chart", "grade", str(sample_path), "--output", str(target))
    assert code == 1
    assert err.startswith("suskit:")


def test_calls_in_one_process_share_no_state(
    capsys, tmp_path, monkeypatch, sample_path, sample_scores, golden_report
):
    # No option may leak from one call into the next.
    monkeypatch.chdir(tmp_path)
    sample_out = "".join(f"{score:.1f}\n" for score in sample_scores)
    commas = tmp_path / "commas.csv"
    commas.write_text(GOOD_LINE.replace(";", ",") + "\n", encoding="utf-8")
    assert run_cli(capsys, "score", str(commas), "--delimiter", ",") == (0, "90.0\n", "")
    assert run_cli(capsys, "score", str(sample_path)) == (0, sample_out, "")

    target = tmp_path / "grades.svg"
    assert run_cli(capsys, "chart", "grade", str(sample_path), "--output", str(target))[0] == 0
    grades = target.read_bytes()
    assert run_cli(capsys, "chart", "histogram", str(sample_path)) == (0, "", "")
    assert (tmp_path / "histogram.svg").read_text(encoding="utf-8").startswith("<svg ")
    assert target.read_bytes() == grades

    assert run_cli(capsys, "report", str(sample_path), "--delimiter", ";;")[0] == 2
    assert run_cli(capsys, "report", str(sample_path)) == (0, golden_report, "")
    assert (tmp_path / "results.txt").read_bytes() == golden_report.encode("utf-8")

    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "score", str(sample_path)) == (0, sample_out, "")


def test_module_entry_point(sample_path, sample_scores):
    result = subprocess.run(
        [sys.executable, "-m", "suskit", "score", str(sample_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == f"{sample_scores[0]:.1f}"


# The tree the suskit under test comes from, for subprocesses started with -S.
SUSKIT_TREE = str(Path(suskit.__file__).resolve().parents[1])


def test_report_runs_without_site_packages(tmp_path, sample_path, golden_report):
    # -S leaves site-packages off the path: the runtime needs the standard library only.
    target = tmp_path / "report.txt"
    result = subprocess.run(
        [sys.executable, "-S", "-m", "suskit", "report", str(sample_path), "--output", str(target)],
        capture_output=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": SUSKIT_TREE},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == golden_report.encode("utf-8")
    assert target.read_bytes() == golden_report.encode("utf-8")


@pytest.fixture(scope="module")
def modules_loaded_by_cli_import() -> set[str]:
    """The modules in a fresh interpreter's sys.modules after ``import suskit.cli``."""
    result = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, suskit.cli; print(*sorted(sys.modules))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SUSKIT_TREE},
    )
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "suskit.cli" in loaded
    return loaded


@pytest.mark.parametrize("module", [
    # xml.sax.saxutils imports these, and they took longer to load than the CLI itself.
    "xml.sax", "urllib.request", "http.client", "email",
    # The aggregates need only integer sums over counts; statistics also loads random.
    "statistics",
    # suskit takes its abstract types from collections.abc.
    "typing",
    # Paths are annotated as os.PathLike; pathlib also loads urllib and ipaddress.
    "pathlib",
    # The records are named tuples: dataclasses imports inspect, which loads ast, dis and tokenize.
    "dataclasses", "inspect", "ast", "dis", "tokenize",
    # The report rounds to two decimals on integers.
    "decimal",
    # A well-formed command is read without argparse, which also loads gettext and locale.
    "argparse", "gettext", "locale",
])
def test_cli_import_loads_no(module, modules_loaded_by_cli_import):
    assert module not in modules_loaded_by_cli_import


def test_declared_console_script_is_module_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts["suskit"] == "suskit.cli:main"
    assert suskit.__main__.main is main


@pytest.mark.skipif(
    shutil.which("suskit") is None,
    reason="console script 'suskit' is not installed on PATH; run `pip install -e .` first",
)
def test_console_script_on_path(sample_path):
    result = subprocess.run(
        ["suskit", "score", str(sample_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1] == "5.0"


def test_well_formed_command_runs_without_argparse(tmp_path, monkeypatch, sample_path, golden_report):
    env = {**os.environ, "PYTHONPATH": SUSKIT_TREE, "COLUMNS": "80"}
    target = tmp_path / "report.txt"
    # -X importtime lists on stderr every module the run imports, one per line after a header.
    result = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "suskit", "report", str(sample_path),
         "--output", str(target)],
        capture_output=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == target.read_bytes() == golden_report.encode("utf-8")
    imported = {line.rsplit("|", 1)[1].strip() for line in result.stderr.decode().splitlines()[1:]}
    assert "suskit.cli" in imported
    assert imported.isdisjoint({"argparse", "gettext", "locale"})
    # Any other argv is argparse's, help included.
    result = subprocess.run([sys.executable, "-S", "-m", "suskit", "--help"],
                            capture_output=True, text=True, env=env)
    monkeypatch.setenv("COLUMNS", "80")
    assert (result.returncode, result.stdout, result.stderr) == (0, build_parser().format_help(), "")


# Tokens for argv: commands, kinds, options in full, abbreviated and with "=", "-"-led
# paths and values, and delimiters of every length.
argv_tokens = st.sampled_from([
    "score", "report", "chart", *CHART_KINDS, "pie", "--delimiter", "--output", "--out",
    "--delim", "--output=x.txt", "--delimiter=,", "--kind", "--input", "--", "-", "-h",
    "--help", "-x.csv", "-5", "in.csv", "out.svg", "", ",", ";", "\t", ",,", ";;;", "a b",
])
# A command and its positionals, then (option, value) pairs, each part mostly well-formed.
shaped_argv = st.builds(
    lambda head, positional, options: [*head, positional, *(t for pair in options for t in pair)],
    st.sampled_from([["score"], ["report"], *(["chart", kind] for kind in CHART_KINDS)]),
    st.sampled_from(["in.csv", "a b", ""]) | argv_tokens,
    st.lists(st.tuples(st.sampled_from(["--delimiter", "--output"]),
                       st.sampled_from([",", "\t", "out.txt"])) | st.tuples(argv_tokens, argv_tokens),
             max_size=2, unique_by=lambda pair: pair[0]),
)


@given(argv=st.one_of(shaped_argv, st.lists(argv_tokens, max_size=7)))
def test_argv_reader_agrees_with_argparse(argv):
    try:
        with redirect_stderr(io.StringIO()), redirect_stdout(io.StringIO()):  # usage and help
            expected = vars(build_parser().parse_args(argv))
    except SystemExit:
        expected = None
    fast = _read_argv(argv)
    assert fast is None or fast == expected
