"""Command-line behavior: subcommands, outputs, exit codes, diagnostics."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import suskit.__main__
from suskit.cli import main

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
    target = tmp_path / f"{kind}.svg"
    code, _, _ = run_cli(capsys, "chart", kind, str(sample_path), "--output", str(target))
    assert code == 0
    assert target.read_text(encoding="utf-8").startswith("<svg ")


def test_missing_input_file(capsys, tmp_path):
    missing = tmp_path / "absent.csv"
    code, out, err = run_cli(capsys, "score", str(missing))
    assert code == 1
    assert out == ""
    assert str(missing) in err
    assert err.startswith("suskit:")


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


def test_report_write_failure(capsys, tmp_path, sample_path):
    target = tmp_path / "nodir" / "out.txt"
    code, out, err = run_cli(capsys, "report", str(sample_path), "--output", str(target))
    assert code == 1
    assert err.startswith("suskit:")
    # The report was still printed before the write was attempted.
    assert out.startswith("SUS values")


def test_chart_write_failure(capsys, tmp_path, sample_path):
    target = tmp_path / "nodir" / "chart.svg"
    code, _, err = run_cli(capsys, "chart", "grade", str(sample_path), "--output", str(target))
    assert code == 1
    assert err.startswith("suskit:")


def test_calls_in_one_process_share_no_state(
    capsys, tmp_path, monkeypatch, sample_path, sample_scores, golden_report
):
    # main() reuses one parser per process, so no option may leak into the next call.
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


def test_report_runs_without_site_packages(tmp_path, sample_path, golden_report):
    # -S leaves site-packages off the path: the runtime needs the standard library only.
    src = Path(__file__).resolve().parents[1] / "src"
    target = tmp_path / "report.txt"
    result = subprocess.run(
        [sys.executable, "-S", "-m", "suskit", "report", str(sample_path), "--output", str(target)],
        capture_output=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == golden_report.encode("utf-8")
    assert target.read_bytes() == golden_report.encode("utf-8")


def test_cli_import_loads_no_network_modules():
    # xml.sax.saxutils imports these, and they took longer to load than the CLI itself.
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, suskit.cli; print(*sorted(sys.modules))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "suskit.cli" in loaded
    assert not loaded & {"xml.sax", "urllib.request", "http.client", "email"}


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
