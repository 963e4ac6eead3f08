"""The CLI checked against the spec oracle, ``perfbench/oracle.py``, on random response files.

The oracle imports no suskit: it scores each response per item and checks whole
reports, charts and rejections from the codes it computed itself.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import oracle
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import suskit
from suskit.cli import main

SAMPLE = Path(__file__).parent / "data" / "sample20.csv"
CHART_KINDS = ("histogram", *oracle.DIMENSIONS)
DELIMITERS = [";", ",", "\t", "|", "\xe9"]
# Padding and blank lines: ASCII space and tab only, never the delimiter itself.
PADS = ["", " ", "\t", "  \t "]
BAD_TOKENS = {"integer": ["x", "3.5", "", "1 2"], "low": ["0", "-1"], "high": ["6", "10"]}

# One draw per row: the ten base-5 digits of an integer, each plus one, are its answers.
answer_rows = st.integers(0, 5**10 - 1).map(
    lambda n: tuple(n // 5**i % 5 + 1 for i in range(9, -1, -1)))
# All-equal files put counts of 100 and more in the frequency tables.
row_lists = st.one_of(
    st.lists(answer_rows, min_size=1, max_size=300),
    st.builds(lambda row, n: [row] * n, answer_rows, st.integers(1, 300)),
)


@st.composite
def response_files(draw):
    """(file bytes, delimiter, codes, error): codes of a good file, or where a bad one fails."""
    delimiter = draw(st.sampled_from(DELIMITERS))
    rows = draw(row_lists)
    pad = draw(st.sampled_from([pad for pad in PADS if delimiter not in pad]))
    pad_every = draw(st.integers(1, 7))  # pad field i of the file when i % pad_every == 0
    blank = draw(st.sampled_from(["", " ", "\t"]))
    blank_every = draw(st.sampled_from([0, 1, 3, 50]))  # a blank line before every nth row
    fault = draw(st.sampled_from([None] * 5 + ["integer", "low", "high", "fields", "empty"]))
    bad_row, bad_field = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 9))

    lines, error = [], None
    for r, answers in enumerate(rows):
        if blank_every and r % blank_every == 0:
            lines.append(blank)
        fields = list(map(str, answers))
        if r == bad_row and fault == "fields":
            if bad_field % 2:
                fields.insert(bad_field, fields[bad_field])  # eleven fields
            else:
                del fields[bad_field]  # nine fields
            error = ("fields", len(lines) + 1, None)
        elif r == bad_row and fault in BAD_TOKENS:
            fields[bad_field] = draw(st.sampled_from(BAD_TOKENS[fault]))
            error = (fault, len(lines) + 1, bad_field + 1)
        lines.append(delimiter.join(pad + field + pad if (10 * r + f) % pad_every == 0 else field
                                    for f, field in enumerate(fields)))
    if fault == "empty":  # blank lines only, or none
        lines, error = [blank] * draw(st.integers(0, 3)), ("empty", None, None)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    bom = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
    codes = None if error else bytes(map(oracle.code, rows))
    return bom + text.encode("utf-8"), delimiter, codes, error


SAMPLE_CODES = bytes(oracle.code(oracle.split_answers(line, ";"))
                     for line in SAMPLE.read_text(encoding="utf-8").splitlines())


def run(argv) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle")


@given(case=response_files())
@example(case=(SAMPLE.read_bytes(), ";", SAMPLE_CODES, None))
def test_cli_output_agrees_with_oracle(workdir, case):
    data, delimiter, codes, error = case
    source = workdir / "responses.csv"
    source.write_bytes(data)
    outputs = {kind: workdir / f"{kind}.svg" for kind in CHART_KINDS}
    outputs["report"] = workdir / "report.txt"
    for path in outputs.values():
        path.unlink(missing_ok=True)
    commands = {"score": ["score"], "report": ["report", "--output", str(outputs["report"])]}
    for kind in CHART_KINDS:
        commands[kind] = ["chart", kind, "--output", str(outputs[kind])]

    problems = []
    for name, command in commands.items():
        exit_code, stdout, stderr = run([*command, str(source), "--delimiter", delimiter])
        if error is not None:
            problems += oracle.check_rejection(str(source), error, exit_code,
                                               len(stdout.encode()), stderr)
            continue
        assert (exit_code, stderr) == (0, ""), name
        written = outputs[name].read_bytes().decode("utf-8") if name in outputs else None
        if name == "score":
            assert stdout.split("\n") == [f"{2.5 * k:.1f}" for k in codes] + [""]
        elif name == "report":
            problems += oracle.check_report(stdout, codes) + oracle.check_report(written, codes)
        else:
            problems += oracle.check_chart(written, name, codes)
    assert not problems, problems


def test_oracle_imports_no_suskit():
    # The oracle is the independent statement of the spec, so it never loads the code it checks,
    # even where suskit is importable.
    path = os.pathsep.join([str(Path(oracle.__file__).parent),
                            str(Path(suskit.__file__).resolve().parents[1])])
    result = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, oracle; print(*sorted(sys.modules))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.split()
    assert "oracle" in loaded
    assert not [name for name in loaded if name.partition(".")[0] == "suskit"]
