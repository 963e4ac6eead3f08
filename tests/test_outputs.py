"""Byte identity of the CLI's outputs, pinned by a committed manifest of SHA-256 digests.

Each generated input runs through ``cli.main`` in-process as ``score``, ``report`` and each
chart kind. One digest per input and command covers stdout, stderr, the exit code and the
written file; ``tests/data/outputs.sha256`` holds them, one ``input command digest`` line
each. The inputs come from a fixed seed through ``random.Random(seed).random()`` only, whose
sequence the ``random`` docs keep the same across Python versions.

Stdlib only, so it also runs without pytest, from the repository root::

    PYTHONPATH=src python tests/test_outputs.py              # check the manifest
    PYTHONPATH=src python tests/test_outputs.py --write      # rewrite it after a deliberate change
    PYTHONPATH=src python tests/test_outputs.py --dump DIR   # each command's record, one file each

A digest keeps no bytes, so to find the first differing byte dump the records on both trees
and ``cmp`` the two files the failure names.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from suskit.cli import CHART_KINDS, main

MANIFEST = Path(__file__).parent / "data" / "outputs.sha256"
SEED = 11
# Each command's words before the input, and its options after it.
COMMANDS = {
    "score": (["score"], []),
    "report": (["report"], ["--output", "out.txt"]),
    **{kind: (["chart", kind], ["--output", "out.txt"]) for kind in CHART_KINDS},
}


def _inputs() -> dict[str, tuple[bytes, str]]:
    """Each input's name, bytes and delimiter, drawn from ``SEED``."""
    draw = random.Random(SEED).random

    def rows(n: int, delimiter: str = ";", pad: bool = False) -> list[str]:
        def field() -> str:
            answer = str(1 + int(draw() * 5))
            return " " * int(draw() * 3) + answer + "\t" * int(draw() * 2) if pad else answer
        return [delimiter.join(field() for _ in range(10)) for _ in range(n)]

    def text(lines: list[str], end: str = "\n") -> bytes:
        return "".join(line + end for line in lines).encode("utf-8")

    messy = rows(40, pad=True)
    for _ in range(8):  # blank and whitespace-only lines, anywhere
        messy.insert(int(draw() * len(messy)), " " * int(draw() * 3))
    good = "1;2;3;4;5;1;2;3;4;5"
    return {
        "n1.csv": (text(rows(1)), ";"),
        "n2.csv": (text(rows(2)), ";"),
        "clean.csv": (text(rows(60)), ";"),
        "equal.csv": (text(rows(1) * 7), ";"),
        "comma.csv": (text(rows(30, ",")), ","),
        "tab.csv": (text(rows(30, "\t")), "\t"),
        "crlf.csv": (text(rows(25), "\r\n"), ";"),
        "no_final_newline.csv": (text(rows(5))[:-1], ";"),
        "bom.csv": (b"\xef\xbb\xbf" + text(rows(25)), ";"),
        "padded.csv": (text(rows(25, pad=True)), ";"),
        "blank_lines.csv": (text(["", *rows(10), "  ", *rows(10), ""]), ";"),
        "messy.csv": (b"\xef\xbb\xbf" + text(messy, "\r\n"), ";"),
        "large.csv": (text(rows(3000)), ";"),
        "error_nine_fields.csv": (text([*rows(3), "1;2;3;4;5;1;2;3;4"]), ";"),
        "error_not_an_integer.csv": (text([*rows(2), "1;2;three;4;5;1;2;3;4;5"]), ";"),
        "error_zero.csv": (text(["0;2;3;4;5;1;2;3;4;5"]), ";"),
        "error_six.csv": (text([*rows(4), "1;2;3;4;5;1;2;3;4;6"]), ";"),
        "error_empty.csv": (b"", ";"),
        "error_blank_only.csv": (b"\n \r\n\t\n", ";"),
        "error_not_utf8.csv": (text([good, good]) + b"1;2;\xff;4;5;1;2;3;4;5\n", ";"),
        "error_wrong_delimiter.csv": (text(rows(3)), ","),
    }


def _record(argv: list[str]) -> bytes:
    """stdout, stderr, the exit code and the written file of one in-process command, each
    part framed by its length, so no two different runs give the same record."""
    if os.path.exists("out.txt"):
        os.remove("out.txt")
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    written = Path("out.txt").read_bytes() if os.path.exists("out.txt") else b"<none>"
    parts = (stdout.getvalue().encode(), stderr.getvalue().encode(), str(code).encode(), written)
    return b"".join(len(part).to_bytes(8, "big") + part for part in parts)


def records(workdir: Path) -> dict[tuple[str, str], bytes]:
    """Every input's record per command, run in ``workdir`` so diagnostics name bare files."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        out = {}
        for name, (data, delimiter) in _inputs().items():
            Path(name).write_bytes(data)
            for command, (words, options) in COMMANDS.items():
                out[name, command] = _record([*words, name, *options, "--delimiter", delimiter])
        # A missing input, the one C8 error that has no file.
        for command, (words, options) in COMMANDS.items():
            out["error_missing.csv", command] = _record([*words, "error_missing.csv", *options])
        return out
    finally:
        os.chdir(cwd)


def digests(workdir: Path) -> dict[tuple[str, str], str]:
    return {key: hashlib.sha256(record).hexdigest() for key, record in records(workdir).items()}


def read_manifest() -> dict[tuple[str, str], str]:
    lines = MANIFEST.read_text(encoding="ascii").splitlines()
    return {(name, command): digest for name, command, digest in map(str.split, lines)}


def mismatches(got: dict[tuple[str, str], str]) -> list[str]:
    want = read_manifest()
    return [f"{name} {command}: digest {got.get((name, command))}, manifest {digest}"
            for (name, command), digest in want.items() if got.get((name, command)) != digest] + [
        f"{name} {command}: not in the manifest" for name, command in got.keys() - want.keys()]


def test_outputs_match_manifest(tmp_path):
    problems = mismatches(digests(tmp_path))
    assert not problems, "\n".join(
        [*problems, "dump both trees with --dump DIR and cmp the named records for the first byte"])


def _main(args: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        if args[:1] == ["--dump"] and len(args) == 2:
            Path(args[1]).mkdir(parents=True, exist_ok=True)
            for (name, command), record in records(Path(tmp)).items():
                (Path(args[1]) / f"{name}.{command}").write_bytes(record)
            return 0
        got = digests(Path(tmp))
    if args == ["--write"]:
        MANIFEST.write_text("".join(f"{name} {command} {digest}\n"
                                    for (name, command), digest in got.items()), encoding="ascii")
        return 0
    if args:
        print(__doc__, file=sys.stderr)
        return 2
    problems = mismatches(got)
    print("\n".join(problems) or f"{len(got)} records match {MANIFEST.name}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
