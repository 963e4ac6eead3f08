"""The README's examples run as written, and the package exports what it names."""

from __future__ import annotations

import ast
import re
import shlex
import shutil
from pathlib import Path
from types import ModuleType

import pytest

import suskit
from suskit import charts, ingest, report, scoring, stats
from suskit.cli import _read_argv, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
# The modules whose public names the package exports.
MODULES = (charts, ingest, report, scoring, stats)


def _section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"## {title}", 1)[1].split("\n## ", 1)[0]


def test_library_use_example_runs(tmp_path, monkeypatch, sample_path, golden_report):
    example = re.search(r"```python\n(.*?)```", _section("Library use"), re.DOTALL).group(1)
    shutil.copyfile(sample_path, tmp_path / "responses.csv")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(example, namespace)
    assert (tmp_path / "results.txt").read_bytes() == golden_report.encode("utf-8")
    assert namespace["svg"].startswith("<svg ")


def test_all_lists_the_public_names():
    # Every public attribute other than a submodule is exported, and nothing else is.
    public = {name for name, value in vars(suskit).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert set(suskit.__all__) == public
    namespace: dict = {}
    exec("from suskit import *", namespace)
    assert set(namespace) - {"__builtins__"} == public


@pytest.mark.parametrize("module", MODULES)
def test_each_module_lists_the_public_names_it_defines(module):
    # The package's names come from its modules' lists: each lists only what it defines,
    # and "import *" from it gives exactly that list.
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    targets = [node.target for node in tree.body if isinstance(node, ast.AnnAssign)]
    targets += [target for node in tree.body if isinstance(node, ast.Assign) for target in node.targets]
    defined = {target.id for target in targets if isinstance(target, ast.Name)}
    defined |= {node.name for node in tree.body if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert set(module.__all__) <= defined
    namespace: dict = {}
    exec(f"from {module.__name__} import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(module.__all__)


def test_no_public_name_is_listed_twice():
    listed = [name for module in MODULES for name in module.__all__]
    assert len(set(listed)) == len(listed)
    assert sorted(suskit.__all__) == sorted(listed)


def test_command_line_examples_parse():
    block = re.search(r"```sh\n(.*?)```", _section("Command line"), re.DOTALL).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("suskit ")]
    assert {argv[1] for argv in commands} == {"score", "report", "chart"}
    parser = build_parser()
    for argv in commands:
        try:
            expected = vars(parser.parse_args(argv[1:]))
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
        # The CLI reads every README command itself, without argparse, as the parser does.
        assert _read_argv(argv[1:]) == expected


def test_quotes_no_duration():
    # Timings go stale with every change; perfbench/ measures them instead.
    durations = re.findall(r"\d\s*(?:s|ms|[µμ]s|seconds?)\b", README.read_text(encoding="utf-8"))
    assert durations == []
