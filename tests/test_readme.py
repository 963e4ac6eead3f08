"""The README's library example runs as written, and the package exports what it names."""

from __future__ import annotations

import re
import shutil
from pathlib import Path
from types import ModuleType

import suskit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(tmp_path, monkeypatch, sample_path, golden_report):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
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
