"""Shared fixtures: the bundled 20-response sample and its golden report; the spec oracle;
the hypothesis profile."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import settings

from suskit import ResponseRow

DATA_DIR = Path(__file__).parent / "data"
# perfbench/oracle.py is the one independent statement of the spec; tests import it as oracle.
BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

# One profile for every run, whole suite or single file: the same examples each time. No
# per-example deadline: on a slow or loaded machine a property that runs the CLI can pass its
# 200 ms default and fail with DeadlineExceeded, though nothing is wrong. Tests that bound a
# run time assert their own bound.
settings.register_profile("suite", derandomize=True, max_examples=200, deadline=None)
settings.load_profile("suite")

# Scores of the bundled sample file, in row order.
SAMPLE_SCORES = [
    90.0, 92.5, 85.0, 90.0, 82.5, 92.5, 90.0, 92.5, 85.0, 90.0,
    82.5, 92.5, 82.5, 22.5, 92.5, 90.0, 92.5, 87.5, 40.0, 5.0,
]


@pytest.fixture
def sample_path() -> Path:
    return DATA_DIR / "sample20.csv"


@pytest.fixture
def sample_rows(sample_path) -> list[ResponseRow]:
    lines = sample_path.read_text(encoding="utf-8").splitlines()
    return [ResponseRow(tuple(map(int, line.split(";")))) for line in lines]


@pytest.fixture
def sample_scores() -> list[float]:
    return list(SAMPLE_SCORES)


@pytest.fixture
def golden_path() -> Path:
    return DATA_DIR / "sample20_report.txt"


@pytest.fixture
def golden_report(golden_path) -> str:
    with open(golden_path, encoding="utf-8", newline="") as handle:
        return handle.read()
