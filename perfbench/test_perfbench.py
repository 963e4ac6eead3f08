"""Self-tests of the benchmark's generator, oracle and spans.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

DATA = BENCH.parent / "tests" / "data"


def _listing(inputs):
    return [(inp.path.name, inp.rows, inp.blank_lines, inp.sha256, inp.error) for inp in inputs]


def test_generators_are_deterministic(tmp_path):
    made = {}
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        made[run] = (
            gen.clean_file(tmp_path / run / "clean.csv", 3000, seed=7).sha256,
            _listing(gen.surveys(tmp_path / run, 7, DATA / "sample20.csv")),
        )
    assert made["a"][0] == made["b"][0]
    assert [entry[1:] for entry in made["a"][1]] == [entry[1:] for entry in made["b"][1]]
    other = gen.clean_file(tmp_path / "other.csv", 3000, seed=8).sha256
    assert other != made["a"][0]


def test_messy_surveys_blank_lines_and_padding(tmp_path):
    inputs = gen.surveys(tmp_path, 3, DATA / "sample20.csv")
    messy = [inp for inp in inputs if inp.blank_lines and inp.error is None]
    assert len(messy) == 100
    fields = []
    for inp in messy:
        lines = inp.path.read_bytes().decode("utf-8").split("\r\n")
        assert lines.pop() == ""
        assert "\n" not in "".join(lines)
        assert inp.blank_lines == max(1, inp.rows // 9) == sum(not line.strip() for line in lines)
        assert inp.physical_lines == len(lines)
        rows = [line for line in lines if line.strip()]
        assert bytes(oracle.code(oracle.split_answers(line, ";")) for line in rows) == inp.codes
        fields += [field for line in rows for field in line.split(";")]
    padded = sum(field != field.strip() for field in fields) / len(fields)
    assert 0.25 < padded < 0.35


def test_clean_file_covers_every_score(tmp_path):
    inp = gen.clean_file(tmp_path / "clean.csv", 5000, seed=1)
    lines = inp.path.read_text(encoding="utf-8").splitlines()
    assert [oracle.code(oracle.split_answers(line, ";")) for line in lines] == list(inp.codes)
    assert set(inp.codes) == set(range(oracle.CODES))


def test_surveys_mix(tmp_path):
    inputs = gen.surveys(tmp_path, 5, DATA / "sample20.csv")
    assert len(inputs) == gen.SURVEYS
    kinds = [inp.error[0] for inp in inputs if inp.error]
    assert len(kinds) == 50 and set(kinds) == set(gen.ERROR_KINDS)
    assert sum(inp.rows == 1 and inp.error is None for inp in inputs) == 50
    golden = (DATA / "sample20.csv").read_bytes()
    assert sum(inp.path.exists() and inp.path.read_bytes() == golden for inp in inputs) == 1


def test_oracle_agrees_with_golden_report():
    text = (DATA / "sample20.csv").read_text(encoding="utf-8")
    codes = bytes(oracle.code(oracle.split_answers(line, ";")) for line in text.splitlines())
    golden = (DATA / "sample20_report.txt").read_bytes().decode("utf-8")
    assert oracle.check_report(golden, codes) == []
    # Each kind of corruption is caught.
    assert oracle.check_report(golden.replace("ACCEPTABLE          17", "ACCEPTABLE          16"),
                               codes)
    assert oracle.check_report(golden.replace("78.88", "78.90"), codes)
    assert oracle.check_report(golden.replace("\n92.50          ACCEPTABLE     A ",
                                              "\n92.50          ACCEPTABLE     B ", 1), codes)
    assert oracle.check_report(golden.replace("\n5.0\n", "\n5.5\n"), codes)


def test_oracle_single_report_and_rejections():
    single = ("SUS Value           72.50               \n"
              "Acceptability       ACCEPTABLE          \n"
              "Grade               C                   \n"
              "Adjective           GOOD                \n")
    assert oracle.check_report(single, bytes([29])) == []
    assert oracle.check_report(single, bytes([28]))
    diagnostic = "suskit: in.csv: line 3, field 7: value 0 outside 1-5\n"
    assert oracle.check_rejection("in.csv", ("low", 3, 7), 1, 0, diagnostic) == []
    assert oracle.check_rejection("in.csv", ("low", 3, 6), 1, 0, diagnostic)
    assert oracle.check_rejection("in.csv", ("low", 3, 7), 0, 0, diagnostic)


def test_span_nesting_and_self_time(tmp_path):
    tracer = spans.Tracer(entry_ns=5)
    module = types.SimpleNamespace()

    def inner():
        return 1

    def outer():
        return module.score_all() + module.score_all()

    module.score_all = inner
    module.main = outer
    spans.install(tracer, module)
    assert module.main() == 2
    with pytest.raises(ZeroDivisionError):
        tracer.wrap("cli.main", lambda: 1 / 0)()
    names = [(span.name, span.parent, span.root, span.error) for span in tracer.spans]
    assert names == [
        ("cli.main", None, 0, None),
        ("scoring.score_all", 0, 0, None),
        ("scoring.score_all", 0, 0, None),
        ("cli.main", None, 3, "ZeroDivisionError"),
    ]
    own = spans.self_times(tracer.spans)
    main, first, second = tracer.spans[:3]
    assert own[main.id] == main.duration - first.duration - second.duration
    assert own[first.id] == first.duration
    tracer.dump(str(tmp_path / "spans.json"))
    assert spans.load(str(tmp_path / "spans.json")) == (5, tracer.spans)


def test_spans_follow_the_cli(tmp_path, monkeypatch):
    pytest.importorskip("suskit.cli")
    import suskit.cli

    tracer = spans.Tracer()
    for name in spans.LAYER_CALLS:
        monkeypatch.setattr(suskit.cli, name, getattr(suskit.cli, name))
    spans.install(tracer, suskit.cli)
    out = tmp_path / "report.txt"
    assert suskit.cli.main(["report", str(DATA / "sample20.csv"), "--output", str(out)]) == 0
    main = tracer.spans[0]
    assert main.name == "cli.main" and main.parent is None
    assert all(span.parent == main.id for span in tracer.spans[1:])
    assert [span.path for span in tracer.spans if span.name == "ingest.load_responses"] == [
        str(DATA / "sample20.csv")]
    called = {span.name for span in tracer.spans}
    assert "stats.histogram_bins" not in called and "report.render_report" in called
