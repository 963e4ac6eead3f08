"""Layer spans around the public calls ``suskit.cli`` makes.

:func:`install` replaces the names that ``suskit.cli`` looks up at call
time with wrappers that record one span per call: name, start, end,
parent and the root span of the CLI call it belongs to. Because the CLI's
own globals are patched, the spans follow whatever path the CLI really
takes; a layer it stops calling shows up with zero calls. Per-row helpers
(``score_response``, ``classify_*``) are left alone: their cost lands in
the self time of the caller.

Run as a script, it executes ``python -m suskit <args>`` with tracing on
and writes the spans as JSON when the CLI exits, together with the time
the script began, so the caller can tell the process's start-up from the
traced work::

    python perfbench/spans.py SPANS.json report input.csv --output out.txt
"""

from __future__ import annotations

import functools
import json
import os
import runpy
import sys
import time
from dataclasses import dataclass, field

# Names in suskit.cli that are wrapped -> the layer (module) each belongs to.
# The layer is fixed here, not read from the function, so span names stay
# comparable across commits that move a function between modules.
LAYER_CALLS = {
    "load_responses": "ingest",
    "score_all": "scoring",
    "classify_each": "scoring",
    "descriptive_stats": "stats",
    "frequency_table": "stats",
    "histogram_bins": "stats",
    "render_report": "report",
    "render_single_report": "report",
    "write_report": "report",
    "render_histogram": "charts",
    "render_category_chart": "charts",
    "build_parser": "cli",
    "main": "cli",
}
SPAN_NAMES = tuple(f"{layer}.{name}" for name, layer in LAYER_CALLS.items())
# Calls whose first argument is the input path; it is kept with the span.
_PATH_CALLS = ("load_responses",)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    root: int
    start: int
    end: int = 0
    path: str | None = None
    error: str | None = None

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans kept in memory, in call order; times are ``perf_counter_ns``.

    ``entry_ns`` is when the traced process's own code began, on the same
    clock, which on Linux is shared by all processes.
    """

    entry_ns: int = 0
    spans: list[Span] = field(default_factory=list)
    _open: list[Span] = field(default_factory=list)

    def wrap(self, name: str, fn, keep_path: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span_id = len(self.spans)
            span = Span(span_id, name, parent.id if parent else None,
                        parent.root if parent else span_id, 0)
            if keep_path and args:
                span.path = os.fspath(args[0])
            self.spans.append(span)
            self._open.append(span)
            span.start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter_ns()
                self._open.pop()

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"entry_ns": self.entry_ns, "spans": [vars(span) for span in self.spans]},
                      handle)


def install(tracer: Tracer, cli_module) -> None:
    """Wrap each name of :data:`LAYER_CALLS` that ``cli_module`` still has.

    A span is named ``<layer>.<function>``, e.g. ``ingest.load_responses``.
    """
    for name, layer in LAYER_CALLS.items():
        fn = getattr(cli_module, name, None)
        if callable(fn):
            setattr(cli_module, name,
                    tracer.wrap(f"{layer}.{name}", fn, keep_path=name in _PATH_CALLS))


def load(path: str) -> tuple[int, list[Span]]:
    """``(entry_ns, spans)`` as written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return data["entry_ns"], [Span(**record) for record in data["spans"]]


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            start, end = max(child.start, reach), min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.id] = span.duration - covered
    return result


def _run_cli(entry_ns: int, spans_path: str, argv: list[str]) -> int:
    import suskit.cli

    tracer = Tracer(entry_ns)
    install(tracer, suskit.cli)
    sys.argv = ["suskit", *argv]
    try:
        runpy.run_module("suskit", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(_run_cli(time.perf_counter_ns(), sys.argv[1], sys.argv[2:]))
