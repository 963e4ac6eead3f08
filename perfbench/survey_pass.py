"""One pass of the small-survey workload, in a fresh process::

    python perfbench/survey_pass.py PLAN.json RESULT.json [SPANS.json]

``PLAN.json`` is a list of ``[input, output_prefix]`` pairs. Each survey
runs ``report`` and the four ``chart`` kinds through ``suskit.cli.main``
in this process, one call after the other, with stdout and stderr
captured. ``RESULT.json`` gets each survey's latency and, per call, the
exit code, the SHA-256 and length of stdout, and stderr. The outputs are
checked by the caller afterwards. With ``SPANS.json`` the layer calls are
traced and the spans written there, with the time this script began.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time

CHART_KINDS = ("histogram", "acceptability", "grade", "adjective")
CALLS_PER_SURVEY = 1 + len(CHART_KINDS)


def commands(source: str, prefix: str) -> list[list[str]]:
    return [["report", source, "--output", f"{prefix}.txt"]] + [
        ["chart", kind, source, "--output", f"{prefix}.{kind}.svg"] for kind in CHART_KINDS
    ]


def run(entry_ns: int, plan_path: str, result_path: str, spans_path: str | None) -> None:
    import suskit.cli

    tracer = None
    if spans_path:
        import spans

        tracer = spans.Tracer(entry_ns)
        spans.install(tracer, suskit.cli)
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)

    latencies = []
    calls = []
    for source, prefix in plan:
        captured = []
        start = time.perf_counter()
        for argv in commands(source, prefix):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = suskit.cli.main(argv)
                except Exception as exc:  # a crash is a failed operation, not the end of the pass
                    code = f"crash: {exc!r}"
            captured.append((code, out, err))
        latencies.append(time.perf_counter() - start)
        for code, out, err in captured:
            data = out.getvalue().encode("utf-8")
            calls.append([code, hashlib.sha256(data).hexdigest(), len(data), err.getvalue()])

    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"latencies": latencies, "calls": calls}, handle)
    if tracer is not None:
        tracer.dump(spans_path)


if __name__ == "__main__":
    entry_ns = time.perf_counter_ns()
    run(entry_ns, sys.argv[1], sys.argv[2], sys.argv[3] if len(sys.argv) > 3 else None)
