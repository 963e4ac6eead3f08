"""suskit benchmark: seeded inputs, timed CLI runs, outputs checked by an oracle.

Run from the root of a checkout::

    python3 perfbench/run.py --workload report_large --seed 1 --seconds 60 --trace 0

Workloads (closed loop: one caller, the next operation starts only after
the previous one returned; see README.md for why each exists):

* ``report_large``: one clean 200k-row file through ``python -m suskit report``.
* ``surveys_small``: 1000 small surveys, each run in-process through
  ``suskit.cli.main`` as ``report`` plus the four ``chart`` kinds.

Inputs are generated from ``--seed`` before any pass is timed. One pass is
one fresh child process; passes repeat while the next one is expected to
end within ``--seconds`` of the start, input generation included. Every
output is checked by ``oracle.py``, which does not use ``suskit``. With
``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics come from
the spans of ``spans.py``. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
import oracle
import spans
import survey_pass

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN_CSV = ROOT / "tests" / "data" / "sample20.csv"
GOLDEN_REPORT = ROOT / "tests" / "data" / "sample20_report.txt"
SETUP_PER_PASS = 3
# Passes repeat while the next one is expected to end within --seconds.
MIN_PASSES = 2
# Root spans must cover this share of a traced pass, from the moment the
# traced script began (as it records) to the child's exit. Spans lie inside
# that interval, so the share cannot pass 1.
COVERAGE_RANGE = (0.7, 1.0)


@dataclass
class Pass:
    """One timed pass: a fresh child process and the checks of its outputs."""

    wall_s: float
    rss_mb: float
    attempted: int
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    spans: list[spans.Span] | None = None
    # Traced passes: launch to the traced script's first line.
    startup_s: float = 0.0
    report_bytes: int = 0
    chart_bytes: int = 0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv: list[str], cwd: Path, stdout: Path,
              stderr: Path) -> tuple[float, int, float, int]:
    """Run one child to completion.

    Returns wall seconds, exit code, peak RSS in MB and the launch time in
    ``perf_counter_ns``. ``wait4`` gives the rusage of this child alone, so
    each measurement has its own peak RSS.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter_ns()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = (time.perf_counter_ns() - start) / 1e9
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024, start


def load_spans(done: Pass, trace: Path, launched_ns: int) -> None:
    entry_ns, done.spans = spans.load(str(trace))
    done.startup_s = (entry_ns - launched_ns) / 1e9


class ReportLarge:
    """One clean 200k-row file through one ``python -m suskit report`` per pass."""

    name = "report_large"
    surveys = 1

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.output = work / "report.txt"
        self.inputs = [gen.clean_file(work / "large.csv", gen.LARGE_ROWS, seed)]
        self.rows = self.inputs[0].rows
        self.argv = ["report", str(self.inputs[0].path), "--output", str(self.output)]

    def run_pass(self, traced: bool) -> Pass:
        self.output.unlink(missing_ok=True)
        out, err, trace = self.work / "stdout", self.work / "stderr", self.work / "spans.json"
        if traced:
            argv = [sys.executable, str(BENCH / "spans.py"), str(trace), *self.argv]
        else:
            argv = [sys.executable, "-m", "suskit", *self.argv]
        wall, code, rss, launched_ns = run_child(argv, self.work, out, err)
        done = Pass(wall, rss, attempted=1, latencies=[wall])
        stderr = err.read_bytes()
        if code != 0 or stderr:
            done.problems.append(f"exit code {code}, stderr {stderr[-300:]!r}")
        else:
            done.problems += self.check(out.read_bytes())
        done.failed = int(bool(done.problems))
        if traced:
            load_spans(done, trace, launched_ns)
        if self.output.exists():
            done.report_bytes = self.output.stat().st_size
        return done

    def check(self, stdout: bytes) -> list[str]:
        if not self.output.exists() or self.output.read_bytes() != stdout:
            return ["stdout differs from the written report"]
        return oracle.check_report(stdout.decode("utf-8"), self.inputs[0].codes)


class SurveysSmall:
    """``gen.SURVEYS`` small surveys per pass, in-process ``cli.main`` in one child."""

    name = "surveys_small"

    def __init__(self, work: Path, seed: int):
        self.work = work
        (work / "in").mkdir()
        self.out = work / "out"
        self.out.mkdir()
        self.inputs = gen.surveys(work / "in", seed, GOLDEN_CSV)
        self.surveys = len(self.inputs)
        self.rows = sum(inp.rows for inp in self.inputs)
        self.golden_sha256 = hashlib.sha256(GOLDEN_CSV.read_bytes()).hexdigest()
        self.golden_report = GOLDEN_REPORT.read_bytes()
        self.plan = work / "plan.json"
        self.plan.write_text(json.dumps(
            [[str(inp.path), str(self.out / inp.path.stem)] for inp in self.inputs]))

    def run_pass(self, traced: bool) -> Pass:
        for stale in self.out.iterdir():
            stale.unlink()
        result, trace = self.work / "result.json", self.work / "spans.json"
        argv = [sys.executable, str(BENCH / "survey_pass.py"), str(self.plan), str(result)]
        if traced:
            argv.append(str(trace))
        wall, code, rss, launched_ns = run_child(argv, self.work, self.work / "stdout",
                                                 self.work / "stderr")
        attempted = len(self.inputs) * survey_pass.CALLS_PER_SURVEY
        if code != 0:
            stderr = (self.work / "stderr").read_bytes()[-300:]
            return Pass(wall, rss, attempted, [f"survey pass exit {code}: {stderr!r}"], attempted)
        with open(result, encoding="utf-8") as handle:
            outcome = json.load(handle)
        calls = iter(outcome["calls"])
        done = Pass(wall, rss, attempted, latencies=outcome["latencies"])
        if traced:
            load_spans(done, trace, launched_ns)
        for inp in self.inputs:
            for argv in survey_pass.commands(str(inp.path), str(self.out / inp.path.stem)):
                problems = self.check_call(inp, argv, *next(calls))
                done.failed += bool(problems)
                done.problems += problems
        for path in self.out.iterdir():
            if path.suffix == ".svg":
                done.chart_bytes += path.stat().st_size
            else:
                done.report_bytes += path.stat().st_size
        return done

    def check_call(self, inp: gen.Input, argv, code, digest, stdout_bytes, stderr) -> list[str]:
        output = Path(argv[-1])
        if inp.error is not None:
            problems = oracle.check_rejection(str(inp.path), inp.error, code, stdout_bytes, stderr)
            if output.exists():
                problems.append(f"{output.name} written for a rejected input")
            return problems
        if code != 0 or stderr or not output.exists():
            return [f"{' '.join(argv[:2])} {inp.path.name}: exit {code!r}, stderr {stderr!r}"]
        data = output.read_bytes()
        if argv[0] == "report":
            problems = []
            if hashlib.sha256(data).hexdigest() != digest or len(data) != stdout_bytes:
                problems.append(f"{output.name}: stdout differs from the written report")
            if inp.sha256 == self.golden_sha256 and data != self.golden_report:
                problems.append(f"{output.name}: differs from {GOLDEN_REPORT.name}")
            return problems + oracle.check_report(data.decode("utf-8"), inp.codes)
        if stdout_bytes:
            return [f"{output.name}: chart command wrote {stdout_bytes} bytes to stdout"]
        return oracle.check_chart(data.decode("utf-8"), argv[1], inp.codes)


WORKLOADS = {cls.name: cls for cls in (ReportLarge, SurveysSmall)}


def measure_setup(work: Path, samples: int) -> list[float]:
    """Seconds for a fresh interpreter to ``import suskit.cli``, once per sample."""
    walls = []
    for _ in range(samples):
        wall, code, _, _ = run_child([sys.executable, "-c", "import suskit.cli"], work,
                                     work / "stdout", work / "stderr")
        if code != 0:
            raise RuntimeError(f"import suskit.cli failed: "
                               f"{(work / 'stderr').read_text(errors='replace')[-500:]}")
        walls.append(wall)
    return walls


def e2e_metrics(workload, passes: list[Pass], setup: list[float]) -> dict:
    wall = statistics.median(p.wall_s for p in passes)
    latencies = [latency for p in passes for latency in p.latencies]
    return {
        "wall_s": (wall, "s"),
        "rows_per_s": (workload.rows / wall, "rows/s"),
        "surveys_per_s": (workload.surveys / wall, "surveys/s"),
        "survey_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in passes), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def pass_layers(workload, done: Pass) -> dict:
    """Per-layer metrics of one traced pass."""
    by_name: dict[str, list[spans.Span]] = {name: [] for name in spans.SPAN_NAMES}
    for span in done.spans:
        by_name.setdefault(span.name, []).append(span)
    own = spans.self_times(done.spans)
    inputs = {str(inp.path): inp for inp in workload.inputs}
    loads = by_name["ingest.load_responses"]
    loaded = [inputs[span.path] for span in loads if span.error is None]
    rows = sum(inp.rows for inp in loaded)
    physical = sum(inp.physical_lines for inp in loaded)

    def seconds(*names: str) -> float:
        return sum(span.duration for name in names for span in by_name[name]) / 1e9

    def self_s(name: str) -> float:
        return sum(own[span.id] for span in by_name[name]) / 1e9

    def ns_per_row(*names: str) -> float:
        return seconds(*names) * 1e9 / rows if rows else 0.0

    def us_per_call(*names: str) -> float:
        calls = sum(len(by_name[name]) for name in names)
        return seconds(*names) * 1e6 / calls if calls else 0.0

    charts = ("charts.render_histogram", "charts.render_category_chart")
    roots = sum(span.duration for span in done.spans if span.parent is None) / 1e9
    metrics = {f"{name}.calls": (len(by_name[name]), "count") for name in spans.SPAN_NAMES}
    metrics.update({
        "ingest.load_responses.ns_per_row": (ns_per_row("ingest.load_responses"), "ns/row"),
        "ingest.load_responses.self_s": (self_s("ingest.load_responses"), "s"),
        "ingest.rows": (rows, "count"),
        "ingest.blank_lines": (sum(inp.blank_lines for inp in loaded), "count"),
        "ingest.bytes_read": (sum(inputs[span.path].size for span in loads), "bytes"),
        "ingest.useful_line_ratio": (rows / physical if physical else 0.0, "ratio"),
        "ingest.rejected_files": (len(loads) - len(loaded), "count"),
        "scoring.score_all.ns_per_row": (ns_per_row("scoring.score_all"), "ns/row"),
        "scoring.classify_each.ns_per_row": (ns_per_row("scoring.classify_each"), "ns/row"),
        "stats.descriptive_stats.ns_per_row": (ns_per_row("stats.descriptive_stats"), "ns/row"),
        "stats.frequency_table.ns_per_row": (ns_per_row("stats.frequency_table"), "ns/row"),
        "stats.histogram_bins.ns_per_row": (ns_per_row("stats.histogram_bins"), "ns/row"),
        "report.render_report.ns_per_row": (
            ns_per_row("report.render_report", "report.render_single_report"), "ns/row"),
        "report.write_report.self_s": (self_s("report.write_report"), "s"),
        "report.bytes_written": (done.report_bytes, "bytes"),
        "charts.render.us_per_chart": (us_per_call(*charts), "us"),
        "charts.bytes_written": (done.chart_bytes, "bytes"),
        "cli.build_parser.us_per_call": (us_per_call("cli.build_parser"), "us"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "trace.span_coverage": (roots / (done.wall_s - done.startup_s), "ratio"),
    })
    return metrics


def layer_metrics(workload, untraced: list[Pass], traced: list[Pass]):
    per_pass = [pass_layers(workload, done) for done in traced]
    metrics = {name: (statistics.median(m[name][0] for m in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    overhead = (statistics.median(p.wall_s for p in traced)
                / statistics.median(p.wall_s for p in untraced))
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    low, high = COVERAGE_RANGE
    coverage = [m["trace.span_coverage"][0] for m in per_pass]
    problems = [f"spans cover {c:.3f} of a traced pass, outside {COVERAGE_RANGE}"
                for c in coverage if not low <= c <= high]
    return metrics, problems


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=False).stdout.strip() or None
        except OSError:
            pass
    src_lines = sum(len(path.read_bytes().splitlines()) for path in SRC.rglob("*.py"))
    return {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_lines": src_lines,
    }


def describe_inputs(inputs: list[gen.Input]) -> dict:
    if len(inputs) == 1:
        return inputs[0].describe()
    listing = "".join(f"{inp.path.name} {inp.rows} {inp.blank_lines} {inp.sha256}\n"
                      for inp in inputs)
    return {
        "files": len(inputs),
        "rows": sum(inp.rows for inp in inputs),
        "blank_lines": sum(inp.blank_lines for inp in inputs),
        "bytes": sum(inp.size for inp in inputs),
        "malformed": sum(inp.error is not None for inp in inputs),
        # Over one "<name> <rows> <blank lines> <sha256>" line per file, in order.
        "sha256_of_listing": hashlib.sha256(listing.encode()).hexdigest(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, work: Path) -> dict:
    start = time.perf_counter()
    workload = WORKLOADS[args.workload](work, args.seed)
    measure_setup(work, 1)  # fills the bytecode caches; not a sample
    setup, untraced, traced, cycles = [], [], [], []
    # Set-up samples are spread over the run like the passes, so both see
    # the same mix of quiet and busy moments on a shared machine.
    while True:
        began = time.perf_counter()
        setup += measure_setup(work, SETUP_PER_PASS)
        untraced.append(workload.run_pass(traced=False))
        if args.trace:
            traced.append(workload.run_pass(traced=True))
        cycles.append(time.perf_counter() - began)
        # The next cycle is assumed to take as long as the slowest so far.
        ends_at = time.perf_counter() - start + max(cycles)
        if len(untraced) >= (1 if args.trace else MIN_PASSES) and ends_at > args.seconds:
            break
    passes = untraced + traced
    problems = [problem for p in passes for problem in p.problems]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        metrics, trace_problems = layer_metrics(workload, untraced, traced)
        problems += trace_problems
    else:
        metrics = e2e_metrics(workload, untraced, setup)
        trace_problems = []

    print(f"perfbench: workload={workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} passes={len(untraced)}+{len(traced)} traced")
    print("env:", json.dumps(environment()))
    print("inputs:", json.dumps(describe_inputs(workload.inputs)))
    walls = [round(p.wall_s, 4) for p in untraced]
    # Too few passes for a percentile with ten samples beyond it: all are shown.
    print(f"untraced pass walls (s): {walls}")
    if traced:
        print(f"traced pass walls (s): {[round(p.wall_s, 4) for p in traced]}")
    else:
        # Printed, not a metric: on the large-file workloads a pass is one
        # survey, so too few samples lie beyond the 99th percentile.
        latencies = [latency for p in untraced for latency in p.latencies]
        p99 = statistics.quantiles(latencies, n=100, method="inclusive")[98]
        print(f"survey latency p99: {p99 * 1e3:.4f} ms over n={len(latencies)} surveys"
              f"{'' if len(latencies) >= 1000 else ' (fewer than 10 samples beyond it)'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6f} {unit}" if isinstance(value, float)
              else f"  {name:<40} {value:>9} {unit}")
    print(f"  {'ops_failed_ratio':<40} {failed / attempted:>16.6f} ratio ({failed}/{attempted})")
    for problem in problems[:20]:
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0 and not trace_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn a termination request into SystemExit, so the running child is
    # killed and waited for and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    missing = [path for path in (SRC / "suskit" / "cli.py", GOLDEN_CSV, GOLDEN_REPORT)
               if not path.is_file()]
    if missing:
        print(f"perfbench: not a suskit checkout, missing {missing}", file=sys.stderr)
        return 2
    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, work)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
