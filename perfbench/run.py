"""Benchmark of the venuerisk CLI on 50 000 synthetic venues x 168 hours.

Usage (from the repository root):

    python3 perfbench/run.py --workload simulate_lockdown_50k --seed 42 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --self-check              # 1 034-venue contract check

Each run makes its inputs from ``--seed`` in a child process (``reference.py``,
untimed), then runs the real CLI as a child process, one invocation at a time (a closed loop with
one client), for ``--seconds`` (always at least one invocation). Every invocation's reports are
checked by ``oracle.py`` against the reference and against the first invocation's bytes; a
non-zero exit or any mismatch is a failed operation. ``--trace 1`` instead
runs the CLI once untraced and once under ``traced_cli.py`` and reports the
per-layer figures from its spans. The last line of standard output is one
JSON object: correct, attempted, failed and metrics.

This process imports nothing beyond the standard library and holds no large
data, because on Linux a child's ``ru_maxrss`` starts at its parent's peak.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "work"
RESULTS_DIR = BENCH_DIR / "results"

N_VENUES = 50_000
WINDOW_HOURS = 168
FIXTURE_VENUES = 1034
FIXTURE_SEED = 42
TIMESTAMP = "2020-03-16T00:00:00+00:00"  # pinned so reruns must be byte-identical
SETUP_PER_ROUND = 3  # `--version` runs before each invocation and after the last
RUN_BUDGET_S = 150.0  # a run ends well inside the 180 s limit even on a slow host

ScalarFn = Callable[[dict], float]


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int


def spawn(argv: list[str], cwd: Path, log: Path) -> Sample:
    """Run one child to completion; rusage comes from wait4 on that child alone."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=sink, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode)


# the inputs and reference of each are in reference.py. BENCHMARK.json gates on
# compare and gen only: together they cover every layer, and two workloads leave
# each run of the time budget a window long enough to damp this host's noise.
# simulate stays runnable by name and under --workload all.
WORKLOADS = ("simulate_lockdown_50k", "compare_reopen_50k", "gen_prepandemic_50k")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _span(name: str, key: str) -> ScalarFn:
    return lambda agg: agg[name][key] if name in agg else 0.0


def _rate(name: str, key: str) -> ScalarFn:
    return lambda agg: agg[name][key] / agg[name]["s"] if name in agg and agg[name]["s"] else 0.0


def _module_self(module: str) -> ScalarFn:
    return lambda agg: sum(v["self_s"] for k, v in agg.items() if k.split(".")[0] == module)


# (name, unit, value from the aggregated spans); "bytes_computed" is
# 8 B x venue-hours x (one count in + one infection out), computed and not measured
PER_LAYER: list[tuple[str, str, ScalarFn]] = [
    ("ingest.parse_visits.s", "s", _span("ingest.parse_visits", "s")),
    ("ingest.parse_visits.calls", "count", _span("ingest.parse_visits", "calls")),
    ("ingest.parse_visits.rows", "count", _span("ingest.parse_visits", "rows")),
    ("ingest.parse_visits.rows_per_s", "1/s", _rate("ingest.parse_visits", "rows")),
    ("ingest.parse_visits.rss_hwm_mb", "MB", _span("ingest.parse_visits", "rss_hwm_mb")),
    ("ingest.parse_venues.s", "s", _span("ingest.parse_venues", "s")),
    ("ingest.compute_volumes.s", "s", _span("ingest.compute_volumes", "s")),
    ("ingest.apply_sampling_correction.s", "s", _span("ingest.apply_sampling_correction", "s")),
    ("ingest.join.s", "s", _span("ingest.join", "s")),
    ("ingest.join.calls", "count", _span("ingest.join", "calls")),
    ("ingest.join.zero_filled_venues", "count", _span("ingest.join", "zero_filled_venues")),
    ("ingest.write_visits.s", "s", _span("ingest.write_visits", "s")),
    ("ingest.write_visits.rows", "count", _span("ingest.write_visits", "rows")),
    ("ingest.write_venues.s", "s", _span("ingest.write_venues", "s")),
    ("ingest.self_s", "s", _module_self("ingest")),
    ("epi.simulate_week.s", "s", _span("epi.simulate_week", "s")),
    ("epi.simulate_week.calls", "count", _span("epi.simulate_week", "calls")),
    ("epi.simulate_week.venue_hours", "count", _span("epi.simulate_week", "venue_hours")),
    ("epi.simulate_week.venue_hours_per_s", "1/s", _rate("epi.simulate_week", "venue_hours")),
    ("epi.simulate_week.rss_hwm_mb", "MB", _span("epi.simulate_week", "rss_hwm_mb")),
    ("epi.simulate_week.bytes_computed", "B", lambda agg: 16.0 * _span("epi.simulate_week", "venue_hours")(agg)),
    ("epi.self_s", "s", _module_self("epi")),
    ("scenario.run_scenario.s", "s", _span("scenario.run_scenario", "s")),
    ("scenario.run_scenario.self_s", "s", _span("scenario.run_scenario", "self_s")),
    ("scenario.apply_occupancy_cap.s", "s", _span("scenario.apply_occupancy_cap", "s")),
    ("scenario.apply_occupancy_cap.calls", "count", _span("scenario.apply_occupancy_cap", "calls")),
    ("scenario.clipped_visitor_hours", "count", _span("scenario.apply_occupancy_cap", "clipped")),
    ("scenario.load_scenario_config.s", "s", _span("scenario.load_scenario_config", "s")),
    ("scenario.self_s", "s", _module_self("scenario")),
    ("stats.welch_t_test.s", "s", _span("stats.welch_t_test", "s")),
    ("stats.histogram.s", "s", _span("stats.histogram", "s")),
    ("stats.histogram.excluded", "count", _span("stats.histogram", "excluded")),
    ("stats.self_s", "s", _module_self("stats")),
    ("reporting.build_manifest.s", "s", _span("reporting.build_manifest", "s")),
    ("reporting.build_manifest.bytes_hashed", "B", _span("reporting.build_manifest", "bytes")),
    ("reporting.venue_results_csv.s", "s", _span("reporting.venue_results_csv", "s")),
    ("reporting.histogram_csv.s", "s", _span("reporting.histogram_csv", "s")),
    ("reporting.atomic_write_text.s", "s", _span("reporting.atomic_write_text", "s")),
    ("reporting.atomic_write_text.bytes", "B", _span("reporting.atomic_write_text", "bytes")),
    ("reporting.self_s", "s", _module_self("reporting")),
    ("synthetic.generate_dataset.s", "s", _span("synthetic.generate_dataset", "s")),
    ("cli.self_s", "s", lambda agg: agg["trace"]["cli_self_s"]),
    ("trace.wall_s", "s", lambda agg: agg["trace"]["wall_s"]),
    ("trace.untraced_wall_s", "s", lambda agg: agg["trace"]["untraced_wall_s"]),
    ("trace.overhead_s", "s", lambda agg: agg["trace"]["wall_s"] - agg["trace"]["untraced_wall_s"]),
    ("trace.uncovered_share", "ratio", lambda agg: agg["trace"]["cli_self_s"] / agg["trace"]["wall_s"]),
    ("trace.spans", "count", lambda agg: agg["trace"]["spans"]),
]


def aggregate_spans(spans_path: Path, traced_wall: float, untraced_wall: float) -> dict:
    """Per function: calls, inclusive and exclusive seconds, peak RSS, summed counters."""
    agg: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    covered: list[float] = []  # child time inside each span, by span index
    names: list[str] = []
    top_level = 0.0
    with open(spans_path, encoding="utf-8") as handle:
        for line in handle:
            name, start, end, parent, rss, counters = json.loads(line)
            entry = agg[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start
            entry["rss_hwm_mb"] = max(entry["rss_hwm_mb"], rss or 0.0)
            for key, value in (counters or {}).items():
                entry[key] += value
            names.append(name)
            covered.append(0.0)
            if parent < 0:
                top_level += end - start
            else:
                covered[parent] += end - start
    for name, inner in zip(names, covered):
        agg[name]["self_s"] -= inner
    agg = dict(agg)
    agg["trace"] = {
        "wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        # interpreter start, imports, argument parsing and cli glue: no layer span covers it
        "cli_self_s": traced_wall - top_level,
        "spans": len(names),
    }
    return agg


def host_facts(numpy_version: str) -> dict:
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "l3": l3.read_text().strip() if l3.exists() else "unknown",
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str]

    def line(self) -> str:
        return json.dumps({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        })


class Checker:
    """Runs the oracle on one invocation's outputs and pins their bytes to the first."""

    def __init__(self, work: Path):
        self.work = work
        self.expected = json.loads((work / "expected.json").read_text(encoding="utf-8"))
        self.digests: dict[str, str] | None = None
        self.problems: list[str] = []

    def cli_argv(self, out: Path) -> list[str]:
        return [sys.executable, "-m", "venuerisk.cli", *self.expected["args"],
                "--timestamp", TIMESTAMP, "--out", str(out)]

    def passes(self, sample: Sample, out: Path, log: Path) -> bool:
        if sample.code != 0:
            self.problems.append(f"exit {sample.code}: {log.read_text(errors='replace')[-400:]}")
            return False
        problems = oracle.check(self.expected["check"], out, self.expected, self.work)
        digests = oracle.output_digests(out)
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            problems.append("reports differ in bytes from the first invocation of this run")
        self.problems.extend(problems)
        return not problems


def measure(checker: Checker, work: Path, seconds: float, venue_hours: int, started: float) -> Result:
    """Closed loop of CLI invocations for ``seconds`` (at least one); medians of every sample."""
    version = [sys.executable, "-m", "venuerisk.cli", "--version"]
    setup: list[Sample] = []

    def set_up_round():
        # spread across the run like the invocations, so both see the same host load
        setup.extend(spawn(version, work, work / "setup.log") for _ in range(SETUP_PER_ROUND))
        if any(s.code != 0 for s in setup):
            raise SystemExit(f"error: `venuerisk --version` failed: {(work / 'setup.log').read_text()}")

    spawn(version, work, work / "setup.log")  # warm-up: bytecode cache and page cache
    samples, failed = [], 0
    loop_start = time.perf_counter()
    while True:
        set_up_round()
        out, log = work / f"out{len(samples)}", work / "cli.log"
        sample = spawn(checker.cli_argv(out), work, log)
        samples.append(sample)
        failed += not checker.passes(sample, out, log)
        shutil.rmtree(out, ignore_errors=True)
        # start another round only if one more, at the mean round length so far, fits
        elapsed = time.perf_counter() - loop_start
        per_round = elapsed / len(samples)
        if elapsed + per_round > seconds or time.perf_counter() - started + per_round > RUN_BUDGET_S:
            break
    set_up_round()

    wall = statistics.median(s.wall_s for s in samples)
    metrics = {
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(s.cpu_s for s in samples), "s"),
        "venue_hours_per_s": (venue_hours / wall, "1/s"),
        "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in samples), "MB"),
        "setup_s": (statistics.median(s.wall_s for s in setup), "s"),
    }
    walls = [s.wall_s for s in samples]
    notes = [
        f"wall_s, cpu_s, peak_rss_mb: medians of {len(walls)} invocations "
        f"(wall min {min(walls):.4f}, max {max(walls):.4f})",
        f"setup_s: median of {len(setup)} runs of `venuerisk --version`",
        f"error_rate: {failed / len(samples):.4g} ({failed} failed / {len(samples)} attempted)",
        *checker.problems[:5],
    ]
    return Result(len(samples), failed, metrics, notes)


def trace(checker: Checker, work: Path, spans_path: Path) -> Result:
    """One untraced and one traced invocation; per-layer figures from the spans."""
    out, log = work / "out_untraced", work / "cli.log"
    untraced = spawn(checker.cli_argv(out), work, log)
    failed = not checker.passes(untraced, out, log)
    out, log = work / "out_traced", work / "traced.log"
    traced_argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path),
                   *checker.cli_argv(out)[3:]]
    traced = spawn(traced_argv, work, log)
    failed += not checker.passes(traced, out, log)
    metrics: dict[str, tuple[float, str]] = {}
    if traced.code == 0:
        agg = aggregate_spans(spans_path, traced.wall_s, untraced.wall_s)
        metrics = {name: (float(fn(agg)), unit) for name, unit, fn in PER_LAYER}
    notes = [
        "epi.simulate_week.bytes_computed = 8 B x venue-hours x (in + out), computed, not measured",
        f"spans written to {spans_path.relative_to(ROOT)}",
        f"error_rate: {failed / 2:.4g} ({failed} failed / 2 attempted)",
        *checker.problems[:5],
    ]
    return Result(2, failed, metrics, notes)


def run_workload(name: str, seed: int, seconds: float, traced: bool, n_venues: int) -> Result:
    started = time.perf_counter()
    work = WORK_DIR / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prep = spawn([sys.executable, str(BENCH_DIR / "reference.py"), "prepare", name,
                      str(n_venues), str(seed), str(work)], work, work / "prepare.log")
        if prep.code != 0:
            raise SystemExit(f"error: preparing {name} failed:\n{(work / 'prepare.log').read_text()}")
        checker = Checker(work)
        venue_hours = n_venues * WINDOW_HOURS
        print(f"# {name}: seed {seed}, {n_venues} venues, {venue_hours} venue-hours, "
              f"{checker.expected['visit_rows']} visit rows, closed loop with one client")
        print(f"# host: {json.dumps(host_facts(checker.expected['numpy']), sort_keys=True)}")
        if traced:
            RESULTS_DIR.mkdir(exist_ok=True)
            result = trace(checker, work, RESULTS_DIR / f"trace-{name}-seed{seed}.jsonl")
        else:
            result = measure(checker, work, seconds, venue_hours, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for metric, (value, unit) in result.metrics.items():
        print(f"  {metric:<40} {value:>16.6g} {unit}")
    for note in result.notes:
        print(f"  {note}")
    return result


def self_check() -> bool:
    """The reference against the acceptance figures, then every workload at fixture size."""
    ok = subprocess.run([sys.executable, str(BENCH_DIR / "reference.py"), "contract"]).returncode == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        False: sorted((m["name"], m["unit"]) for m in spec["end_to_end"]),
        True: sorted((m["name"], m["unit"]) for m in spec["per_layer"]),
    }
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        ok = False
        print("BENCHMARK.json names workloads this benchmark does not have")
    for name in WORKLOADS:
        for traced in (False, True):
            result = run_workload(name, FIXTURE_SEED, 0.0, traced, FIXTURE_VENUES)
            names_ok = sorted((k, u) for k, (_, u) in result.metrics.items()) == declared[traced]
            ok = ok and result.failed == 0 and names_ok
            print(f"{name} trace={int(traced)} at {FIXTURE_VENUES} venues: "
                  f"{result.attempted - result.failed}/{result.attempted} passed the oracle, "
                  f"metrics {'match' if names_ok else 'DO NOT match'} BENCHMARK.json")
    print(f"self-check: {'PASS' if ok else 'FAIL'}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "venuerisk" / "cli.py").is_file():
        print(f"error: the venuerisk sources are not at {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return 0 if self_check() else 1
    if args.workload is None:
        parser.error("--workload is required")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), N_VENUES)
        print(result.line(), flush=True)
        correct = correct and result.failed == 0
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
