"""The per-layer tracer in perfbench/ must find every function it wraps and run the CLI."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"
SRC = ROOT / "src"


def test_every_traced_layer_function_exists():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    missing = [
        f"venuerisk.{layer}.{name}"
        for layer, functions in traced_cli.LAYERS.items()
        for name in functions
        if not inspect.isfunction(getattr(importlib.import_module(f"venuerisk.{layer}"), name, None))
    ]
    assert missing == []


SAMPLE_DATA = ROOT / "sample_data"
TRACED_COMMANDS = {
    "simulate": [
        "simulate", "--venues", "venues.csv", "--visits", "visits.csv",
        "--params", "params.txt", "--spacing", "6ft",
    ],
    "compare": [
        "compare", "--venues", "venues.csv", "--visits", "visits.csv", "--params", "params.txt",
        "--scenario-a", "scenario_lockdown.txt", "--scenario-b", "scenario_reopened.txt",
    ],
    "gen-synthetic": ["gen-synthetic", "--n-venues", "20", "--profile", "lockdown", "--seed", "1"],
}


def run_traced(command, tmp_path):
    """Run one TRACED_COMMANDS entry under the tracer; return its spans."""
    spans = tmp_path / "spans.jsonl"
    argv = [*TRACED_COMMANDS[command], "--out", str(tmp_path / "out")]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, str(TRACED_CLI), str(spans), *argv],
        cwd=SAMPLE_DATA, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in spans.read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("command", TRACED_COMMANDS)
def test_traced_cli_runs(command, tmp_path):
    spans = run_traced(command, tmp_path)
    assert spans
    for name, start, end, parent, rss, counters in spans:
        assert end >= start


def test_traced_compare_counts_the_venue_table(tmp_path):
    # sample_data has 4 venues; the baseline visit file leaves one of them without visits
    counters = {}
    for name, start, end, parent, rss, counts in run_traced("compare", tmp_path):
        counters.setdefault(name, []).append(counts)
    assert counters["ingest.join"] == [{"zero_filled_venues": 1}, {"zero_filled_venues": 0}]
    assert counters["epi.simulate_week"] == [{"venue_hours": 4 * 168}] * 2


def test_failing_property_test_reports_its_example(tmp_path):
    # under the repo's warning filters, a failing hypothesis test must fail normally
    # (exit 1, with its falsifying example) instead of aborting the session
    test_file = tmp_path / "test_fails.py"
    test_file.write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 10\n",
        encoding="utf-8",
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
            "-p", "no:cacheprovider", str(test_file),
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
