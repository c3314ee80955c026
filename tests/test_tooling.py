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


@pytest.mark.parametrize("command", TRACED_COMMANDS)
def test_traced_cli_runs(command, tmp_path):
    spans = tmp_path / "spans.jsonl"
    argv = [*TRACED_COMMANDS[command], "--out", str(tmp_path / "out")]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, str(TRACED_CLI), str(spans), *argv],
        cwd=SAMPLE_DATA, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = spans.read_text(encoding="utf-8").splitlines()
    assert lines
    for line in lines:
        name, start, end, parent, rss, counters = json.loads(line)
        assert end >= start
