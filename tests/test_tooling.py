"""The per-layer tracer in perfbench/ must find every function it wraps."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


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
