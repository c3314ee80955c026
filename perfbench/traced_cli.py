"""Run the venuerisk CLI in-process with a span around each layer's public functions.

Usage: python3 perfbench/traced_cli.py SPANS.jsonl CLI_ARG...

Each wrapped function replaces the original in every ``venuerisk.*`` module
that binds the same object, because ``cli`` and ``scenario`` import
``parse_visits``, ``join``, ``simulate_week`` and others by name. Functions
called once per venue-hour are left alone. Spans (name, start, end, parent
index, peak RSS at end, counters) stay in memory and are written to SPANS.jsonl
after ``main`` returns, one JSON array per line. Times are
``time.perf_counter`` readings.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

import venuerisk.cli


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _data_lines(path) -> int:
    """Data rows of a CSV file: lines that are not blank or comments, less the header."""
    with open(path, "rb") as handle:
        data = handle.read()
    lines = data.count(b"\n") + (not data.endswith(b"\n") and bool(data))
    skipped = data.startswith(b"#") + data.count(b"\n#") + data.count(b"\n\n")
    return lines - skipped - 1


def _visit_rows(args, kwargs, result):
    return {"rows": _data_lines(_arg(args, kwargs, 0, "source").name)}


def _zero_filled(args, kwargs, result):
    venues = _arg(args, kwargs, 0, "venues")
    visits = _arg(args, kwargs, 1, "visits")
    return {"zero_filled_venues": sum(1 for vid in venues if vid not in visits)}


def _clipped(args, kwargs, result):
    return {"clipped": sum(_arg(args, kwargs, 0, "series").hourly_counts) - sum(result.hourly_counts)}


def _venue_hours(args, kwargs, result):
    sim_input = _arg(args, kwargs, 0, "sim_input")
    return {"venue_hours": len(sim_input.venues) * sim_input.window_hours}


def _excluded(args, kwargs, result):
    return {"excluded": result.excluded_count}


def _bytes_hashed(args, kwargs, result):
    paths = {str(p) for p in _arg(args, kwargs, 0, "input_paths")}
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


def _rows_written(args, kwargs, result):
    # the CLI hands write_visits a fresh buffer, so every line in it is this call's
    sink = _arg(args, kwargs, 1, "sink")
    comment = kwargs.get("comment", args[2] if len(args) > 2 else None)
    return {"rows": sink.getvalue().count("\n") - 1 - bool(comment)}


def _bytes_written(args, kwargs, result):
    return {"bytes": len(_arg(args, kwargs, 1, "text").encode("utf-8"))}


# module -> {function: counter or None}; the per-venue cap call records no RSS
LAYERS = {
    "ingest": {
        "parse_venues": None,
        "parse_visits": _visit_rows,
        "compute_volumes": None,
        "apply_sampling_correction": None,
        "join": _zero_filled,
        "write_venues": None,
        "write_visits": _rows_written,
    },
    "epi": {"simulate_week": _venue_hours, "count_severities": None},
    "scenario": {"load_scenario_config": None, "run_scenario": None, "apply_occupancy_cap": _clipped},
    "stats": {"welch_t_test": None, "histogram": _excluded},
    "reporting": {
        "build_manifest": _bytes_hashed,
        "venue_results_csv": None,
        "histogram_csv": None,
        "atomic_write_text": _bytes_written,
        "dump_json": None,
    },
    "synthetic": {"generate_dataset": None},
}
PER_VENUE = {"scenario.apply_occupancy_cap"}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        record_rss = name not in PER_VENUE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 if record_rss else None
                spans[index] = [name, start, end, parent, rss, None]
            if counter is not None:
                spans[index][5] = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Swap every binding of each listed function across the loaded venuerisk modules."""
        modules = [m for n, m in sys.modules.items() if n == "venuerisk" or n.startswith("venuerisk.")]
        for layer, functions in LAYERS.items():
            home = sys.modules[f"venuerisk.{layer}"]
            for fname, counter in functions.items():
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    code = venuerisk.cli.main(cli_args)
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(span) + "\n" for span in tracer.spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
