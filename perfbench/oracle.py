"""Checks of one CLI invocation's reports against ``expected.json``.

Standard library only, and streaming, so the benchmark process stays small
(see ``reference.py`` for why that matters to the RSS figures). Tolerances
are the acceptance contract's: weekly infections within 1e-9 relative,
severe and mild counts exact, Welch t and df within 1e-8 relative, p within
1e-8 relative or both below 1e-300, and ``gen-synthetic``'s data rows equal
to the benchmark's own byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

WEEKLY_RTOL = 1e-9
WELCH_RTOL = 1e-8
P_FLOOR = 1e-300
SEVERITY_THRESHOLD = 1.0
_CHUNK = 1 << 20


def _close(got, want: float, rtol: float) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= rtol * abs(want)


def output_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file an invocation left in ``out_dir``."""
    digests = {}
    for path in sorted(out_dir.iterdir()):
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(_CHUNK), b""):
                digest.update(chunk)
        digests[path.name] = digest.hexdigest()
    return digests


def check(kind: str, out_dir: Path, expected: dict, work: Path) -> list[str]:
    """Every mismatch between the reports in ``out_dir`` and the reference."""
    return {"simulate": _simulate, "compare": _compare, "generated": _generated}[kind](
        out_dir, expected, work
    )


def _simulate(out_dir: Path, expected: dict, work: Path) -> list[str]:
    problems = []
    weekly = expected["weekly"]
    bad = 0
    first = ""
    with open(out_dir / "venue_results.csv", encoding="utf-8", newline="") as handle:
        rows = csv.reader(line for line in handle if not line.startswith("#"))
        col = {name: i for i, name in enumerate(next(rows))}
        count = 0
        for i, row in enumerate(rows):
            count += 1
            want = weekly[i] if i < len(weekly) else math.nan
            got = float(row[col["weekly_infections"]])
            severity = "severe" if want > SEVERITY_THRESHOLD else "mild"
            if (row[col["venue_id"]] != f"v{i:05d}" or not abs(got - want) <= WEEKLY_RTOL * abs(want)
                    or row[col["severity"]] != severity):
                bad += 1
                first = first or f"row {i + 1}: {row!r}, want weekly {want!r} ({severity})"
    if count != len(weekly):
        problems.append(f"venue_results.csv: {count} venues, want {len(weekly)}")
    if bad:
        problems.append(f"venue_results.csv: {bad} rows differ from the reference, first {first}")

    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    for key in ("severe_count", "mild_count"):
        if summary.get(key) != expected[key]:
            problems.append(f"summary.json: {key} = {summary.get(key)!r}, want {expected[key]}")
    if summary.get("venue_count") != len(weekly):
        problems.append(f"summary.json: venue_count = {summary.get('venue_count')!r}")
    total = expected["total_expected_infections"]
    if not _close(summary.get("total_expected_infections"), total, WEEKLY_RTOL):
        problems.append(f"summary.json: total_expected_infections "
                        f"{summary.get('total_expected_infections')!r}, want {total!r}")
    return problems


def _compare(out_dir: Path, expected: dict, work: Path) -> list[str]:
    problems = []
    report = json.loads((out_dir / "comparison.json").read_text(encoding="utf-8"))
    for side in ("scenario_a", "scenario_b"):
        got, want = report.get(side, {}), expected[side]
        for key in ("severe_count", "mild_count"):
            if got.get(key) != want[key]:
                problems.append(f"comparison.json: {side}.{key} = {got.get(key)!r}, want {want[key]}")
        mean = want["mean_weekly_infections"]
        if not _close(got.get("mean_weekly_infections"), mean, WEEKLY_RTOL):
            problems.append(f"comparison.json: {side}.mean_weekly_infections "
                            f"{got.get('mean_weekly_infections')!r}, want {mean!r}")
    for key in ("t_stat", "degrees_of_freedom"):
        if not _close(report.get(key), expected[key], WELCH_RTOL):
            problems.append(f"comparison.json: {key} = {report.get(key)!r}, want {expected[key]!r}")
    got_p, want_p = report.get("p_value"), expected["p_value"]
    if not (_close(got_p, want_p, WELCH_RTOL)
            or (isinstance(got_p, float) and got_p < P_FLOOR and want_p < P_FLOOR)):
        problems.append(f"comparison.json: p_value = {got_p!r}, want {want_p!r}")
    return problems


def _generated(out_dir: Path, expected: dict, work: Path) -> list[str]:
    problems = []
    for name in ("venues.csv", "visits.csv"):
        with open(out_dir / name, "rb") as got, open(work / expected[name], "rb") as want:
            if not got.readline().startswith(b"#"):  # the provenance comment is not data
                got.seek(0)
            while True:
                a, b = got.read(_CHUNK), want.read(_CHUNK)
                if a != b:
                    problems.append(f"{name}: data rows differ from the benchmark's own generator")
                    break
                if not a:
                    break
    return problems
