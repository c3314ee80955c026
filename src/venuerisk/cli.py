"""Command-line entry point.

Usage:
    venuerisk simulate --venues venues.csv --visits visits.csv \
        --prevalence 0.001 --out results/
    venuerisk compare --venues venues.csv --visits visits.csv \
        --scenario-a lockdown.txt --scenario-b reopened.txt \
        --prevalence 0.001 --out comparison/
    venuerisk hotspots --results results/venue_results.csv --top 10
    venuerisk gen-synthetic --n-venues 1034 --profile lockdown --seed 7 --out data/

The analysis window is one week (168 hours). Parameters come from CLI
flags and an optional ``key = value`` params file; the documented
prevalence is mandatory because no safe default exists for it.

Exit codes: 0 success, 1 validation or config error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import math
import statistics
import sys

import numpy as np

from .epi import EpiParams
from .errors import ConfigError, InputError
from .ingest import (
    AREA_UNITS,
    SimulationInput,
    join,
    open_input,
    parse_venues,
    parse_visits,
    write_venues,
    write_visits,
)
from .reporting import (
    TOOL_VERSION,
    build_manifest,
    dump_json,
    hashed_manifest,
    histogram_csv,
    venue_results_csv,
    write_reports,
)
from .scenario import (
    BASELINE,
    ScenarioConfig,
    load_scenario_config,
    params_from_mapping,
    parse_spacing,
    read_keyvalue,
    run_scenario,
)
from .stats import Scale, classify, histogram, welch_t_test
from .synthetic import PROFILES, GeneratorConfig, generate_dataset

WINDOW_HOURS = 168
T_TEST_KEYS = ("t_stat", "degrees_of_freedom", "p_value")


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors (exit 1), not I/O errors
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_params_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--params", help="key = value params file (q, p, ach, ...)")
    sub.add_argument(
        "--prevalence",
        type=float,
        help="documented community prevalence in [0, 1] (required unless set in --params)",
    )
    sub.add_argument(
        "--underreport-factor",
        type=float,
        help="case under-reporting multiplier, >= 1 (default 15)",
    )


def _add_input_flags(sub: argparse.ArgumentParser, visits_required: bool) -> None:
    sub.add_argument("--venues", required=True, help="venue CSV (venue_id,name,category,area)")
    sub.add_argument(
        "--visits",
        required=visits_required,
        help="visit CSV (venue_id,hour,count), hour in [0, 168)",
    )
    sub.add_argument(
        "--area-unit",
        choices=list(AREA_UNITS),
        default="m2",
        help="unit of the venue file's area column (default m2)",
    )


def _add_report_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--bins", type=_positive_int, default=20, help="histogram bin count (default 20)"
    )
    sub.add_argument(
        "--scale",
        choices=[s.value for s in Scale],
        default=Scale.LINEAR.value,
        help="histogram binning scale (default linear)",
    )
    sub.add_argument(
        "--threshold",
        type=_finite_float,
        default=1.0,
        help="weekly infections above this are severe (default 1.0)",
    )
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument(
        "--timestamp",
        help="override the manifest timestamp (ISO 8601) for reproducible manifests",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="venuerisk", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the weekly infection model")
    _add_input_flags(p_sim, visits_required=True)
    _add_params_flags(p_sim)
    p_sim.add_argument(
        "--sampling-factor",
        type=float,
        default=10.0,
        help="panel-to-population visit multiplier (default 10)",
    )
    p_sim.add_argument(
        "--spacing",
        help="enforce physical distancing at this spacing, unit suffix required (e.g. 6ft)",
    )
    _add_report_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="run and compare two scenario configs")
    _add_input_flags(p_cmp, visits_required=False)
    _add_params_flags(p_cmp)
    p_cmp.add_argument("--scenario-a", required=True, help="scenario config file A")
    p_cmp.add_argument("--scenario-b", required=True, help="scenario config file B")
    p_cmp.add_argument(
        "--pooled",
        action="store_true",
        help="use the pooled-variance t-test instead of Welch's",
    )
    _add_report_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_hot = sub.add_parser("hotspots", help="rank venues from a results CSV")
    p_hot.add_argument("--results", required=True, help="venue_results.csv from simulate")
    p_hot.add_argument("--threshold", type=_finite_float, default=1.0, help="severity threshold")
    p_hot.add_argument("--top", type=_positive_int, help="print only the top K venues")
    p_hot.set_defaults(func=cmd_hotspots)

    p_gen = sub.add_parser("gen-synthetic", help="emit a deterministic synthetic dataset")
    p_gen.add_argument("--n-venues", type=int, required=True)
    p_gen.add_argument("--profile", choices=PROFILES, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument(
        "--traffic-multiplier",
        type=float,
        help="pre-pandemic traffic level as a multiple of lockdown (default 4)",
    )
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--timestamp", help="override the manifest timestamp (ISO 8601)")
    p_gen.set_defaults(func=cmd_gen_synthetic)

    return parser


def _resolve_params(args) -> EpiParams:
    """Merge params file and CLI flags into a validated EpiParams; flags win.

    A bad value from the file is reported under the file's name, a bad
    flag value without it.
    """
    flags = {
        "documented_prevalence": args.prevalence,
        "underreport_factor": args.underreport_factor,
    }
    flags = {name: value for name, value in flags.items() if value is not None}
    values: dict[str, float] = {}
    if args.params:
        with open_input(args.params) as handle:
            values = params_from_mapping(read_keyvalue(handle))
            for name in flags:
                values.pop(name, None)  # overridden, so never used
            try:
                # checked here so its errors name the file; 0.0 stands in for a
                # prevalence the flags may still supply
                EpiParams(**{"documented_prevalence": 0.0, **values})
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
    values.update(flags)
    if "documented_prevalence" not in values:
        raise ConfigError(
            "documented prevalence is required: pass --prevalence or set "
            "documented_prevalence in the params file (there is no safe default)"
        )
    return EpiParams(**values)


def _load_base_input(args) -> SimulationInput:
    """Parse venue and (optional) visit files into a raw SimulationInput."""
    with open_input(args.venues) as handle:
        venues = parse_venues(handle, args.area_unit)
    if not args.visits:
        return join(venues, {}, WINDOW_HOURS)
    with open_input(args.visits) as handle:
        return join(venues, parse_visits(handle, WINDOW_HOURS), WINDOW_HOURS)


def _run_scenarios(args, configs: list[ScenarioConfig], config_paths: list[str]):
    """Run each scenario over the shared inputs.

    Returns the resolved params, the base input, one ScenarioResult per
    config, and the manifest over every input file (the scenario files
    in ``config_paths`` included).
    """
    params = _resolve_params(args)
    base = _load_base_input(args)
    for config in configs:
        if config.visit_source == BASELINE and not args.visits:
            raise ConfigError(
                f"scenario {config.name!r} uses the baseline visit source but --visits was not given"
            )
    outcomes = [run_scenario(base, config, params, args.threshold) for config in configs]

    input_paths = [args.venues, *config_paths, *([args.visits] if args.visits else [])]
    input_paths += [c.visit_source for c in configs if c.visit_source != BASELINE]
    manifest = build_manifest(input_paths, params, configs, timestamp=args.timestamp)
    return params, base, outcomes, manifest


def _combined_range(values_a, values_b, scale: Scale):
    """Shared histogram span so two exports overlay on the same bins."""
    pool = np.concatenate([values_a, values_b])
    pool = pool[np.isfinite(pool) & ((pool > 0) | (scale is not Scale.LOG10))]
    return (pool.min().item(), pool.max().item()) if pool.size else None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    spacing = parse_spacing(args.spacing) if args.spacing else None
    config = ScenarioConfig(
        name="simulate",
        visit_source=BASELINE,
        sampling_factor=args.sampling_factor,
        spacing=spacing,
    )
    params, base, (outcome,), manifest = _run_scenarios(args, [config], [])
    mhash = manifest["manifest_sha256"]

    weekly = outcome.weekly
    hist = histogram(weekly, args.bins, args.scale)
    summary = {
        "manifest_sha256": mhash,
        "scenario": config.name,
        "venue_count": len(weekly),
        "severe_count": outcome.severe_count,
        "mild_count": outcome.mild_count,
        "severity_threshold": args.threshold,
        "total_expected_infections": math.fsum(weekly),
        "effective_prevalence": params.effective_prevalence,
        "sampling_factor": args.sampling_factor,
        "spacing_m": spacing,
        "histogram": {
            "scale": hist.scale.value,
            "bins": len(hist.counts),
            "excluded_count": hist.excluded_count,
        },
    }
    out_dir = write_reports(args.out, {
        "venue_results.csv": venue_results_csv(base.venues, weekly, params, args.threshold, mhash),
        "histogram.csv": histogram_csv(hist, mhash),
        "summary.json": dump_json(summary),
        "manifest.json": dump_json(manifest),
    })

    print(
        f"venues={summary['venue_count']} severe={outcome.severe_count} "
        f"mild={outcome.mild_count} total_expected_infections={summary['total_expected_infections']!r}"
    )
    print(f"reports written to {out_dir}")
    return 0


def cmd_compare(args) -> int:
    configs = [load_scenario_config(args.scenario_a), load_scenario_config(args.scenario_b)]
    _, _, outcomes, manifest = _run_scenarios(args, configs, [args.scenario_a, args.scenario_b])
    mhash = manifest["manifest_sha256"]

    weekly_a, weekly_b = (o.weekly for o in outcomes)
    try:
        test = welch_t_test(weekly_a, weekly_b, pooled=args.pooled)
        t_test = {key: getattr(test, key) for key in T_TEST_KEYS}
    except ValueError as exc:
        # a legal but degenerate scenario (total closure, a single venue) still gets a report
        t_test = dict.fromkeys(T_TEST_KEYS)
        t_test["t_test_undefined"] = (
            f"scenario_a {configs[0].name!r} vs scenario_b {configs[1].name!r}: {exc}"
        )
    span = _combined_range(weekly_a, weekly_b, Scale(args.scale))
    hist_a = histogram(weekly_a, args.bins, args.scale, value_range=span)
    hist_b = histogram(weekly_b, args.bins, args.scale, value_range=span)

    def scenario_report(outcome, weekly):
        return {
            "name": outcome.config.name,
            "severe_count": outcome.severe_count,
            "mild_count": outcome.mild_count,
            "mean_weekly_infections": statistics.fmean(weekly) if len(weekly) else None,
        }

    report = {
        "manifest_sha256": mhash,
        "scenario_a": scenario_report(outcomes[0], weekly_a),
        "scenario_b": scenario_report(outcomes[1], weekly_b),
        **t_test,
        "pooled": args.pooled,
        "severity_threshold": args.threshold,
        "histogram": {
            "scale": args.scale,
            "bins": args.bins,
            "excluded_count_a": hist_a.excluded_count,
            "excluded_count_b": hist_b.excluded_count,
        },
    }
    out_dir = write_reports(args.out, {
        "comparison.json": dump_json(report),
        "histogram_a.csv": histogram_csv(hist_a, mhash),
        "histogram_b.csv": histogram_csv(hist_b, mhash),
        "manifest.json": dump_json(manifest),
    })

    for side, outcome in zip(("a", "b"), outcomes):
        print(
            f"scenario_{side} {outcome.config.name}: "
            f"severe={outcome.severe_count} mild={outcome.mild_count}"
        )
    if "t_test_undefined" in t_test:
        print(f"t-test undefined: {t_test['t_test_undefined']}")
    else:
        print(f"t={t_test['t_stat']!r} df={t_test['degrees_of_freedom']!r} p={t_test['p_value']!r}")
    print(f"reports written to {out_dir}")
    return 0


def cmd_hotspots(args) -> int:
    with open_input(args.results) as handle:
        # "#" starts a comment only before the header: a venue id may start with it
        reader = csv.DictReader(itertools.dropwhile(lambda ln: ln.startswith("#"), handle))
        if reader.fieldnames is None:
            raise InputError("results file is empty")
        missing = {"venue_id", "name", "weekly_infections"} - set(reader.fieldnames)
        if missing:
            raise InputError("results file lacks column(s): " + ", ".join(sorted(missing)))

        entries = []
        for row in reader:
            try:
                weekly = float(row["weekly_infections"])
            except (TypeError, ValueError):  # TypeError: a short row's missing field
                weekly = math.nan
            if not (math.isfinite(weekly) and weekly >= 0):
                raise InputError(
                    f"bad weekly_infections value {row['weekly_infections']!r} "
                    f"for venue {row['venue_id']!r}: must be a non-negative finite number"
                )
            entries.append((row["venue_id"], row["name"], weekly))

    entries.sort(key=lambda e: (-e[2], e[0]))
    entries = entries[: args.top]  # --top unset is None: every entry

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["rank", "venue_id", "name", "weekly_infections", "severity"])
    for rank, (venue_id, name, weekly) in enumerate(entries, start=1):
        writer.writerow([rank, venue_id, name, repr(weekly), classify(weekly, args.threshold).value])
    return 0


def cmd_gen_synthetic(args) -> int:
    overrides = {}
    if args.traffic_multiplier is not None:
        overrides["pre_pandemic_level"] = args.traffic_multiplier
    config = GeneratorConfig(
        n_venues=args.n_venues, profile=args.profile, seed=args.seed, **overrides
    )
    table = generate_dataset(config)
    manifest = hashed_manifest(
        {"tool_version": TOOL_VERSION, "generator_config": dataclasses.asdict(config)},
        args.timestamp,
    )
    stamp = f"manifest_sha256: {manifest['manifest_sha256']}"

    venue_buf = io.StringIO()
    write_venues(table.venues, venue_buf, comment=stamp)
    visit_buf = io.StringIO()
    write_visits(table, visit_buf, comment=stamp)
    out_dir = write_reports(args.out, {
        "venues.csv": venue_buf.getvalue(),
        "visits.csv": visit_buf.getvalue(),
        "manifest.json": dump_json(manifest),
    })

    print(f"generated {config.n_venues} venues ({config.profile} traffic) in {out_dir}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
