"""Command-line entry point.

Usage:
    venuerisk simulate --venues venues.csv --visits visits.csv \
        --prevalence 0.001 --out results/
    venuerisk compare --venues venues.csv --visits visits.csv \
        --scenario-a lockdown.txt --scenario-b reopened.txt \
        --prevalence 0.001 --out comparison/
    venuerisk hotspots --results results/venue_results.csv --top 10
    venuerisk gen-synthetic --n-venues 1034 --profile lockdown --seed 7 --out data/

The analysis window is one week (168 hours). Parameters come from
``--prevalence`` and an optional ``key = value`` params file
(``--params``), which can set every ``EpiParams`` field; the documented
prevalence is mandatory because no safe default exists for it. The
params apply to every scenario of a run: a scenario file sets its visit
source and corrections, never a parameter.

Exit codes: 0 success, 1 validation or config error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import math
import sys
from datetime import datetime

from .epi import EpiParams, count_severities
from .errors import ConfigError, InputError, error_context
from .ingest import (
    AREA_UNITS,
    HOTSPOT_COLUMNS,
    MANIFEST_COMMENT,
    SimulationInput,
    VisitRecords,
    join,
    load_visits,
    open_input,
    parse_results,
    parse_venues,
    render_table,
    write_venues,
    write_visits,
)
from .reporting import (
    TOOL_VERSION,
    build_manifest,
    dump_json,
    histogram_csv,
    venue_results_csv,
    write_reports,
)
from .scenario import (
    BASELINE,
    ScenarioConfig,
    build_checked,
    load_scenario_config,
    parse_spacing,
    read_keyvalue,
    run_scenario,
)
from .stats import Scale, classify, combined_range, histogram, welch_t_test
from .synthetic import PROFILES, GeneratorConfig, generate_dataset

T_TEST_KEYS = ("t_stat", "degrees_of_freedom", "p_value")


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors (exit 1), not I/O errors
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _int_at_least(minimum: int, description: str, maximum: float = math.inf):
    """An argparse type: an integer from ``minimum`` to ``maximum``.

    Text that is no such integer gets an error saying ``description``,
    or, for one above ``maximum``, naming that bound.
    """
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            # int() also refuses digit text longer than sys.get_int_max_str_digits():
            # a number that long is above a finite maximum
            if math.isfinite(maximum) and text.strip().removeprefix("+").isdecimal():
                raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {text!r}")
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be {description}, got {text!r}")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1, "a positive integer")
# the most histogram bins a report may have: far more than a plot can show, while
# the bin arrays stay small; a larger count is rejected before any input is read
MAX_BINS = 10_000


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _timestamp(text: str) -> str:
    # kept as given, so a rerun with the same text writes the same manifest
    try:
        datetime.fromisoformat(text)
    except ValueError:
        message = f"must be an ISO 8601 date and time, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None
    return text


def _output_dir(text: str) -> str:
    # a NUL would reach mkdir, whose ValueError names neither the flag nor the path
    if "\0" in text:
        raise argparse.ArgumentTypeError(f"a path cannot hold a NUL byte, got {text!r}")
    return text


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


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--venues", required=True, help="venue CSV (venue_id,name,category,area)")
    sub.add_argument(
        "--visits",
        help="baseline visit CSV (venue_id,hour,count), hour in [0, 168); "
        "required by a scenario on the baseline",
    )
    sub.add_argument(
        "--area-unit",
        choices=list(AREA_UNITS),
        default="m2",
        help="unit of the venue file's area column (default m2)",
    )


def _add_report_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--bins",
        type=_int_at_least(1, "a positive integer", MAX_BINS),
        default=20,
        help=f"histogram bin count, 1 to {MAX_BINS} (default 20)",
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
    _add_output_flags(sub)


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", type=_output_dir, required=True, help="output directory")
    sub.add_argument(
        "--timestamp",
        type=_timestamp,
        help="override the manifest timestamp (ISO 8601) for reproducible manifests",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="venuerisk", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the weekly infection model")
    _add_input_flags(p_sim)
    _add_params_flags(p_sim)
    p_sim.add_argument(
        "--sampling-factor",
        type=float,
        default=ScenarioConfig.sampling_factor,
        help="panel-to-population visit multiplier (default 10)",
    )
    p_sim.add_argument(
        "--spacing",
        help="enforce physical distancing at this spacing, unit suffix required (e.g. 6ft)",
    )
    _add_report_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="run and compare two scenario configs")
    _add_input_flags(p_cmp)
    _add_params_flags(p_cmp)
    p_cmp.add_argument("--scenario-a", required=True, help="scenario config file A")
    p_cmp.add_argument("--scenario-b", required=True, help="scenario config file B")
    _add_report_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_hot = sub.add_parser("hotspots", help="rank venues from a results CSV")
    p_hot.add_argument("--results", required=True, help="venue_results.csv from simulate")
    p_hot.add_argument("--threshold", type=_finite_float, default=1.0, help="severity threshold")
    p_hot.add_argument("--top", type=_positive_int, help="print only the top K venues")
    p_hot.set_defaults(func=cmd_hotspots)

    p_gen = sub.add_parser("gen-synthetic", help="emit a deterministic synthetic dataset")
    p_gen.add_argument("--n-venues", type=_positive_int, required=True)
    p_gen.add_argument("--profile", choices=PROFILES, required=True)
    p_gen.add_argument("--seed", type=_int_at_least(0, "a non-negative integer"), required=True)
    _add_output_flags(p_gen)
    p_gen.set_defaults(func=cmd_gen_synthetic)

    return parser


def _resolve_params(args) -> EpiParams:
    """Merge the params file and ``--prevalence`` into a validated EpiParams; the flag wins.

    The params file is the only parameter text. It is read by
    :func:`~venuerisk.scenario.read_keyvalue`, whose errors name the
    line: a key that is not an ``EpiParams`` field, or a value that is
    not a number. Each value is then checked by ``EpiParams``' own rules
    under its line, by :func:`~venuerisk.scenario.build_checked`, while
    :func:`~venuerisk.ingest.open_input` has the file open, so every
    error names the file and the line (0.0 stands in for a
    ``documented_prevalence`` the file leaves out, which the flag may
    still supply). A file key that the flag overrides is read as text,
    never as a number, and dropped. A bad flag value is then reported
    under the flag's name.
    """
    flags = {} if args.prevalence is None else {"documented_prevalence": args.prevalence}
    values: dict[str, float] = {}
    if args.params:
        fields = {f.name: str if f.name in flags else float for f in dataclasses.fields(EpiParams)}
        with open_input(args.params) as handle:
            read, lines = read_keyvalue(handle, fields)
            values = {key: value for key, value in read.items() if key not in flags}
            lines = {key: line for key, line in lines.items() if key in values}
            # its rules, naming the file and the line
            build_checked(functools.partial(EpiParams, documented_prevalence=0.0), values, lines)
    values.update(flags)
    if "documented_prevalence" not in values:
        message = (
            "documented prevalence is required: pass --prevalence or set "
            "documented_prevalence in the params file (there is no safe default)"
        )
        raise ConfigError(f"{args.params}: {message}" if args.params else message)
    with error_context("argument --prevalence"):  # the file's values are checked above
        return EpiParams(**values)


def _load_base_input(args, names: bool) -> SimulationInput:
    """Parse the venue file, with its names if ``names``, and join the (optional) baseline
    visit file with it.

    The baseline is joined once here, for every scenario that uses it, so
    an unknown visit id fails naming the visit file, before any scenario
    runs. Without ``--visits`` the venue table has no baseline records.
    """
    with open_input(args.venues) as handle:
        venues = parse_venues(handle, args.area_unit, names)
    return load_visits(args.visits, venues) if args.visits else join(venues, VisitRecords())


def _run_scenarios(args, configs: list[ScenarioConfig], config_paths: list[str], names=False):
    """Run each scenario over the shared inputs, in order, and bin their weekly values.

    A scenario on the baseline needs ``--visits``: that is checked here,
    for every command, before any input is read. The baseline records
    are dropped before the first scenario after the last one that reads
    them runs, so before the first scenario when none reads them: the
    scenarios after it get the venue table with no records. When the
    last scenario reads them, they go when this returns, before any
    report is rendered: the reports get the venue table alone. Every
    scenario's histogram has ``--bins`` bins over the one range of all
    the scenarios' binnable values, so they overlay; for one scenario
    that is its own range. Returns the resolved params, the venue table,
    each config's weekly expected infections in venue-table order, their
    histograms, and the manifest over every input file (the scenario
    files in ``config_paths`` included). The venue table has its names
    only where ``names`` asks for them, for a report that writes them.
    """
    for config in configs:
        if config.visit_source == BASELINE and not args.visits:
            raise ConfigError(
                f"scenario {config.name!r} uses the baseline visit source but --visits was not given"
            )
    params = _resolve_params(args)
    baseline = _load_base_input(args, names)
    last_reader = max((i for i, c in enumerate(configs) if c.visit_source == BASELINE), default=-1)
    weeklies = []
    for i, config in enumerate(configs):
        if i == last_reader + 1:
            baseline = SimulationInput.without_visits(baseline.venues)
        weeklies.append(run_scenario(baseline, config, params))
    span = combined_range(weeklies, args.scale)
    hists = [histogram(weekly, args.bins, args.scale, value_range=span) for weekly in weeklies]

    input_paths = [args.venues, *config_paths, *([args.visits] if args.visits else [])]
    input_paths += [c.visit_source for c in configs if c.visit_source != BASELINE]
    payload = {
        "resolved_params": dataclasses.asdict(params),
        "scenario_configs": [dataclasses.asdict(c) for c in configs],
    }
    manifest = build_manifest(input_paths, payload, args.timestamp)
    return params, baseline.venues, weeklies, hists, manifest


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    with error_context("argument --spacing"):
        spacing = None if args.spacing is None else parse_spacing(args.spacing)
    with error_context("argument --sampling-factor"):  # parse_spacing has checked the spacing
        config = ScenarioConfig(
            name="simulate",
            visit_source=BASELINE,
            sampling_factor=args.sampling_factor,
            spacing=spacing,
        )
    params, venues, (weekly,), (hist,), manifest = _run_scenarios(args, [config], [], names=True)
    mhash = manifest["manifest_sha256"]

    severe, mild = count_severities(weekly, args.threshold)
    summary = {
        "manifest_sha256": mhash,
        "scenario": config.name,
        "venue_count": len(weekly),
        "severe_count": severe,
        "mild_count": mild,
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
        "venue_results.csv": venue_results_csv(venues, weekly, params, args.threshold, mhash),
        "histogram.csv": histogram_csv(hist, mhash),
        "summary.json": dump_json(summary),
        "manifest.json": dump_json(manifest),
    })

    print(
        f"venues={summary['venue_count']} severe={severe} "
        f"mild={mild} total_expected_infections={summary['total_expected_infections']!r}"
    )
    print(f"reports written to {out_dir}")
    return 0


def cmd_compare(args) -> int:
    paths = [args.scenario_a, args.scenario_b]
    configs = [load_scenario_config(path) for path in paths]
    _, _, weeklies, (hist_a, hist_b), manifest = _run_scenarios(args, configs, paths)
    mhash = manifest["manifest_sha256"]

    weekly_a, weekly_b = weeklies
    try:
        test = welch_t_test(weekly_a, weekly_b)
        t_test = {key: getattr(test, key) for key in T_TEST_KEYS}
    except ValueError as exc:
        # a legal but degenerate scenario (total closure, a single venue) still gets a report
        t_test = dict.fromkeys(T_TEST_KEYS)
        t_test["t_test_undefined"] = (
            f"scenario_a {configs[0].name!r} vs scenario_b {configs[1].name!r}: {exc}"
        )

    def scenario_report(config, weekly):
        severe, mild = count_severities(weekly, args.threshold)
        return {
            "name": config.name,
            "severe_count": severe,
            "mild_count": mild,
            "mean_weekly_infections": math.fsum(weekly) / len(weekly) if len(weekly) else None,
        }

    scenarios = [scenario_report(config, weekly) for config, weekly in zip(configs, weeklies)]
    report = {
        "manifest_sha256": mhash,
        "scenario_a": scenarios[0],
        "scenario_b": scenarios[1],
        **t_test,
        "severity_threshold": args.threshold,
        "histogram": {
            "scale": args.scale,
            "bins": max(len(hist_a.counts), len(hist_b.counts)),
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

    for side, scenario in zip(("a", "b"), scenarios):
        print(
            f"scenario_{side} {scenario['name']}: "
            f"severe={scenario['severe_count']} mild={scenario['mild_count']}"
        )
    if "t_test_undefined" in t_test:
        print(f"t-test undefined: {t_test['t_test_undefined']}")
    else:
        print(f"t={t_test['t_stat']!r} df={t_test['degrees_of_freedom']!r} p={t_test['p_value']!r}")
    print(f"reports written to {out_dir}")
    return 0


def cmd_hotspots(args) -> int:
    with open_input(args.results) as handle:
        entries = parse_results(handle)
    entries.sort(key=lambda e: (-e[2], e[0]))
    entries = entries[: args.top]  # --top unset is None: every entry
    ids, names, weekly = ([entry[k] for entry in entries] for k in range(3))
    labels = [classify(value, args.threshold).value for value in weekly]
    columns = [range(1, len(entries) + 1), ids, names, weekly, labels]
    sys.stdout.write(render_table(HOTSPOT_COLUMNS, columns))
    return 0


def cmd_gen_synthetic(args) -> int:
    config = GeneratorConfig(args.n_venues, args.profile, args.seed)
    table = generate_dataset(config)
    manifest = build_manifest([], {"generator_config": dataclasses.asdict(config)}, args.timestamp)
    stamp = MANIFEST_COMMENT.format(manifest["manifest_sha256"])

    # the visit text is rendered first, while the record columns are needed; they are
    # dropped before anything else is made. The venue text is rendered, and the venue
    # table dropped, before getvalue copies the visit text out of its buffer, and no
    # buffer outlives its use, so the files are written holding one copy of it
    visit_buf = io.StringIO()
    write_visits(table, visit_buf, comment=stamp)
    venues = table.venues
    del table
    venue_buf = io.StringIO()
    write_venues(venues, venue_buf, comment=stamp)
    del venues
    visits = visit_buf.getvalue()
    del visit_buf
    out_dir = write_reports(args.out, {
        "venues.csv": venue_buf.getvalue(),
        "visits.csv": visits,
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
