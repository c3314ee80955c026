import errno
import hashlib
import json
import math
import os
import re
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from venuerisk import EpiParams, cli, ingest, reporting, scenario, synthetic
from venuerisk.cli import main
from venuerisk.reporting import TOOL_VERSION, dump_json
from conftest import peak_above_kept

SAMPLE_DATA = Path(__file__).resolve().parent.parent / "sample_data"
NO_PREVALENCE = (
    "documented prevalence is required: pass --prevalence or set "
    "documented_prevalence in the params file (there is no safe default)"
)
# the keys a settings file may set, as an unknown key's message lists them
PARAM_KEYS = "documented_prevalence, q, p, ach, ceiling_height, t, underreport_factor"
SCENARIO_KEYS = "name, visits, sampling_factor, spacing"


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def small_dataset(tmp_path):
    """A 100-venue synthetic dataset plus matching pre-pandemic traffic."""
    data = tmp_path / "data"
    assert run_cli(
        "gen-synthetic", "--n-venues", "100", "--profile", "lockdown",
        "--seed", "5", "--out", str(data / "lockdown"),
    ) == 0
    assert run_cli(
        "gen-synthetic", "--n-venues", "100", "--profile", "pre_pandemic",
        "--seed", "5", "--out", str(data / "pre"),
    ) == 0
    return {
        "venues": data / "lockdown" / "venues.csv",
        "visits": data / "lockdown" / "visits.csv",
        "pre_visits": data / "pre" / "visits.csv",
    }


def simulate_args(ds, out, *extra):
    return [
        "simulate",
        "--venues", str(ds["venues"]),
        "--visits", str(ds["visits"]),
        "--prevalence", "0.001",
        "--out", str(out),
        *extra,
    ]


class TestSimulate:
    def test_writes_all_reports(self, small_dataset, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(*simulate_args(small_dataset, out)) == 0
        for name in ("venue_results.csv", "summary.json", "histogram.csv", "manifest.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["venue_count"] == 100
        assert summary["severe_count"] + summary["mild_count"] == 100
        stdout = capsys.readouterr().out
        assert "severe=" in stdout

    def test_outputs_reference_manifest_hash(self, small_dataset, tmp_path):
        out = tmp_path / "run"
        assert run_cli(*simulate_args(small_dataset, out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        mhash = manifest["manifest_sha256"]
        assert re.fullmatch(r"[0-9a-f]{64}", mhash)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["manifest_sha256"] == mhash
        for name in ("venue_results.csv", "histogram.csv"):
            first_line = (out / name).read_text().splitlines()[0]
            assert first_line == f"# manifest_sha256: {mhash}"

    def test_byte_identical_reruns(self, small_dataset, tmp_path):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert run_cli(*simulate_args(small_dataset, out1)) == 0
        assert run_cli(*simulate_args(small_dataset, out2)) == 0
        for name in ("venue_results.csv", "summary.json", "histogram.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        # manifests may differ only in the run timestamp
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        m1.pop("timestamp"), m2.pop("timestamp")
        assert m1 == m2

    def test_fixed_timestamp_makes_manifest_identical(self, small_dataset, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        stamp = "2020-11-02T00:00:00+00:00"
        for out in (out1, out2):
            assert run_cli(*simulate_args(small_dataset, out, "--timestamp", stamp)) == 0
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()

    def test_all_zero_visits(self, small_dataset, tmp_path):
        empty = tmp_path / "empty_visits.csv"
        empty.write_text("venue_id,hour,count\n", encoding="utf-8")
        out = tmp_path / "run"
        ds = dict(small_dataset, visits=empty)
        assert run_cli(*simulate_args(ds, out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["severe_count"] == 0
        assert summary["total_expected_infections"] == 0.0

    def test_single_venue_oracle_row(self, tmp_path):
        venues = tmp_path / "venues.csv"
        venues.write_text("venue_id,name,category,area\nv1,Cafe,restaurant,100\n", encoding="utf-8")
        visits = tmp_path / "visits.csv"
        visits.write_text("venue_id,hour,count\nv1,10,50\n", encoding="utf-8")
        out = tmp_path / "run"
        code = run_cli(
            "simulate", "--venues", str(venues), "--visits", str(visits),
            "--prevalence", "0.001", "--sampling-factor", "1", "--out", str(out),
        )
        assert code == 0
        rows = [
            line for line in (out / "venue_results.csv").read_text().splitlines()
            if line.startswith("v1,")
        ]
        weekly = float(rows[0].split(",")[5])
        assert weekly == pytest.approx(0.29461527034368821, rel=1e-9)

    def test_missing_prevalence_is_validation_error(self, small_dataset, tmp_path, capsys):
        code = run_cli(
            "simulate", "--venues", str(small_dataset["venues"]),
            "--visits", str(small_dataset["visits"]), "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {NO_PREVALENCE}\n"

    def test_params_file_without_prevalence_names_the_file(self, tmp_path, capsys):
        # sample_data's params file cut before its last two lines, documented_prevalence among them
        params = tmp_path / "params.txt"
        lines = (SAMPLE_DATA / "params.txt").read_text(encoding="utf-8").splitlines(keepends=True)
        params.write_text("".join(lines[:-2]), encoding="utf-8")
        code = run_cli(
            "simulate", "--venues", str(SAMPLE_DATA / "venues.csv"),
            "--visits", str(SAMPLE_DATA / "visits.csv"), "--params", str(params),
            "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {params}: {NO_PREVALENCE}\n"

    def test_overflowing_sampling_factor_names_scenario_and_factor(
        self, small_dataset, tmp_path, capsys
    ):
        # every count times 1e308 overflows; pytest turns NumPy's overflow warning into an error
        out = tmp_path / "x"
        code = run_cli(*simulate_args(small_dataset, out, "--sampling-factor", "1e308"))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: scenario 'simulate': sampling factor 1e+308 makes a visitor count "
            "overflow to infinity\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("factor", ["1e307", "2.5e306"])
    def test_overflowing_weekly_infections_name_scenario_and_factor(self, tmp_path, capsys, factor):
        # every count stays finite; at 1e307 a weekly value overflows, at 2.5e306 only their total
        out = tmp_path / "x"
        code = run_cli(
            "simulate", "--venues", str(SAMPLE_DATA / "venues.csv"),
            "--visits", str(SAMPLE_DATA / "visits.csv"), "--params", str(SAMPLE_DATA / "params.txt"),
            "--sampling-factor", factor, "--out", str(out),
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: scenario 'simulate': sampling factor {float(factor)!r} makes the weekly "
            "infections overflow to infinity\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "params, visits",
        [
            # every dose's numerator and its air flow overflow: inf / inf
            ("q = 1e308\np = 1e308\nach = 1e308\nceiling_height = 1e308\n", None),
            # a record of no visitors in a room whose air flow underflows: 0 / 0
            ("ach = 1e-200\nceiling_height = 1e-200\n", "venue_id,hour,count\nr001,3,0\n"),
        ],
        ids=["inf-over-inf", "zero-over-zero"],
    )
    def test_undefined_dose_is_one_error_line_naming_the_scenario(
        self, tmp_path, capsys, params, visits
    ):
        params_path = tmp_path / "params.txt"
        params_path.write_text(params + "documented_prevalence = 0.001\n", encoding="utf-8")
        visits_path = SAMPLE_DATA / "visits.csv"
        if visits is not None:
            visits_path = tmp_path / "visits.csv"
            visits_path.write_text(visits, encoding="utf-8")
        out = tmp_path / "x"
        # pytest turns NumPy's invalid-value warning into an error, so no warning may escape
        code = run_cli(
            "simulate", "--venues", str(SAMPLE_DATA / "venues.csv"), "--visits", str(visits_path),
            "--params", str(params_path), "--out", str(out),
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: scenario 'simulate': sampling factor 10.0, the venue areas and the "
            "parameters make an infection dose inf/inf or 0/0, so the weekly infections are "
            "undefined\n"
        )
        assert not out.exists()

    def test_missing_file_is_io_error(self, small_dataset, tmp_path):
        code = run_cli(
            "simulate", "--venues", str(tmp_path / "nope.csv"),
            "--visits", str(small_dataset["visits"]),
            "--prevalence", "0.001", "--out", str(tmp_path / "x"),
        )
        assert code == 2

    def test_malformed_venue_file_is_validation_error(self, small_dataset, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("venue_id,name,category,area\nv1,Cafe,restaurant,-3\n", encoding="utf-8")
        code = run_cli(
            "simulate", "--venues", str(bad), "--visits", str(small_dataset["visits"]),
            "--prevalence", "0.001", "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert f"{bad}: line 2" in capsys.readouterr().err

    def test_empty_venue_file_names_the_file(self, small_dataset, tmp_path, capsys):
        empty = tmp_path / "empty_venues.csv"
        empty.write_text("", encoding="utf-8")
        code = run_cli(
            "simulate", "--venues", str(empty), "--visits", str(small_dataset["visits"]),
            "--prevalence", "0.001", "--out", str(tmp_path / "x"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{empty}: venue file has no header" in err
        assert "unknown venue" not in err

    def test_malformed_visit_row_names_the_file(self, small_dataset, tmp_path, capsys):
        bad = tmp_path / "bad_visits.csv"
        bad.write_text("venue_id,hour,count\nv00001,3,abc\n", encoding="utf-8")
        ds = dict(small_dataset, visits=bad)
        assert run_cli(*simulate_args(ds, tmp_path / "x")) == 1
        assert f"{bad}: line 2: count 'abc' is not a number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "which, text",
        [
            ("venues", "# stamp\nvenue_id,name,category,area\nv1,{big},restaurant,10\n"),
            ("visits", "venue_id,hour,count\nv00001,3,1\n{big},4,1\n"),
        ],
        ids=["venues", "visits"],
    )
    def test_oversized_field_names_file_and_line(
        self, small_dataset, tmp_path, capsys, which, text
    ):
        # 131 072 characters is the csv reader's field size limit
        bad = tmp_path / f"{which}.csv"
        bad.write_text(text.format(big="x" * 140_000), encoding="utf-8")
        ds = dict(small_dataset, **{which: bad})
        assert run_cli(*simulate_args(ds, tmp_path / "x")) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: line 3: field larger than field limit (131072)\n"

    def test_malformed_params_line_names_the_file(self, small_dataset, tmp_path, capsys):
        params = tmp_path / "params.txt"
        params.write_text("q 20\n", encoding="utf-8")
        assert run_cli(*simulate_args(small_dataset, tmp_path / "x", "--params", str(params))) == 1
        assert f"{params}: line 1: expected 'key = value'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("q = -1", "q must be positive and finite, got -1.0"),
            ("ceiling_height = inf", "ceiling_height must be positive and finite, got inf"),
            ("documented_prevalence = 1.5", "documented_prevalence must be in [0, 1], got 1.5"),
            ("underreport_factor = 0.5", "underreport_factor must be >= 1, got 0.5"),
            ("quanta = 1", f"line 1: unknown key 'quanta', expected one of: {PARAM_KEYS}"),
            ("q = x", "line 1: q: could not convert string to float: 'x'"),
        ],
        ids=["q", "ceiling_height", "documented_prevalence", "underreport_factor", "unknown", "text"],
    )
    def test_invalid_params_value_names_the_file(
        self, small_dataset, tmp_path, capsys, line, message
    ):
        params = tmp_path / "params.txt"
        params.write_text(f"{line}\n", encoding="utf-8")
        args = simulate_args(small_dataset, tmp_path / "x", "--params", str(params))
        if line.startswith("documented_prevalence"):
            # --prevalence would override the file's value, which is then never read
            flag = args.index("--prevalence")
            del args[flag:flag + 2]
        assert run_cli(*args) == 1
        assert capsys.readouterr().err == f"error: {params}: {message}\n"

    def test_invalid_flag_is_not_blamed_on_the_params_file(self, small_dataset, tmp_path, capsys):
        params = tmp_path / "params.txt"
        params.write_text("q = 20\ndocumented_prevalence = 2\n", encoding="utf-8")
        args = simulate_args(small_dataset, tmp_path / "x", "--params", str(params))
        # the flag's valid prevalence overrides the file's invalid one
        assert run_cli(*args) == 0
        capsys.readouterr()
        assert run_cli(*args, "--prevalence", "2") == 1
        assert capsys.readouterr().err == (
            "error: argument --prevalence: documented_prevalence must be in [0, 1], got 2.0\n"
        )

    def test_without_visits_flag_is_error_before_any_input_is_read(self, tmp_path, capsys):
        # --venues names a missing file, so exit 1 (not the i/o error's 2) shows none was read
        out = tmp_path / "x"
        code = run_cli(
            "simulate", "--venues", str(tmp_path / "nope.csv"), "--prevalence", "0.001",
            "--out", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: scenario 'simulate' uses the baseline visit source but --visits was not given\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--sampling-factor", "0", "sampling_factor must be positive, got 0.0"),
            ("--spacing", "0ft", "must be positive, got '0ft'"),
            # an empty spacing once turned distancing off
            ("--spacing", "", "'' must be a number with a unit suffix, e.g. 6ft or 1.8288m"),
            ("--spacing", "1..2ft", "'1..2ft' has a malformed number"),
        ],
        ids=["sampling-factor", "spacing", "empty-spacing", "malformed-spacing"],
    )
    def test_rejected_flag_value_names_the_flag(
        self, small_dataset, tmp_path, capsys, flag, value, message
    ):
        out = tmp_path / "x"
        assert run_cli(*simulate_args(small_dataset, out, f"{flag}={value}")) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: argument {flag}: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_empty_visit_file_names_the_file(self, small_dataset, tmp_path, capsys):
        empty = tmp_path / "empty_visits.csv"
        empty.write_text("", encoding="utf-8")
        ds = dict(small_dataset, visits=empty)
        assert run_cli(*simulate_args(ds, tmp_path / "x")) == 1
        assert f"{empty}: visit file has no header" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc"])
    def test_non_finite_threshold_rejected(self, small_dataset, tmp_path, capsys, value):
        out = tmp_path / "x"
        assert run_cli(*simulate_args(small_dataset, out, f"--threshold={value}")) == 1
        captured = capsys.readouterr()
        assert f"--threshold: must be a finite number, got {value!r}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, bins, problem",
        [
            ("simulate", "0", "must be a positive integer"),
            ("compare", "0", "must be a positive integer"),
            ("simulate", "abc", "must be a positive integer"),
            ("compare", str(cli.MAX_BINS + 1), f"must be at most {cli.MAX_BINS}"),
            # a count past any memory is rejected before the run, naming the flag
            ("simulate", "99999999999999999999", f"must be at most {cli.MAX_BINS}"),
            # more digits than int() converts: still a number above the bound
            ("compare", "9" * 5000, f"must be at most {cli.MAX_BINS}"),
            ("simulate", "9" * 5000 + "x", "must be a positive integer"),
        ],
        ids=[
            "simulate-0", "compare-0", "simulate-abc", "compare-past-max", "simulate-huge",
            "compare-past-int-digits", "simulate-long-non-integer",
        ],
    )
    def test_bad_bins_rejected_before_reading(self, tmp_path, capsys, command, bins, problem):
        # every input names a missing file, so exit 1 (not the i/o error's 2) shows none was read
        missing = str(tmp_path / "nope.csv")
        inputs = {
            "simulate": ["--visits", missing],
            "compare": ["--scenario-a", missing, "--scenario-b", missing],
        }[command]
        out = tmp_path / "x"
        assert run_cli(
            command, "--venues", missing, *inputs, "--prevalence", "0.001",
            "--bins", bins, "--out", str(out),
        ) == 1
        assert capsys.readouterr().err.endswith(f"error: argument --bins: {problem}, got {bins!r}\n")
        assert not out.exists()

    def test_reports_are_readable_under_umask_022(self, small_dataset, tmp_path):
        out = tmp_path / "run"
        old = os.umask(0o022)
        try:
            assert run_cli(*simulate_args(small_dataset, out)) == 0
            assert run_cli(
                "gen-synthetic", "--n-venues", "3", "--profile", "lockdown",
                "--seed", "1", "--out", str(out / "gen"),
            ) == 0
        finally:
            os.umask(old)
        files = [p for p in out.rglob("*") if p.is_file()]
        assert len(files) == 7
        for path in files:
            assert path.stat().st_mode & 0o777 == 0o644, path

    def test_bad_flag_is_validation_error(self, capsys):
        assert run_cli("simulate", "--no-such-flag") == 1

    def test_params_file(self, small_dataset, tmp_path):
        params = tmp_path / "params.txt"
        params.write_text(
            "q = 20\np = 0.48\nach = 4\nceiling_height = 3\nt = 1\n"
            "documented_prevalence = 0.001\nunderreport_factor = 15\n",
            encoding="utf-8",
        )
        out1, out2 = tmp_path / "from_file", tmp_path / "from_flags"
        code = run_cli(
            "simulate", "--venues", str(small_dataset["venues"]),
            "--visits", str(small_dataset["visits"]),
            "--params", str(params), "--out", str(out1),
        )
        assert code == 0
        assert run_cli(*simulate_args(small_dataset, out2)) == 0
        assert (out1 / "venue_results.csv").read_bytes() == (out2 / "venue_results.csv").read_bytes()

    def test_spacing_flag_reduces_infections(self, small_dataset, tmp_path):
        plain, spaced = tmp_path / "plain", tmp_path / "spaced"
        assert run_cli(*simulate_args(small_dataset, plain)) == 0
        assert run_cli(*simulate_args(small_dataset, spaced, "--spacing", "6ft")) == 0
        total = lambda p: json.loads((p / "summary.json").read_text())["total_expected_infections"]
        assert total(spaced) <= total(plain)

    def test_area_unit_flag(self, tmp_path):
        venues_m2 = tmp_path / "m2.csv"
        venues_m2.write_text("venue_id,name,category,area\nv1,Cafe,restaurant,92.90304\n", encoding="utf-8")
        venues_ft2 = tmp_path / "ft2.csv"
        venues_ft2.write_text("venue_id,name,category,area\nv1,Cafe,restaurant,1000\n", encoding="utf-8")
        visits = tmp_path / "visits.csv"
        visits.write_text("venue_id,hour,count\nv1,0,20\n", encoding="utf-8")
        outs = []
        for venues, unit in ((venues_m2, "m2"), (venues_ft2, "ft2")):
            out = tmp_path / f"out_{unit}"
            code = run_cli(
                "simulate", "--venues", str(venues), "--visits", str(visits),
                "--area-unit", unit, "--prevalence", "0.001", "--out", str(out),
            )
            assert code == 0
            outs.append(json.loads((out / "summary.json").read_text()))
        assert outs[0]["total_expected_infections"] == pytest.approx(
            outs[1]["total_expected_infections"], rel=1e-12
        )

    def test_area_that_converts_to_zero_names_file_and_line(self, tmp_path, capsys):
        # 1e-323 ft2 is 0 m2: each area is checked after its conversion, on its own line
        venues = tmp_path / "venues.csv"
        venues.write_text(
            "venue_id,name,category,area\nv1,Cafe,restaurant,1000\nv2,Bar,pub,1e-323\n",
            encoding="utf-8",
        )
        visits = tmp_path / "visits.csv"
        visits.write_text("venue_id,hour,count\nv1,0,20\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(
            "simulate", "--venues", str(venues), "--visits", str(visits),
            "--area-unit", "ft2", "--prevalence", "0.001", "--out", str(out),
        ) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {venues}: line 3: area must be positive and finite, got 1e-323\n"
        )
        assert not out.exists()


class TestCompare:
    def _scenarios(self, tmp_path, small_dataset):
        a = tmp_path / "lockdown.txt"
        a.write_text("name = lockdown\nvisits = baseline\nsampling_factor = 10\n", encoding="utf-8")
        b = tmp_path / "reopened.txt"
        b.write_text(
            f"name = reopened\nvisits = {small_dataset['pre_visits']}\nsampling_factor = 10\n",
            encoding="utf-8",
        )
        return a, b

    def test_compare_writes_reports(self, small_dataset, tmp_path, capsys):
        a, b = self._scenarios(tmp_path, small_dataset)
        out = tmp_path / "cmp"
        code = run_cli(
            "compare", "--venues", str(small_dataset["venues"]),
            "--visits", str(small_dataset["visits"]),
            "--scenario-a", str(a), "--scenario-b", str(b),
            "--prevalence", "0.001", "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "comparison.json").read_text())
        assert 0.0 <= report["p_value"] <= 1.0
        assert report["scenario_a"]["name"] == "lockdown"
        assert report["scenario_b"]["name"] == "reopened"
        assert (out / "histogram_a.csv").exists() and (out / "histogram_b.csv").exists()
        stdout = capsys.readouterr().out
        assert "t=" in stdout and "p=" in stdout

    def test_self_comparison(self, small_dataset, tmp_path):
        a, _ = self._scenarios(tmp_path, small_dataset)
        out = tmp_path / "self"
        code = run_cli(
            "compare", "--venues", str(small_dataset["venues"]),
            "--visits", str(small_dataset["visits"]),
            "--scenario-a", str(a), "--scenario-b", str(a),
            "--prevalence", "0.001", "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "comparison.json").read_text())
        assert report["t_stat"] == 0.0
        assert report["p_value"] == 1.0
        assert (out / "histogram_a.csv").read_bytes() == (out / "histogram_b.csv").read_bytes()

    def test_histograms_share_edges(self, small_dataset, tmp_path):
        a, b = self._scenarios(tmp_path, small_dataset)
        out = tmp_path / "cmp"
        assert run_cli(
            "compare", "--venues", str(small_dataset["venues"]),
            "--visits", str(small_dataset["visits"]),
            "--scenario-a", str(a), "--scenario-b", str(b),
            "--prevalence", "0.001", "--out", str(out),
        ) == 0

        def edges(path):
            rows = [
                line.split(",")[:2]
                for line in path.read_text().splitlines()
                if line and not line.startswith("#") and not line.startswith("bin_lo")
            ]
            return rows

        assert edges(out / "histogram_a.csv") == edges(out / "histogram_b.csv")

    def test_log10_histograms_share_edges_on_sample_data(self, tmp_path):
        out = tmp_path / "cmp"
        assert run_cli(
            "compare", "--venues", str(SAMPLE_DATA / "venues.csv"),
            "--visits", str(SAMPLE_DATA / "visits.csv"),
            "--params", str(SAMPLE_DATA / "params.txt"),
            "--scenario-a", str(SAMPLE_DATA / "scenario_lockdown.txt"),
            "--scenario-b", str(SAMPLE_DATA / "scenario_reopened.txt"),
            "--scale", "log10", "--out", str(out),
        ) == 0
        hist_a, hist_b = (
            (out / f"histogram_{side}.csv").read_text().splitlines() for side in "ab"
        )
        # the lockdown week leaves one of the 4 venues without visits, and log10 cannot bin its 0
        assert hist_a[1] == "# scale: log10, excluded_count: 1"
        assert hist_b[1] == "# scale: log10, excluded_count: 0"
        rows_a, rows_b = ([line.split(",") for line in hist[3:]] for hist in (hist_a, hist_b))
        assert len(rows_a) == 20
        assert [row[:2] for row in rows_a] == [row[:2] for row in rows_b]
        assert sum(int(row[2]) for row in rows_a) == 3
        assert sum(int(row[2]) for row in rows_b) == 4
        histogram = json.loads((out / "comparison.json").read_text())["histogram"]
        assert (histogram["excluded_count_a"], histogram["excluded_count_b"]) == (1, 0)

    def test_baseline_without_visits_flag_is_error(self, small_dataset, tmp_path, capsys):
        a, _ = self._scenarios(tmp_path, small_dataset)
        code = run_cli(
            "compare", "--venues", str(small_dataset["venues"]),
            "--scenario-a", str(a), "--scenario-b", str(a),
            "--prevalence", "0.001", "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert "baseline" in capsys.readouterr().err

    def test_rejected_override_names_the_scenario(self, small_dataset, tmp_path, capsys):
        a, _ = self._scenarios(tmp_path, small_dataset)
        neg = tmp_path / "neg.txt"
        neg.write_text("name = negative_factor\nsampling_factor = -1\n", encoding="utf-8")
        code = run_cli(
            "compare", "--venues", str(small_dataset["venues"]),
            "--visits", str(small_dataset["visits"]),
            "--scenario-a", str(a), "--scenario-b", str(neg),
            "--prevalence", "0.001", "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert "scenario 'negative_factor': sampling_factor must be positive" in (
            capsys.readouterr().err
        )

    def test_rejected_override_fails_before_reading(self, small_dataset, tmp_path, capsys):
        # the inputs name missing files, so exit 1 (not the i/o error's 2) shows none was read
        a, _ = self._scenarios(tmp_path, small_dataset)
        neg = tmp_path / "neg.txt"
        neg.write_text("name = negative_factor\nsampling_factor = -1\n", encoding="utf-8")
        missing = str(tmp_path / "nope.csv")
        out = tmp_path / "x"
        code = run_cli(
            "compare", "--venues", missing, "--visits", missing,
            "--scenario-a", str(a), "--scenario-b", str(neg),
            "--prevalence", "0.001", "--out", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {neg}: scenario 'negative_factor': sampling_factor must be positive, "
            "got -1.0\n"
        )
        assert not out.exists()

    def test_param_key_is_an_unknown_scenario_key(self, small_dataset, tmp_path, capsys):
        # every scenario runs on the one set of params; the inputs name missing files, so
        # exit 1 (not the i/o error's 2) shows that none was read
        a, _ = self._scenarios(tmp_path, small_dataset)
        neg = tmp_path / "neg.txt"
        neg.write_text("name = negative_q\nparam.q = -1\n", encoding="utf-8")
        missing = str(tmp_path / "nope.csv")
        out = tmp_path / "x"
        code = run_cli(
            "compare", "--venues", missing, "--visits", missing,
            "--scenario-a", str(a), "--scenario-b", str(neg),
            "--prevalence", "0.001", "--out", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {neg}: line 2: unknown key 'param.q', expected one of: {SCENARIO_KEYS}\n"
        )
        assert not out.exists()

    def test_overflowing_sampling_factor_names_scenario_and_factor(
        self, small_dataset, tmp_path, capsys
    ):
        a, _ = self._scenarios(tmp_path, small_dataset)
        huge = tmp_path / "huge.txt"
        huge.write_text("name = huge\nsampling_factor = 1e308\n", encoding="utf-8")
        out = tmp_path / "x"
        code = run_cli(
            "compare", "--venues", str(small_dataset["venues"]),
            "--visits", str(small_dataset["visits"]),
            "--scenario-a", str(a), "--scenario-b", str(huge),
            "--prevalence", "0.001", "--out", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: scenario 'huge': sampling factor 1e+308 makes a visitor count "
            "overflow to infinity\n"
        )
        assert not out.exists()

    def test_overflowing_weekly_total_names_scenario_and_factor(self, tmp_path, capsys):
        huge = tmp_path / "huge.txt"
        huge.write_text("name = huge\nsampling_factor = 3e306\n", encoding="utf-8")
        out = tmp_path / "x"
        code = run_cli(
            "compare", "--venues", str(SAMPLE_DATA / "venues.csv"),
            "--visits", str(SAMPLE_DATA / "visits.csv"), "--params", str(SAMPLE_DATA / "params.txt"),
            "--scenario-a", str(SAMPLE_DATA / "scenario_lockdown.txt"), "--scenario-b", str(huge),
            "--out", str(out),
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: scenario 'huge': sampling factor 3e+306 makes the weekly infections "
            "overflow to infinity\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "factor, problem",
        [
            ("1e306", "the variance of sample b overflows to infinity"),
            ("1e100", "the degrees of freedom overflow: the variances are too large"),
        ],
        ids=["variance", "degrees-of-freedom"],
    )
    def test_overflowing_welch_statistic_is_reported_without_a_warning(
        self, tmp_path, capsys, factor, problem
    ):
        # the weekly values and their total are finite, so the reports are written
        huge = tmp_path / "huge.txt"
        huge.write_text(f"name = huge\nsampling_factor = {factor}\n", encoding="utf-8")
        out = tmp_path / "cmp"
        with warnings.catch_warnings():
            warnings.simplefilter("default")  # printed to stderr, as outside the test suite
            code = run_cli(
                "compare", "--venues", str(SAMPLE_DATA / "venues.csv"),
                "--visits", str(SAMPLE_DATA / "visits.csv"),
                "--params", str(SAMPLE_DATA / "params.txt"),
                "--scenario-a", str(SAMPLE_DATA / "scenario_lockdown.txt"),
                "--scenario-b", str(huge), "--out", str(out),
            )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        undefined = f"scenario_a 'lockdown' vs scenario_b 'huge': {problem}"
        assert f"t-test undefined: {undefined}\n" in captured.out
        report = json.loads((out / "comparison.json").read_text())
        assert report["t_test_undefined"] == undefined
        assert report["t_stat"] is report["degrees_of_freedom"] is report["p_value"] is None

    def test_unknown_id_in_scenario_visit_file_names_scenario_and_file(
        self, small_dataset, tmp_path, capsys
    ):
        a, _ = self._scenarios(tmp_path, small_dataset)
        ghost = tmp_path / "ghost.csv"
        ghost.write_text("venue_id,hour,count\nv00001,3,2\nghost,0,5\n", encoding="utf-8")
        alt = tmp_path / "alt.txt"
        alt.write_text("name = alt\nvisits = ghost.csv\n", encoding="utf-8")
        out = tmp_path / "x"
        code = run_cli(
            "compare", "--venues", str(small_dataset["venues"]),
            "--visits", str(small_dataset["visits"]),
            "--scenario-a", str(a), "--scenario-b", str(alt),
            "--prevalence", "0.001", "--out", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: scenario 'alt': {ghost}: visit series reference 1 unknown venue id(s): "
            "'ghost'\n"
        )
        assert not out.exists()

    def test_empty_scenario_visit_file_names_scenario_and_file(
        self, small_dataset, tmp_path, capsys
    ):
        a, _ = self._scenarios(tmp_path, small_dataset)
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        truncated = tmp_path / "truncated.txt"
        truncated.write_text("name = truncated\nvisits = empty.csv\n", encoding="utf-8")
        code = run_cli(
            "compare", "--venues", str(small_dataset["venues"]),
            "--visits", str(small_dataset["visits"]),
            "--scenario-a", str(a), "--scenario-b", str(truncated),
            "--prevalence", "0.001", "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert f"scenario 'truncated': {empty}: visit file has no header" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "corrupted, context",
        [("venues", ""), ("visits", ""), ("pre_visits", "scenario 'reopened': ")],
    )
    def test_non_utf8_byte_names_the_file(
        self, small_dataset, tmp_path, monkeypatch, capsys, corrupted, context
    ):
        # a byte no UTF-8 text holds, at a line start halfway through the file: past the
        # first parse block of a visit file, as blocks are a few rows long here
        monkeypatch.setattr(ingest, "_PARSE_BLOCK_CHARS", 64)
        path = small_dataset[corrupted]
        data = path.read_bytes()
        middle = data.index(b"\n", len(data) // 2) + 1
        path.write_bytes(data[:middle] + b"\xff" + data[middle:])
        a, b = self._scenarios(tmp_path, small_dataset)
        out = tmp_path / "x"
        code = run_cli(
            "compare", "--venues", str(small_dataset["venues"]),
            "--visits", str(small_dataset["visits"]),
            "--scenario-a", str(a), "--scenario-b", str(b),
            "--prevalence", "0.001", "--out", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {context}{path}: not UTF-8 text: byte 0xff: invalid start byte\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, code", [("vis\0its.csv", 1), ("nope.csv", 2)], ids=["nul", "missing"]
    )
    def test_unopenable_scenario_visit_file(
        self, small_dataset, tmp_path, capsys, name, code
    ):
        # a path no file can have is an input error naming the scenario and the path; a
        # missing file stays an i/o error
        a, _ = self._scenarios(tmp_path, small_dataset)
        b = tmp_path / "broken.txt"
        b.write_text(f"name = broken\nvisits = {name}\nsampling_factor = 10\n", encoding="utf-8")
        out = tmp_path / "x"
        assert run_cli(
            "compare", "--venues", str(small_dataset["venues"]),
            "--visits", str(small_dataset["visits"]),
            "--scenario-a", str(a), "--scenario-b", str(b),
            "--prevalence", "0.001", "--out", str(out),
        ) == code
        err = capsys.readouterr().err
        if code == 1:
            path = str(tmp_path / name)
            assert err == f"error: scenario 'broken': cannot open {path!r}: embedded null byte\n"
        else:
            assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_non_finite_threshold_rejected(self, small_dataset, tmp_path, capsys):
        a, b = self._scenarios(tmp_path, small_dataset)
        code = run_cli(
            "compare", "--venues", str(small_dataset["venues"]),
            "--visits", str(small_dataset["visits"]),
            "--scenario-a", str(a), "--scenario-b", str(b),
            "--prevalence", "0.001", "--threshold", "nan", "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert "--threshold: must be a finite number" in capsys.readouterr().err

    def test_total_closure_on_both_sides_reports_its_one_bin(self, small_dataset, tmp_path):
        # every weekly value is 0: each histogram has one degenerate bin, and says so
        closed = tmp_path / "no_visits.csv"
        closed.write_text("venue_id,hour,count\n", encoding="utf-8")
        a, _ = self._scenarios(tmp_path, small_dataset)
        inputs = [
            "--venues", str(small_dataset["venues"]), "--visits", str(closed),
            "--prevalence", "0.001",
        ]
        assert run_cli("simulate", *inputs, "--out", str(tmp_path / "sim")) == 0
        assert run_cli(
            "compare", *inputs, "--scenario-a", str(a), "--scenario-b", str(a),
            "--out", str(tmp_path / "cmp"),
        ) == 0
        summary = json.loads((tmp_path / "sim" / "summary.json").read_text())
        report = json.loads((tmp_path / "cmp" / "comparison.json").read_text())
        assert summary["histogram"]["bins"] == report["histogram"]["bins"] == 1
        for name in ("sim/histogram.csv", "cmp/histogram_a.csv", "cmp/histogram_b.csv"):
            rows = (tmp_path / name).read_text().splitlines()[3:]
            assert [row.split(",")[2] for row in rows] == ["100"], name

    def test_log10_side_with_nothing_to_bin_reports_the_other_sides_bins(
        self, small_dataset, tmp_path
    ):
        _, b = self._scenarios(tmp_path, small_dataset)
        (tmp_path / "no_visits.csv").write_text("venue_id,hour,count\n", encoding="utf-8")
        closed = tmp_path / "closed.txt"
        closed.write_text("name = closure\nvisits = no_visits.csv\n", encoding="utf-8")
        out = tmp_path / "cmp"
        assert run_cli(
            "compare", "--venues", str(small_dataset["venues"]),
            "--scenario-a", str(closed), "--scenario-b", str(b), "--prevalence", "0.001",
            "--scale", "log10", "--bins", "7", "--out", str(out),
        ) == 0
        rows_a, rows_b = (
            (out / f"histogram_{side}.csv").read_text().splitlines()[3:] for side in "ab"
        )
        assert (len(rows_a), len(rows_b)) == (0, 7)
        histogram = json.loads((out / "comparison.json").read_text())["histogram"]
        assert histogram["bins"] == 7
        assert (histogram["excluded_count_a"], histogram["excluded_count_b"]) == (100, 0)

    def test_total_closure_still_reports(self, small_dataset, tmp_path, capsys):
        a, _ = self._scenarios(tmp_path, small_dataset)
        (tmp_path / "no_visits.csv").write_text("venue_id,hour,count\n", encoding="utf-8")
        closed = tmp_path / "closed.txt"
        closed.write_text("name = closure\nvisits = no_visits.csv\n", encoding="utf-8")
        out = tmp_path / "cmp"
        code = run_cli(
            "compare", "--venues", str(small_dataset["venues"]),
            "--visits", str(small_dataset["visits"]),
            "--scenario-a", str(a), "--scenario-b", str(closed),
            "--prevalence", "0.001", "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "comparison.json").read_text())
        assert report["t_stat"] is None
        assert report["degrees_of_freedom"] is None
        assert report["p_value"] is None
        assert "'closure'" in report["t_test_undefined"]
        assert "zero variance" in report["t_test_undefined"]
        assert report["scenario_b"]["severe_count"] == 0
        assert report["scenario_b"]["mean_weekly_infections"] == 0.0
        assert (out / "histogram_a.csv").exists() and (out / "histogram_b.csv").exists()
        assert "t-test undefined" in capsys.readouterr().out


SETTINGS_FILES = {
    # kind: (the key set on line 2, a key whose value is a number, the keys the file may set)
    "params": ("p", "q", PARAM_KEYS),
    "scenario": ("name", "sampling_factor", SCENARIO_KEYS),
}
SETTINGS_ERRORS = {
    # case: (line 3 of the file, the message after "line 3: ", per kind where they differ)
    "no-equals": ("{key} 20", "expected 'key = value', got '{key} 20'"),
    "empty-key": ("= 20", "empty key or value in '= 20'"),
    "empty-value": ("{key} =", "empty key or value in '{key} ='"),
    "duplicate": ("{first} = 2", "duplicate key '{first}'"),
    "unknown": ("venue_cap = 5", "unknown key 'venue_cap', expected one of: {keys}"),
    "not-a-number": ("{key} = ten", "{key}: could not convert string to float: 'ten'"),
    "spacing": (
        "spacing = 6",
        {
            "params": "unknown key 'spacing', expected one of: {keys}",
            "scenario": "spacing: '6' must be a number with a unit suffix, e.g. 6ft or 1.8288m",
        },
    ),
}


@pytest.mark.parametrize("case", SETTINGS_ERRORS)
@pytest.mark.parametrize("kind", SETTINGS_FILES)
def test_settings_file_error_names_its_line(kind, case, tmp_path, capsys):
    # line 1 is a comment and line 2 is valid: the line count is the file's own. The
    # inputs name missing files, so exit 1 (not the i/o error's 2) shows none was read
    first, key, keys = SETTINGS_FILES[kind]
    line, message = SETTINGS_ERRORS[case]
    message = message[kind] if isinstance(message, dict) else message
    settings = tmp_path / f"{kind}.txt"
    line = line.format(first=first, key=key)
    settings.write_text(f"# settings\n{first} = 1\n{line}\n", encoding="utf-8")
    missing, out = str(tmp_path / "nope.csv"), tmp_path / "x"
    inputs = ["--venues", missing, "--visits", missing, "--out", str(out)]
    if kind == "params":
        argv = ["simulate", *inputs, "--params", str(settings)]
    else:
        argv = ["compare", *inputs, "--prevalence", "0.001"]
        argv += ["--scenario-a", str(settings), "--scenario-b", str(settings)]
    assert run_cli(*argv) == 1
    expected = message.format(first=first, key=key, keys=keys)
    assert capsys.readouterr().err == f"error: {settings}: line 3: {expected}\n"
    assert not out.exists()


def test_header_only_inputs_give_header_only_tables(tmp_path, capsys):
    # no venue at all: every table is its comment lines and header, with no row
    venues, visits = tmp_path / "venues.csv", tmp_path / "visits.csv"
    venues.write_text("venue_id,name,category,area\n", encoding="utf-8")
    visits.write_text("venue_id,hour,count\n", encoding="utf-8")
    (tmp_path / "a.txt").write_text("name = closed\nvisits = baseline\n", encoding="utf-8")
    (tmp_path / "b.txt").write_text("name = open\nvisits = visits.csv\n", encoding="utf-8")
    inputs = ["--venues", str(venues), "--visits", str(visits), "--prevalence", "0.01"]
    assert run_cli("simulate", *inputs, "--out", str(tmp_path / "sim")) == 0
    assert run_cli(
        "compare", *inputs, "--scenario-a", str(tmp_path / "a.txt"),
        "--scenario-b", str(tmp_path / "b.txt"), "--out", str(tmp_path / "cmp"),
    ) == 0
    histogram = ["# scale: linear, excluded_count: 0", "bin_lo,bin_hi,count"]
    tables = {
        "sim/venue_results.csv": [",".join(ingest.VENUE_RESULT_COLUMNS)],
        "sim/histogram.csv": histogram,
        "cmp/histogram_a.csv": histogram,
        "cmp/histogram_b.csv": histogram,
    }
    for name, lines in tables.items():
        first, *rest = (tmp_path / name).read_text(encoding="utf-8").split("\n")
        assert first.startswith("# manifest_sha256: ")
        assert rest == [*lines, ""], name
    report = json.loads((tmp_path / "cmp" / "comparison.json").read_text(encoding="utf-8"))
    assert "each sample needs at least 2 values, got 0 and 0" in report["t_test_undefined"]
    summary = json.loads((tmp_path / "sim" / "summary.json").read_text(encoding="utf-8"))
    assert summary["histogram"]["bins"] == report["histogram"]["bins"] == 0
    capsys.readouterr()
    assert run_cli("hotspots", "--results", str(tmp_path / "sim" / "venue_results.csv")) == 0
    assert capsys.readouterr().out == "rank,venue_id,name,weekly_infections,severity\n"


# the SHA-256 of every report on sample_data/, recorded before visit files were parsed
# into records; a change that alters any report byte must update these on purpose. Both
# tables were recorded again when the scenario configs lost their parameter overrides,
# which changed the manifest, its hash and each report's stamp, but no other byte
GOLDEN_REPORTS = {
    "simulate": {
        "histogram.csv": "5473d6c54a1160ad037e64ef2c18218679ba221a48a25e212971d277280a7e0c",
        "manifest.json": "081feb20900fa627d049a46d5f8a81a2ac84a46e53a5923cae14093e56a621b0",
        "summary.json": "7511c62327563a9e1a7d2307dad439e0f7c2ab1843c5cad6a8b1e8e935c1599e",
        "venue_results.csv": "42fbbea6daf283b2156d7c3f8c4806c27bee95ffeedbaca42f23ca0e26c0b3a1",
    },
    "compare": {
        "comparison.json": "358c8dc0f8616940c426e572c028a3b29df7356ee6204a98341c9d113e2c2116",
        "histogram_a.csv": "936d18f2b39cf9562e5308966b11aeb899d165e4a886c5600650a3310b3c572f",
        "histogram_b.csv": "564bd6bb9245a5c8c351c117f73c49e9782c5f79acc9017b47fddf8b17fbf1d8",
        "manifest.json": "bfcd3bf4d47c81f41f2fc3e9aadca7e1bcf1ed1b8bfc30f10a23b47f3ffb1ea8",
    },
}
GOLDEN_ARGS = {
    "simulate": ["--spacing", "6ft"],
    "compare": ["--scenario-a", "scenario_lockdown.txt", "--scenario-b", "scenario_reopened.txt"],
}


@pytest.mark.parametrize("command", GOLDEN_REPORTS)
def test_sample_data_reports_match_recorded_digests(command, tmp_path, monkeypatch, capsys):
    # relative paths, because the manifest records each input path as given
    monkeypatch.chdir(SAMPLE_DATA)
    assert run_cli(
        command, "--venues", "venues.csv", "--visits", "visits.csv", "--params", "params.txt",
        *GOLDEN_ARGS[command],
        "--timestamp", "2020-03-16T00:00:00+00:00", "--out", str(tmp_path / "out"),
    ) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (tmp_path / "out").iterdir()
    }
    assert digests == GOLDEN_REPORTS[command]


# the same on the log10 scale, recorded before the shared log10 range was taken from the
# binned values
GOLDEN_LOG10_REPORTS = {
    "simulate": {
        "histogram.csv": "be01e81477a320d59b03d6b7c1bedca09fe9c38806e0d5caea72a0e9b2c85fe8",
        "manifest.json": "081feb20900fa627d049a46d5f8a81a2ac84a46e53a5923cae14093e56a621b0",
        "summary.json": "46360a7201c02132075bcea2e72cbcb66e56b8f00ea4163c87461abde032fd40",
        "venue_results.csv": "42fbbea6daf283b2156d7c3f8c4806c27bee95ffeedbaca42f23ca0e26c0b3a1",
    },
    "compare": {
        "comparison.json": "882858480331bc970058706395a177ac60f892a98bfa3cf5f337d94517051708",
        "histogram_a.csv": "0b4e0a1567d8a1e414f14ca8e80e1f35424b97ac8be38cf456f5971c33924857",
        "histogram_b.csv": "73f283b8e78855d5080c8336e4abb04dbb5d0ba00a72769be4e32f85e34f0d28",
        "manifest.json": "bfcd3bf4d47c81f41f2fc3e9aadca7e1bcf1ed1b8bfc30f10a23b47f3ffb1ea8",
    },
}


@pytest.mark.parametrize("command", GOLDEN_LOG10_REPORTS)
def test_sample_data_log10_reports_match_recorded_digests(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(SAMPLE_DATA)
    assert run_cli(
        command, "--venues", "venues.csv", "--visits", "visits.csv", "--params", "params.txt",
        *GOLDEN_ARGS[command], "--scale", "log10",
        "--timestamp", "2020-03-16T00:00:00+00:00", "--out", str(tmp_path / "out"),
    ) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (tmp_path / "out").iterdir()
    }
    assert digests == GOLDEN_LOG10_REPORTS[command]


# the same for gen-synthetic's files and for the hotspots listing of the simulate reports
# above, recorded before every CSV table was written through one writer; the generated
# files were recorded again when the manifest lost its pre-pandemic traffic level, which
# changed the hash and each file's stamp line but no data row
GOLDEN_GENERATED = {
    "manifest.json": "79afc2a98201ccf3880fc095047b9eae2ba40638897da93d204324e46fbdd50c",
    "venues.csv": "0ecaebf09e7dc5a42856796ebc561bf3980eed36fd2d102999e93c5e9a1afe61",
    "visits.csv": "574d0b8af93aad8037f63efd002ab1e57c1a0bee25130df105965318fbad128b",
}
GOLDEN_HOTSPOTS = "4545bcea0daefe1a60bada769d8460025204f892179d9fba52cc8a2cbbfef8e9"


def test_generated_files_match_recorded_digests(tmp_path):
    out = tmp_path / "gen"
    assert run_cli(
        "gen-synthetic", "--n-venues", "40", "--profile", "pre_pandemic", "--seed", "3",
        "--timestamp", "2020-03-16T00:00:00+00:00", "--out", str(out),
    ) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert digests == GOLDEN_GENERATED


def test_hotspots_listing_matches_recorded_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(SAMPLE_DATA)
    out = tmp_path / "out"
    assert run_cli(
        "simulate", "--venues", "venues.csv", "--visits", "visits.csv", "--params", "params.txt",
        "--spacing", "6ft", "--timestamp", "2020-03-16T00:00:00+00:00", "--out", str(out),
    ) == 0
    capsys.readouterr()
    assert run_cli("hotspots", "--results", str(out / "venue_results.csv")) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN_HOTSPOTS


def _result_rows(path):
    """The rows of a venue_results.csv file, as lists of fields, after its comment and header."""
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[2:]]


@pytest.mark.parametrize("just_below, label", [(False, "mild"), (True, "severe")])
def test_every_report_labels_the_threshold_venue_alike(
    tmp_path, monkeypatch, capsys, just_below, label
):
    # the top venue is mild with its own value as the threshold, and severe with the
    # double just below it, in venue_results.csv, summary.json and hotspots alike
    monkeypatch.chdir(SAMPLE_DATA)
    simulate = [
        "simulate", "--venues", "venues.csv", "--visits", "visits.csv", "--params", "params.txt",
    ]
    assert run_cli(*simulate, "--out", str(tmp_path / "first")) == 0
    top = max(_result_rows(tmp_path / "first" / "venue_results.csv"), key=lambda r: float(r[5]))
    value = float(top[5])
    threshold = repr(math.nextafter(value, 0.0) if just_below else value)
    out = tmp_path / "second"
    assert run_cli(*simulate, "--threshold", threshold, "--out", str(out)) == 0

    labels = {row[0]: row[6] for row in _result_rows(out / "venue_results.csv")}
    assert labels[top[0]] == label
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["severe_count"], summary["mild_count"]) == ((1, 3) if just_below else (0, 4))
    assert list(labels.values()).count("severe") == summary["severe_count"]
    capsys.readouterr()
    results = str(out / "venue_results.csv")
    assert run_cli("hotspots", "--results", results, "--threshold", threshold) == 0
    listing = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert listing[0][1] == top[0] and listing[0][4] == label
    assert {row[1]: row[4] for row in listing} == labels


@pytest.mark.parametrize("command", ["simulate", "compare", "gen-synthetic"])
def test_timestamp_must_be_iso_8601(command, tmp_path, capsys):
    # the input files do not exist, so exit 1 (not the i/o error's 2) shows none was read
    missing = str(tmp_path / "nope.csv")
    argv = {
        "simulate": ["--venues", missing, "--visits", missing, "--prevalence", "0.001"],
        "compare": [
            "--venues", missing, "--scenario-a", missing, "--scenario-b", missing,
            "--prevalence", "0.001",
        ],
        "gen-synthetic": ["--n-venues", "3", "--profile", "lockdown", "--seed", "1"],
    }[command]
    out = tmp_path / "x"
    assert run_cli(command, *argv, "--timestamp", "not a time", "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "error: argument --timestamp: must be an ISO 8601 date and time, got 'not a time'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [("simulate", "--area-unit", "acre"), ("gen-synthetic", "--profile", "weekend")],
    ids=["area-unit", "profile"],
)
def test_unknown_choice_names_the_flag(command, flag, value, tmp_path, capsys):
    # the input files do not exist, so exit 1 (not the i/o error's 2) shows none was read
    missing = str(tmp_path / "nope.csv")
    argv = {
        "simulate": ["--venues", missing, "--visits", missing, "--prevalence", "0.001"],
        "gen-synthetic": ["--n-venues", "3", "--seed", "1"],
    }[command]
    out = tmp_path / "x"
    assert run_cli(command, *argv, flag, value, "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith(
        f"error: argument {flag}: invalid choice: {value!r}"
    )
    assert not out.exists()


def test_accepted_timestamp_is_stored_as_given(tmp_path):
    out = tmp_path / "gen"
    assert run_cli(
        "gen-synthetic", "--n-venues", "3", "--profile", "lockdown", "--seed", "1",
        "--timestamp", "2020-03-16", "--out", str(out),
    ) == 0
    assert json.loads((out / "manifest.json").read_text())["timestamp"] == "2020-03-16"


class TestHotspots:
    def _results_file(self, tmp_path):
        path = tmp_path / "venue_results.csv"
        path.write_text(
            "# manifest_sha256: 0000\n"
            "venue_id,name,category,area_m2,volume_m3,weekly_infections,severity\n"
            "v1,Quiet Cafe,restaurant,100.0,300.0,0.2,mild\n"
            "v2,Busy Bar,drinking place,80.0,240.0,3.1,severe\n"
            "v3,Mid Diner,restaurant,90.0,270.0,1.5,severe\n",
            encoding="utf-8",
        )
        return path

    def test_ranked_descending(self, tmp_path, capsys):
        assert run_cli("hotspots", "--results", str(self._results_file(tmp_path))) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "rank,venue_id,name,weekly_infections,severity"
        ids = [line.split(",")[1] for line in lines[1:]]
        severities = [line.split(",")[4] for line in lines[1:]]
        assert ids == ["v2", "v3", "v1"]
        assert severities == ["severe", "severe", "mild"]

    def test_threshold_override(self, tmp_path, capsys):
        assert run_cli(
            "hotspots", "--results", str(self._results_file(tmp_path)), "--threshold", "2.0"
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        severities = [line.split(",")[4] for line in lines[1:]]
        assert severities == ["severe", "mild", "mild"]

    def test_top_k(self, tmp_path, capsys):
        assert run_cli(
            "hotspots", "--results", str(self._results_file(tmp_path)), "--top", "1"
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("1,v2,")

    def test_empty_results(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text(
            "venue_id,name,category,area_m2,volume_m3,weekly_infections,severity\n",
            encoding="utf-8",
        )
        assert run_cli("hotspots", "--results", str(path)) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1

    def test_missing_file_is_io_error(self, tmp_path):
        assert run_cli("hotspots", "--results", str(tmp_path / "nope.csv")) == 2

    def test_non_finite_threshold_rejected(self, tmp_path, capsys):
        results = str(self._results_file(tmp_path))
        assert run_cli("hotspots", "--results", results, "--threshold", "inf") == 1
        assert "--threshold: must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("v4,Odd Pub,pub,50.0,150.0,nan,mild", "bad weekly_infections value 'nan' for venue 'v4'"),
            ("v4,Odd Pub,pub,50.0,150.0,inf,mild", "bad weekly_infections value 'inf' for venue 'v4'"),
            ("v4,Odd Pub,pub,50.0,150.0,-2,mild", "bad weekly_infections value '-2' for venue 'v4'"),
            ("v4,Odd Pub,pub,50.0,150.0,,mild", "bad weekly_infections value '' for venue 'v4'"),
            ("v4,Odd Pub", "expected 7 fields, got 2"),
        ],
        ids=["nan", "inf", "negative", "empty", "short-row"],
    )
    def test_bad_weekly_value_names_file_and_venue(self, tmp_path, capsys, row, problem):
        path = self._results_file(tmp_path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(row + "\n")
        assert run_cli("hotspots", "--results", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # the comment line before the header counts: the appended row is line 6
        assert f"{path}: line 6: {problem}" in captured.err

    @pytest.mark.parametrize(
        "row, problem",
        [("B,1.0", "expected 7 fields, got 2"), (",B,pub,50.0,150.0,1.0,mild", "venue_id is empty")],
        ids=["B,1.0-missing", "B,1.0,-empty"],
    )
    def test_missing_venue_id_names_file_and_line(self, tmp_path, capsys, row, problem):
        # the header is fixed, so a row lacking its venue_id field is a short row
        path = tmp_path / "venue_results.csv"
        path.write_text(
            "venue_id,name,category,area_m2,volume_m3,weekly_infections,severity\n"
            f"v1,A,pub,50.0,150.0,1.0,severe\n{row}\n",
            encoding="utf-8",
        )
        assert run_cli("hotspots", "--results", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: line 3: {problem}\n"

    def test_oversized_field_names_file_and_line(self, tmp_path, capsys):
        path = self._results_file(tmp_path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(f"v4,{'x' * 140_000},pub,50.0,150.0,1.0,mild\n")
        assert run_cli("hotspots", "--results", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # the comment line before the header counts
        assert captured.err == f"error: {path}: line 6: field larger than field limit (131072)\n"

    def test_malformed_results_is_validation_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n", encoding="utf-8")
        assert run_cli("hotspots", "--results", str(path)) == 1

    def test_other_header_names_the_expected_one(self, tmp_path, capsys):
        # the columns of a results file are fixed: reordered ones are another header
        path = tmp_path / "venue_results.csv"
        path.write_text("name,weekly_infections,venue_id\nA,1.0,v1\n", encoding="utf-8")
        assert run_cli("hotspots", "--results", str(path)) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: results file header must be "
            "'venue_id,name,category,area_m2,volume_m3,weekly_infections,severity', "
            "got 'name,weekly_infections,venue_id'\n"
        )

    @pytest.mark.parametrize(
        "flag, value, expected",
        [
            ("--threshold", "abc", "must be a finite number, got 'abc'"),
            ("--top", "0", "must be a positive integer, got '0'"),
            ("--top", "-2", "must be a positive integer, got '-2'"),
        ],
        ids=["threshold-abc", "top-0", "top-negative"],
    )
    def test_bad_flag_value_says_what_is_expected(self, tmp_path, capsys, flag, value, expected):
        results = str(self._results_file(tmp_path))
        assert run_cli("hotspots", "--results", results, f"{flag}={value}") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag}: {expected}" in captured.err

    def test_hash_id_venue_is_ranked(self, tmp_path, capsys):
        # "#" is a comment only before a header: the venue survives simulate and hotspots
        venues = tmp_path / "venues.csv"
        venues.write_text(
            "venue_id,name,category,area\n#12,Hash Bar,drinking place,50\nv2,Cafe,restaurant,100\n",
            encoding="utf-8",
        )
        visits = tmp_path / "visits.csv"
        visits.write_text("venue_id,hour,count\n#12,20,60\nv2,12,3\n", encoding="utf-8")
        out = tmp_path / "run"
        assert run_cli(
            "simulate", "--venues", str(venues), "--visits", str(visits),
            "--prevalence", "0.001", "--out", str(out),
        ) == 0
        capsys.readouterr()
        assert run_cli("hotspots", "--results", str(out / "venue_results.csv")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["1", "#12"], ["2", "v2"]]


class TestGenSynthetic:
    def test_deterministic_files(self, tmp_path):
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert run_cli(
                "gen-synthetic", "--n-venues", "30", "--profile", "lockdown",
                "--seed", "11", "--out", str(out),
            ) == 0
            outs.append(out)
        assert (outs[0] / "venues.csv").read_bytes() == (outs[1] / "venues.csv").read_bytes()
        assert (outs[0] / "visits.csv").read_bytes() == (outs[1] / "visits.csv").read_bytes()

    def test_manifest_lists_the_settable_values(self, tmp_path):
        # the generator's other settings are module constants, pinned by tool_version
        out = tmp_path / "gen"
        assert run_cli(
            "gen-synthetic", "--n-venues", "30", "--profile", "lockdown",
            "--seed", "11", "--out", str(out),
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["generator_config"] == {"n_venues": 30, "profile": "lockdown", "seed": 11}

    def test_generated_files_feed_simulate(self, small_dataset, tmp_path):
        out = tmp_path / "run"
        assert run_cli(*simulate_args(small_dataset, out)) == 0

    def test_negative_seed_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "gen"
        assert run_cli(
            "gen-synthetic", "--n-venues", "5", "--profile", "lockdown", "--seed", "-1",
            "--out", str(out),
        ) == 1
        assert capsys.readouterr().err.endswith(
            "error: argument --seed: must be a non-negative integer, got '-1'\n"
        )
        assert not out.exists()

    def test_bad_n_venues(self, tmp_path, capsys):
        out = tmp_path / "gen"
        assert run_cli(
            "gen-synthetic", "--n-venues", "0", "--profile", "lockdown",
            "--seed", "1", "--out", str(out),
        ) == 1
        assert capsys.readouterr().err.endswith(
            "error: argument --n-venues: must be a positive integer, got '0'\n"
        )
        assert not out.exists()

    def test_generated_table_is_released_before_the_files_are_written(
        self, tmp_path, monkeypatch
    ):
        tables, generate_dataset = [], cli.generate_dataset
        write_venues, write_reports = cli.write_venues, cli.write_reports

        def generate(config):
            table = generate_dataset(config)
            tables.append(weakref.ref(table))
            return table

        def render_venues(venues, sink, comment):
            # the visit text comes first, so the records are gone before the venue text
            assert tables and tables[0]() is None, "the generated table outlives write_visits"
            return write_venues(venues, sink, comment=comment)

        def write(out_dir, reports):
            assert tables and tables[0]() is None, "the generated table outlives write_visits"
            return write_reports(out_dir, reports)

        monkeypatch.setattr(cli, "generate_dataset", generate)
        monkeypatch.setattr(cli, "write_venues", render_venues)
        monkeypatch.setattr(cli, "write_reports", write)
        assert run_cli(
            "gen-synthetic", "--n-venues", "30", "--profile", "lockdown",
            "--seed", "11", "--out", str(tmp_path / "gen"),
        ) == 0


@pytest.mark.parametrize("command", ["simulate", "gen-synthetic"])
def test_nul_in_out_names_the_flag_and_the_path(command, small_dataset, tmp_path, capsys):
    out = str(tmp_path / "o\0ut")
    argv = simulate_args(small_dataset, out) if command == "simulate" else [
        "gen-synthetic", "--n-venues", "5", "--profile", "lockdown", "--seed", "1", "--out", out,
    ]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.endswith(
        f"error: argument --out: a path cannot hold a NUL byte, got {out!r}\n"
    )


@pytest.mark.parametrize(
    "command, flag, expected",
    [
        ("hotspots", "--top", "a positive integer"),
        ("gen-synthetic", "--n-venues", "a positive integer"),
        ("gen-synthetic", "--seed", "a non-negative integer"),
    ],
    ids=["top", "n-venues", "seed"],
)
def test_count_past_int_digits_without_a_maximum_names_the_flag(
    command, flag, expected, tmp_path, capsys
):
    # int() refuses digit text this long; a flag with no maximum says what it takes
    value = "1" * 5000
    args = {
        "hotspots": ["--results", str(tmp_path / "results.csv"), "--top", "1"],
        "gen-synthetic": [
            "--n-venues", "5", "--profile", "lockdown", "--seed", "1",
            "--out", str(tmp_path / "gen"),
        ],
    }[command]
    args[args.index(flag) + 1] = value
    assert run_cli(command, *args) == 1
    assert capsys.readouterr().err.endswith(
        f"error: argument {flag}: must be {expected}, got {value!r}\n"
    )
    assert list(tmp_path.iterdir()) == []


class TestBaselineLifetime:
    """The baseline records are dropped once the last scenario that reads them has run."""

    def _run(self, monkeypatch, names):
        # a weak reference to the baseline counts, and whether it is alive at each step
        events, baseline = [], []
        cli_load, scenario_load, run = cli.load_visits, scenario.load_visits, cli.run_scenario

        def load_baseline(path, venues):
            table = cli_load(path, venues)
            baseline.append(weakref.ref(table.count))
            return table

        def load_own_file(path, venues):
            events.append(("load_visits", baseline[0]() is not None))
            return scenario_load(path, venues)

        def run_one(base, config, params):
            events.append((config.name, baseline[0]() is not None))
            return run(base, config, params)

        monkeypatch.setattr(cli, "load_visits", load_baseline)
        monkeypatch.setattr(scenario, "load_visits", load_own_file)
        monkeypatch.setattr(cli, "run_scenario", run_one)
        paths = [str(SAMPLE_DATA / f"scenario_{name}.txt") for name in names]
        args = cli.build_parser().parse_args([
            "compare", "--venues", str(SAMPLE_DATA / "venues.csv"),
            "--visits", str(SAMPLE_DATA / "visits.csv"), "--params", str(SAMPLE_DATA / "params.txt"),
            "--scenario-a", paths[0], "--scenario-b", paths[1], "--out", "unused",
        ])
        cli._run_scenarios(args, [scenario.load_scenario_config(path) for path in paths], paths)
        return events, baseline[0]() is not None

    def test_released_before_a_later_scenario_loads_its_own_file(self, monkeypatch):
        events, alive = self._run(monkeypatch, ["lockdown", "reopened"])
        assert events == [("lockdown", True), ("reopened", False), ("load_visits", False)]
        assert not alive

    def test_kept_until_a_later_baseline_scenario_has_run(self, monkeypatch):
        events, alive = self._run(monkeypatch, ["reopened", "lockdown"])
        assert events == [("reopened", True), ("load_visits", True), ("lockdown", True)]
        assert not alive


def test_version_flag_prints_the_tool_version(capsys):
    with pytest.raises(SystemExit) as info:
        run_cli("--version")
    assert info.value.code == 0
    assert capsys.readouterr().out == f"venuerisk {TOOL_VERSION}\n"


def test_reports_are_strict_json():
    assert dump_json({"x": 1.5}) == '{\n  "x": 1.5\n}\n'
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            dump_json({"x": value})


def test_failed_rename_removes_the_temporary_file_and_keeps_the_old_report(tmp_path, monkeypatch):
    target = tmp_path / "summary.json"
    target.write_bytes(b"old report\n")

    def fail(source, destination):
        raise OSError("rename failed")

    monkeypatch.setattr(reporting.os, "replace", fail)
    with pytest.raises(OSError, match="^rename failed$"):
        reporting.atomic_write_text(target, "new report\n")
    assert list(tmp_path.glob(".*.tmp")) == []
    assert [path.name for path in tmp_path.iterdir()] == ["summary.json"]
    assert target.read_bytes() == b"old report\n"

    # when the temporary file cannot be removed either, the rename's error is the one raised
    def fail_unlink(path):
        raise OSError("unlink failed")

    monkeypatch.setattr(reporting.os, "unlink", fail_unlink)
    with pytest.raises(OSError, match="^rename failed$"):
        reporting.atomic_write_text(target, "new report\n")
    [left] = tmp_path.glob(".summary.json.*.tmp")
    assert left.read_bytes() == b"new report\n"
    assert target.read_bytes() == b"old report\n"


def test_atomic_write_makes_no_encoded_copy_of_the_whole_text(tmp_path):
    # 16 MB of text goes to the file a slice at a time, never encoded in one piece
    text = "0123456789abcdef" * (1 << 20)
    target = tmp_path / "visits.csv"
    _, extra = peak_above_kept(lambda: reporting.atomic_write_text(target, text))
    assert extra < 4 << 20
    assert target.read_text(encoding="utf-8") == text


def test_venue_results_csv_holds_little_beyond_its_text():
    # the float columns reach the renderer as numbers, the labels as two shared strings,
    # and rows are joined a block at a time: beyond the text, 2.1 times its length is
    # held at once. Each of these undone makes that 2.7 or more (3.3 at the parent)
    n = 10_000
    venues = synthetic.generate_dataset(synthetic.GeneratorConfig(n, "lockdown", 42)).venues
    weekly = np.random.default_rng(1).exponential(1.0, n)
    params = EpiParams(documented_prevalence=0.01)
    text, extra = peak_above_kept(
        lambda: reporting.venue_results_csv(venues, weekly, params, 1.0, "00" * 32)
    )
    assert text.count("\n") == n + 2
    assert extra < 2.5 * len(text)


def test_failed_write_removes_the_temporary_file_and_keeps_the_old_report(tmp_path, monkeypatch):
    target = tmp_path / "summary.json"
    target.write_bytes(b"old report\n")
    real_fdopen = os.fdopen

    def full_disk(fd, *args, **kwargs):
        handle = real_fdopen(fd, *args, **kwargs)

        def write(text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        handle.write = write
        return handle

    monkeypatch.setattr(reporting.os, "fdopen", full_disk)
    with pytest.raises(OSError) as info:
        reporting.atomic_write_text(target, "new report\n")
    assert info.value.errno == errno.ENOSPC
    assert list(tmp_path.glob(".*.tmp")) == []
    assert [path.name for path in tmp_path.iterdir()] == ["summary.json"]
    assert target.read_bytes() == b"old report\n"
