import json
import os
import re

import pytest

from venuerisk.cli import main
from venuerisk.reporting import dump_json


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
        assert "prevalence" in capsys.readouterr().err

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

    def test_malformed_params_line_names_the_file(self, small_dataset, tmp_path, capsys):
        params = tmp_path / "params.txt"
        params.write_text("q 20\n", encoding="utf-8")
        assert run_cli(*simulate_args(small_dataset, tmp_path / "x", "--params", str(params))) == 1
        assert f"{params}: line 1: expected 'key = value'" in capsys.readouterr().err

    def test_invalid_params_value_names_the_file(self, small_dataset, tmp_path, capsys):
        params = tmp_path / "params.txt"
        params.write_text("q = -1\n", encoding="utf-8")
        assert run_cli(*simulate_args(small_dataset, tmp_path / "x", "--params", str(params))) == 1
        assert f"{params}: q must be positive and finite, got -1.0" in capsys.readouterr().err

    def test_invalid_flag_is_not_blamed_on_the_params_file(self, small_dataset, tmp_path, capsys):
        params = tmp_path / "params.txt"
        params.write_text("q = 20\ndocumented_prevalence = 2\n", encoding="utf-8")
        args = simulate_args(small_dataset, tmp_path / "x", "--params", str(params))
        # the flag's valid prevalence overrides the file's invalid one
        assert run_cli(*args) == 0
        capsys.readouterr()
        assert run_cli(*args, "--underreport-factor", "0.5") == 1
        err = capsys.readouterr().err
        assert "underreport_factor must be >= 1, got 0.5" in err
        assert str(params) not in err

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
        "command, bins", [("simulate", "0"), ("compare", "0"), ("simulate", "abc")]
    )
    def test_bad_bins_rejected_before_reading(self, tmp_path, capsys, command, bins):
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
        assert f"--bins: must be a positive integer, got {bins!r}" in capsys.readouterr().err
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
        neg.write_text("name = negative_q\nparam.q = -1\n", encoding="utf-8")
        code = run_cli(
            "compare", "--venues", str(small_dataset["venues"]),
            "--visits", str(small_dataset["visits"]),
            "--scenario-a", str(a), "--scenario-b", str(neg),
            "--prevalence", "0.001", "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert "scenario 'negative_q': invalid parameter override: q must be positive" in (
            capsys.readouterr().err
        )

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
        "row, shown",
        [
            ("v4,Odd Pub,pub,50.0,150.0,nan,mild", "'nan'"),
            ("v4,Odd Pub,pub,50.0,150.0,inf,mild", "'inf'"),
            ("v4,Odd Pub,pub,50.0,150.0,-2,mild", "'-2'"),
            ("v4,Odd Pub,pub,50.0,150.0,,mild", "''"),
            ("v4,Odd Pub", "None"),
        ],
        ids=["nan", "inf", "negative", "empty", "short-row"],
    )
    def test_bad_weekly_value_names_file_and_venue(self, tmp_path, capsys, row, shown):
        path = self._results_file(tmp_path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(row + "\n")
        assert run_cli("hotspots", "--results", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}: bad weekly_infections value {shown} for venue 'v4'" in captured.err

    def test_malformed_results_is_validation_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n", encoding="utf-8")
        assert run_cli("hotspots", "--results", str(path)) == 1

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

    def test_generated_files_feed_simulate(self, small_dataset, tmp_path):
        out = tmp_path / "run"
        assert run_cli(*simulate_args(small_dataset, out)) == 0

    def test_traffic_multiplier_flag(self, tmp_path):
        low = tmp_path / "low"
        high = tmp_path / "high"
        for out, mult in ((low, "2"), (high, "8")):
            assert run_cli(
                "gen-synthetic", "--n-venues", "60", "--profile", "pre_pandemic",
                "--seed", "9", "--traffic-multiplier", mult, "--out", str(out),
            ) == 0

        def total_visits(path):
            return sum(
                float(line.split(",")[2])
                for line in (path / "visits.csv").read_text().splitlines()
                if line and not line.startswith(("#", "venue_id"))
            )

        assert total_visits(high) > total_visits(low)

    @pytest.mark.parametrize("profile", ["lockdown", "pre_pandemic"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_traffic_multiplier_names_the_setting(self, tmp_path, capsys, profile, value):
        out = tmp_path / "gen"
        assert run_cli(
            "gen-synthetic", "--n-venues", "5", "--profile", profile, "--seed", "1",
            f"--traffic-multiplier={value}", "--out", str(out),
        ) == 1
        assert "pre_pandemic_level must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_n_venues(self, capsys):
        assert run_cli(
            "gen-synthetic", "--n-venues", "0", "--profile", "lockdown",
            "--seed", "1", "--out", "unused",
        ) == 1


def test_reports_are_strict_json():
    assert dump_json({"x": 1.5}) == '{\n  "x": 1.5\n}\n'
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            dump_json({"x": value})
