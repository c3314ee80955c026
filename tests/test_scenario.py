import dataclasses
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from venuerisk import (
    ConfigError,
    DatasetError,
    ScenarioConfig,
    epi,
    max_distanced_occupancy,
    run_scenario,
    simulate_week,
)
from venuerisk.ingest import WINDOW_HOURS, VisitRecords, join, load_visits, write_visits
from venuerisk.scenario import (
    apply_occupancy_cap,
    load_scenario_config,
    parse_spacing,
)
from venuerisk.synthetic import GeneratorConfig, generate_dataset
from conftest import large_table, make_input, peak_above_kept

SIX_FEET = 1.8288  # meters
SCENARIO_KEYS = "name, visits, sampling_factor, spacing"


class TestMaxDistancedOccupancy:
    def test_circular_room_of_one_radius(self):
        area = math.pi * SIX_FEET ** 2
        assert max_distanced_occupancy(area, SIX_FEET) == 1

    def test_room_smaller_than_one_disc(self):
        assert max_distanced_occupancy(10.0, SIX_FEET) == 0

    def test_ten_disc_room(self):
        assert max_distanced_occupancy(105.071, SIX_FEET) == 10

    def test_monotone_in_area_and_spacing(self):
        rng = random.Random(7)
        for _ in range(500):
            area = rng.uniform(1, 2000)
            spacing = rng.uniform(0.5, 5)
            assert max_distanced_occupancy(area * 1.5, spacing) >= max_distanced_occupancy(
                area, spacing
            )
            assert max_distanced_occupancy(area, spacing * 1.5) <= max_distanced_occupancy(
                area, spacing
            )

    def test_spacing_too_small_to_divide_by_is_no_limit(self):
        # the disc's area underflows to 0 at 1e-320 m, the quotient overflows at 1e-160 m
        assert max_distanced_occupancy(np.array([10.0]), 1e-320).tolist() == [math.inf]
        assert max_distanced_occupancy(10.0, 1e-160) == math.inf


class TestApplyOccupancyCap:
    def test_clamp(self):
        assert apply_occupancy_cap((5.0, 12.0, 0.0), 8) == (5.0, 8.0, 0.0)

    def test_cap_zero(self):
        assert apply_occupancy_cap((5.0, 12.0, 0.0), 0) == (0.0, 0.0, 0.0)

    def test_fractional_counts_clamped_to_whole_cap(self):
        assert apply_occupancy_cap((7.5,), 7) == (7.0,)

    def test_idempotent(self):
        once = apply_occupancy_cap(tuple(float(i) for i in range(30)), 11)
        assert apply_occupancy_cap(once, 11) == once

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            apply_occupancy_cap((1.0,), -1)


class TestRunScenario:
    def _base(self):
        areas = {"a": 100.0, "b": 400.0, "c": 55.0}
        counts = {
            "a": {h: 3.0 for h in range(0, 168, 2)},
            "b": {h: 9.0 for h in range(12, 160, 3)},
            "c": {40: 2.0},
        }
        return make_input(areas, counts)

    def test_identity_scenario_reproduces_simulate_week(self, default_params):
        base = self._base()
        config = ScenarioConfig(name="identity", sampling_factor=1.0)
        weekly = run_scenario(base, config, default_params)
        assert np.array_equal(weekly, simulate_week(base, default_params))

    def test_huge_spacing_zeroes_everything(self, default_params):
        base = self._base()
        config = ScenarioConfig(name="empty", sampling_factor=1.0, spacing=1000.0)
        weekly = run_scenario(base, config, default_params)
        assert (weekly == 0.0).all()

    def test_capped_never_exceeds_uncapped(self, default_params):
        base = self._base()
        uncapped = run_scenario(base, ScenarioConfig(name="u", sampling_factor=10.0), default_params)
        capped = run_scenario(
            base,
            ScenarioConfig(name="c", sampling_factor=10.0, spacing=SIX_FEET),
            default_params,
        )
        assert (capped <= uncapped).all()

    def test_sampling_applied_before_cap(self, default_params):
        # one venue, cap 2, raw count 1: capping after the 10x correction
        # must clamp 10 -> 2, not leave 1 * 10 = 10
        base = make_input({"a": math.pi * SIX_FEET ** 2 * 2.2}, {"a": {0: 1.0}})
        cap = max_distanced_occupancy(base.venues.areas[0], SIX_FEET)
        assert cap == 2
        weekly = run_scenario(
            base,
            ScenarioConfig(name="s", sampling_factor=10.0, spacing=SIX_FEET),
            default_params,
        )
        manual = make_input({"a": math.pi * SIX_FEET ** 2 * 2.2}, {"a": {0: float(cap)}})
        expected = simulate_week(manual, default_params)[0]
        assert weekly[0] == expected

    def test_dominance(self, default_params):
        # pointwise-smaller visit counts can never produce more infections
        rng = random.Random(19)
        areas = {f"v{i}": rng.uniform(30, 900) for i in range(20)}
        big = {
            vid: {h: rng.uniform(0, 40) for h in range(0, 168, rng.randrange(1, 9))}
            for vid in areas
        }
        small = {
            vid: {h: c * rng.uniform(0, 1) for h, c in by_hour.items()}
            for vid, by_hour in big.items()
        }
        res_big = run_scenario(
            make_input(areas, big), ScenarioConfig(name="b", sampling_factor=1.0), default_params
        )
        res_small = run_scenario(
            make_input(areas, small), ScenarioConfig(name="s", sampling_factor=1.0), default_params
        )
        assert (res_small <= res_big).all()

    def test_deterministic(self, default_params):
        base = self._base()
        config = ScenarioConfig(name="d", sampling_factor=10.0, spacing=SIX_FEET)
        first = run_scenario(base, config, default_params)
        second = run_scenario(base, config, default_params)
        assert np.array_equal(first, second)

    def test_scenarios_sharing_the_baseline_leave_it_unchanged(self, default_params):
        base = self._base()
        before = base.count.tobytes()
        configs = [
            ScenarioConfig(name="capped", sampling_factor=10.0, spacing=SIX_FEET),
            ScenarioConfig(name="scaled", sampling_factor=3.0),
        ]
        together = [run_scenario(base, config, default_params) for config in configs]
        assert base.count.tobytes() == before
        for config, weekly in zip(configs, together):
            alone = run_scenario(self._base(), config, default_params)
            assert weekly.tobytes() == alone.tobytes()

    def test_alternate_visit_file(self, default_params, tmp_path):
        base = self._base()
        alt = tmp_path / "alt_visits.csv"
        with open(alt, "w", encoding="utf-8") as handle:
            write_visits(make_input({"a": 100.0}, {"a": {0: 50.0}}), handle)
        config = ScenarioConfig(name="alt", visit_source=str(alt), sampling_factor=1.0)
        weekly = run_scenario(base, config, default_params)
        assert weekly[0] > 0
        # venues absent from the alternate file fall back to zero traffic
        assert weekly[1] == 0.0

    def test_alternate_file_with_unknown_venue(self, default_params, tmp_path):
        base = self._base()
        alt = tmp_path / "bad_visits.csv"
        alt.write_text("venue_id,hour,count\nghost,0,5\n", encoding="utf-8")
        config = ScenarioConfig(name="bad", visit_source=str(alt))
        with pytest.raises(DatasetError, match="ghost"):
            run_scenario(base, config, default_params)


# the peak is the visit file's parse: its text, its records and their per-block
# temporaries; the kernel adds one block's matrix, never a venue-hour matrix of
# every venue, and no baseline, corrected or capped copy is made
MATRICES_AT_PEAK = 1.5


def test_alternate_file_scenario_peak_memory(default_params, tmp_path, monkeypatch):
    n_venues = 5000
    alt = tmp_path / "pre_pandemic.csv"
    with open(alt, "w", encoding="utf-8") as handle:
        write_visits(generate_dataset(GeneratorConfig(n_venues, "pre_pandemic", seed=3)), handle)
    venues = generate_dataset(GeneratorConfig(n_venues, "lockdown", seed=3)).venues
    config = ScenarioConfig(name="alt", visit_source=str(alt), spacing=SIX_FEET)
    # kernel blocks this small leave only whole-file and whole-matrix arrays to count
    monkeypatch.setattr(epi, "_BLOCK_ROWS", 256)
    tracemalloc.start()
    try:
        run_scenario(join(venues, VisitRecords()), config, default_params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrix_bytes = n_venues * WINDOW_HOURS * 8
    assert peak < MATRICES_AT_PEAK * matrix_bytes, f"{peak / matrix_bytes:.2f} matrices"


def narrow_visit_file(tmp_path):
    """The venue table of ``large_table`` and the path of a file of its visits, counts 1 to 50."""
    table = large_table()
    path = tmp_path / "visits.csv"
    with open(path, "w", encoding="utf-8") as handle:
        write_visits(table, handle)
    return table.venues, path


# the share of one float64 count column that a scenario may take beyond its inputs, with
# kernel blocks of KERNEL_BLOCK_ROWS rows: small blocks leave only whole-column arrays to
# count, and a scaled or capped float64 copy of the counts would be a whole column
FLOAT_COLUMN_SHARE = 0.25
KERNEL_BLOCK_ROWS = 16


def test_capped_baseline_scenario_copies_no_count_column(default_params, tmp_path, monkeypatch):
    venues, path = narrow_visit_file(tmp_path)
    baseline = load_visits(path, venues)
    assert baseline.count.dtype == np.uint8
    before = baseline.count.copy()
    config = ScenarioConfig(name="capped", sampling_factor=10.0, spacing=SIX_FEET)
    monkeypatch.setattr(epi, "_BLOCK_ROWS", KERNEL_BLOCK_ROWS)
    weekly, extra = peak_above_kept(lambda: run_scenario(baseline, config, default_params))
    assert extra < FLOAT_COLUMN_SHARE * baseline.count.size * np.dtype(float).itemsize
    assert np.array_equal(baseline.count, before)
    # the weekly values of the same counts held as float64
    as_float = dataclasses.replace(baseline, count=baseline.count.astype(float))
    assert weekly.tobytes() == run_scenario(as_float, config, default_params).tobytes()


def test_capped_own_file_scenario_holds_no_more_than_its_parse(
    default_params, tmp_path, monkeypatch
):
    venues, path = narrow_visit_file(tmp_path)
    records, parse_extra = peak_above_kept(lambda: load_visits(path, venues))
    held = records.offsets.nbytes + records.hour.nbytes + records.count.nbytes
    config = ScenarioConfig(
        name="own", visit_source=str(path), sampling_factor=10.0, spacing=SIX_FEET
    )
    empty = join(venues, VisitRecords())
    monkeypatch.setattr(epi, "_BLOCK_ROWS", KERNEL_BLOCK_ROWS)
    weekly, extra = peak_above_kept(lambda: run_scenario(empty, config, default_params))
    # the parse of its file, then its records while the kernel runs on them
    float_column = records.count.size * np.dtype(float).itemsize
    assert extra < held + parse_extra + FLOAT_COLUMN_SHARE * float_column
    baseline = ScenarioConfig(name="base", sampling_factor=10.0, spacing=SIX_FEET)
    assert weekly.tobytes() == run_scenario(records, baseline, default_params).tobytes()


class TestSpacingParsing:
    def test_feet(self):
        assert parse_spacing("6ft") == pytest.approx(SIX_FEET, rel=1e-12)

    def test_meters(self):
        assert parse_spacing("1.8288m") == 1.8288

    def test_whitespace_tolerated(self):
        assert parse_spacing(" 2 m ") == 2.0

    # 5e-324 ft is a positive number of feet that rounds to 0 m
    @pytest.mark.parametrize("text", ["6", "ft", "6 feet", "-2m", "0m", "", "5e-324ft"])
    def test_bad_spacing(self, text):
        with pytest.raises(ConfigError):
            parse_spacing(text)


class TestScenarioConfigFile:
    def test_full_config(self, tmp_path):
        path = tmp_path / "reopened.txt"
        path.write_text(
            "# scenario with everything set\n"
            "name = reopened\n"
            "visits = traffic_2019.csv\n"
            "sampling_factor = 10\n"
            "spacing = 6ft\n",
            encoding="utf-8",
        )
        config = load_scenario_config(path)
        assert config.name == "reopened"
        assert config.visit_source == str(tmp_path / "traffic_2019.csv")
        assert config.sampling_factor == 10.0
        assert config.spacing == pytest.approx(SIX_FEET, rel=1e-12)

    def test_defaults(self, tmp_path):
        path = tmp_path / "lockdown.txt"
        path.write_text("", encoding="utf-8")
        config = load_scenario_config(path)
        assert config.name == "lockdown"
        assert config.visit_source == "baseline"
        assert config.sampling_factor == 10.0
        assert config.spacing is None

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("name = capped\nvenue_cap = 5\n", encoding="utf-8")
        message = f"{path}: line 2: unknown key 'venue_cap', expected one of: {SCENARIO_KEYS}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_scenario_config(path)

    def test_unknown_param_override_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        # every scenario runs on the run's one set of params
        path.write_text("param.q = 25\n", encoding="utf-8")
        message = f"{path}: line 1: unknown key 'param.q', expected one of: {SCENARIO_KEYS}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_scenario_config(path)

    def test_unparseable_value_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# a comment\nsampling_factor = ten\n", encoding="utf-8")
        message = f"{path}: line 2: sampling_factor: could not convert string to float: 'ten'"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_scenario_config(path)

    def test_hash_inside_value_is_not_a_comment(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text(
            "name = run#2  # a comment after whitespace\nvisits = data#1.csv\n#spacing = 6\n",
            encoding="utf-8",
        )
        config = load_scenario_config(path)
        assert config.name == "run#2"
        assert config.visit_source == str(tmp_path / "data#1.csv")
        assert config.spacing is None

    def test_errors_name_the_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("sampling_factor = ten\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            load_scenario_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("name = a\nname = b\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="duplicate"):
            load_scenario_config(path)
