import math
import random
import re

import numpy as np
import pytest

from venuerisk import (
    ConfigError,
    DatasetError,
    EpiParams,
    ScenarioConfig,
    load_scenario_config,
    max_distanced_occupancy,
    parse_spacing,
    run_scenario,
    simulate_week,
    write_visits,
)
from venuerisk.scenario import apply_occupancy_cap
from conftest import make_input

SIX_FEET = 1.8288  # meters


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

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            max_distanced_occupancy(0.0, 1.0)
        with pytest.raises(ValueError):
            max_distanced_occupancy(10.0, 0.0)


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
        outcome = run_scenario(base, config, default_params)
        assert np.array_equal(outcome.weekly, simulate_week(base, default_params).weekly)
        assert outcome.severe_count + outcome.mild_count == len(base.venues)

    def test_huge_spacing_zeroes_everything(self, default_params):
        base = self._base()
        config = ScenarioConfig(name="empty", sampling_factor=1.0, spacing=1000.0)
        outcome = run_scenario(base, config, default_params)
        assert (outcome.weekly == 0.0).all()

    def test_capped_never_exceeds_uncapped(self, default_params):
        base = self._base()
        uncapped = run_scenario(base, ScenarioConfig(name="u", sampling_factor=10.0), default_params)
        capped = run_scenario(
            base,
            ScenarioConfig(name="c", sampling_factor=10.0, spacing=SIX_FEET),
            default_params,
        )
        assert (capped.weekly <= uncapped.weekly).all()

    def test_sampling_applied_before_cap(self, default_params):
        # one venue, cap 2, raw count 1: capping after the 10x correction
        # must clamp 10 -> 2, not leave 1 * 10 = 10
        base = make_input({"a": math.pi * SIX_FEET ** 2 * 2.2}, {"a": {0: 1.0}})
        cap = max_distanced_occupancy(base.venues.areas[0], SIX_FEET)
        assert cap == 2
        outcome = run_scenario(
            base,
            ScenarioConfig(name="s", sampling_factor=10.0, spacing=SIX_FEET),
            default_params,
        )
        manual = make_input({"a": math.pi * SIX_FEET ** 2 * 2.2}, {"a": {0: float(cap)}})
        expected = simulate_week(manual, default_params).weekly[0]
        assert outcome.weekly[0] == expected

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
        assert (res_small.weekly <= res_big.weekly).all()

    def test_deterministic(self, default_params):
        base = self._base()
        config = ScenarioConfig(name="d", sampling_factor=10.0, spacing=SIX_FEET)
        first = run_scenario(base, config, default_params)
        second = run_scenario(base, config, default_params)
        assert np.array_equal(first.weekly, second.weekly)
        assert (first.config, first.severe_count, first.mild_count) == (
            second.config, second.severe_count, second.mild_count
        )

    def test_alternate_visit_file(self, default_params, tmp_path):
        base = self._base()
        alt = tmp_path / "alt_visits.csv"
        with open(alt, "w", encoding="utf-8") as handle:
            write_visits(make_input({"a": 100.0}, {"a": {0: 50.0}}), handle)
        config = ScenarioConfig(name="alt", visit_source=str(alt), sampling_factor=1.0)
        outcome = run_scenario(base, config, default_params)
        assert outcome.weekly[0] > 0
        # venues absent from the alternate file fall back to zero traffic
        assert outcome.weekly[1] == 0.0

    def test_alternate_file_with_unknown_venue(self, default_params, tmp_path):
        base = self._base()
        alt = tmp_path / "bad_visits.csv"
        alt.write_text("venue_id,hour,count\nghost,0,5\n", encoding="utf-8")
        config = ScenarioConfig(name="bad", visit_source=str(alt))
        with pytest.raises(DatasetError, match="ghost"):
            run_scenario(base, config, default_params)

    def test_params_override(self, default_params):
        base = self._base()
        config = ScenarioConfig(name="hot", sampling_factor=1.0, params_override={"q": 40.0})
        boosted = run_scenario(base, config, default_params)
        plain = run_scenario(
            base, ScenarioConfig(name="p", sampling_factor=1.0), default_params
        )
        for boosted_weekly, plain_weekly in zip(boosted.weekly, plain.weekly):
            if plain_weekly > 0:
                assert boosted_weekly > plain_weekly

    def test_ceiling_height_override_sets_the_volumes(self, default_params):
        # volumes follow the scenario's own params, not the base params
        base = self._base()
        config = ScenarioConfig(
            name="tall", sampling_factor=1.0, params_override={"ceiling_height": 30.0}
        )
        tall = run_scenario(base, config, default_params)
        tall_params = EpiParams(documented_prevalence=0.001, ceiling_height=30.0)
        assert np.array_equal(tall.weekly, simulate_week(base, tall_params).weekly)
        plain = simulate_week(base, default_params).weekly
        assert (tall.weekly < plain).all()

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="unknown parameter"):
            ScenarioConfig(name="x", params_override={"quanta": 1.0})


class TestSpacingParsing:
    def test_feet(self):
        assert parse_spacing("6ft") == pytest.approx(SIX_FEET, rel=1e-12)

    def test_meters(self):
        assert parse_spacing("1.8288m") == 1.8288

    def test_whitespace_tolerated(self):
        assert parse_spacing(" 2 m ") == 2.0

    @pytest.mark.parametrize("text", ["6", "ft", "6 feet", "-2m", "0m", ""])
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
            "spacing = 6ft\n"
            "param.q = 25\n",
            encoding="utf-8",
        )
        config = load_scenario_config(path)
        assert config.name == "reopened"
        assert config.visit_source == str(tmp_path / "traffic_2019.csv")
        assert config.sampling_factor == 10.0
        assert config.spacing == pytest.approx(SIX_FEET, rel=1e-12)
        assert config.params_override == {"q": 25.0}

    def test_defaults(self, tmp_path):
        path = tmp_path / "lockdown.txt"
        path.write_text("", encoding="utf-8")
        config = load_scenario_config(path)
        assert config.name == "lockdown"
        assert config.visit_source == "baseline"
        assert config.sampling_factor == 10.0
        assert config.spacing is None
        assert config.params_override == {}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("venue_cap = 5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown scenario key"):
            load_scenario_config(path)

    def test_unknown_param_override_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("param.bogus = 5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown parameter override"):
            load_scenario_config(path)

    def test_unparseable_value_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("sampling_factor = ten\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="not a number"):
            load_scenario_config(path)

    def test_hash_inside_value_is_not_a_comment(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text(
            "name = run#2  # a comment after whitespace\nvisits = data#1.csv\n#param.q = 99\n",
            encoding="utf-8",
        )
        config = load_scenario_config(path)
        assert config.name == "run#2"
        assert config.visit_source == str(tmp_path / "data#1.csv")
        assert config.params_override == {}

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
