import dataclasses
import math
import random

import numpy as np
import pytest

from venuerisk import EpiParams, SimulationInput, simulate_week, wells_riley_probability
from venuerisk.epi import count_severities
from conftest import make_input, make_venues

# frozen from an independent 50-digit evaluation of 1 - exp(-dose)
P_ONE_INFECTOR_V300 = 0.0079680851629393696601  # dose 0.008
P_ONE_INFECTOR_V30 = 0.076883653613364217089  # dose 0.08
C_FIFTY_VISITORS = 0.29461527034368821133  # N=50, prev 0.015, V=300


def effective_prevalence(documented, underreport_factor):
    params = EpiParams(documented_prevalence=documented, underreport_factor=underreport_factor)
    return params.effective_prevalence


def infections(visitors, prevalence, params, room_volume):
    """Expected new infections of one cohort of ``visitors``, through ``simulate_week``.

    ``prevalence`` is the effective prevalence (the under-reporting
    factor is set to 1) and the room has ``params.ceiling_height``.
    """
    params = dataclasses.replace(params, documented_prevalence=prevalence, underreport_factor=1.0)
    area = room_volume / params.ceiling_height
    table = SimulationInput(make_venues({"v": area}), np.array([[visitors]]))
    return simulate_week(table, params).weekly[0]


class TestEffectivePrevalence:
    def test_underreporting_correction(self):
        assert effective_prevalence(0.001, 15) == 0.015

    def test_clamped_at_certainty(self):
        assert effective_prevalence(0.2, 15) == 1.0

    def test_zero(self):
        assert effective_prevalence(0.0, 15) == 0.0

    def test_factor_below_one_rejected(self):
        with pytest.raises(ValueError):
            effective_prevalence(0.01, 0.5)

    def test_out_of_range_documented(self):
        with pytest.raises(ValueError):
            effective_prevalence(1.5, 15)


class TestWellsRiley:
    def test_no_infectors_no_risk(self, default_params):
        assert wells_riley_probability(0.0, default_params, 300.0) == 0.0

    def test_reference_room(self, default_params):
        p = wells_riley_probability(1.0, default_params, 300.0)
        assert p == pytest.approx(P_ONE_INFECTOR_V300, rel=1e-12)

    def test_small_room_is_riskier(self, default_params):
        p = wells_riley_probability(1.0, default_params, 30.0)
        assert p == pytest.approx(P_ONE_INFECTOR_V30, rel=1e-12)
        assert p > wells_riley_probability(1.0, default_params, 300.0)

    def test_bad_volume(self, default_params):
        with pytest.raises(ValueError):
            wells_riley_probability(1.0, default_params, 0.0)
        with pytest.raises(ValueError):
            wells_riley_probability(1.0, default_params, -10.0)

    def test_negative_infectors(self, default_params):
        with pytest.raises(ValueError):
            wells_riley_probability(-0.1, default_params, 300.0)

    def test_range_and_zero_condition(self):
        rng = random.Random(5)
        for _ in range(1000):
            params = EpiParams(
                documented_prevalence=0.001,
                q=rng.uniform(0.5, 200),
                p=rng.uniform(0.05, 3),
                t=rng.uniform(0.1, 12),
                ach=rng.uniform(0.5, 20),
            )
            infectors = rng.choice([0.0, rng.uniform(1e-6, 100)])
            volume = rng.uniform(5, 10000)
            prob = wells_riley_probability(infectors, params, volume)
            assert 0.0 <= prob < 1.0
            assert (prob == 0.0) == (infectors == 0.0)

    def test_saturating_dose_stays_below_one(self, default_params):
        # a packed, tiny, unventilated room: probability approaches but
        # never reaches certainty
        prob = wells_riley_probability(1e6, default_params, 5.0)
        assert prob < 1.0
        assert prob == math.nextafter(1.0, 0.0)

    def test_strict_monotonicity(self):
        # P must strictly increase in I, q, p, t and strictly decrease in V.
        # Tuples are drawn so the bumped dose stays below 20: past ~37 the
        # probability saturates within one ulp of 1 and float64 can no
        # longer resolve a strict ordering.
        rng = random.Random(17)
        accepted = 0
        while accepted < 1000:
            base = dict(
                infectors=rng.uniform(0.01, 50),
                q=rng.uniform(1, 100),
                p=rng.uniform(0.1, 2),
                t=rng.uniform(0.1, 8),
                ach=rng.uniform(1, 10),
                volume=rng.uniform(10, 5000),
            )
            bump = rng.uniform(1.2, 3.0)
            dose = (
                base["infectors"] * base["q"] * base["p"] * base["t"]
                / (base["ach"] * base["volume"])
            )
            if dose * bump > 20.0:
                continue
            accepted += 1

            def prob(infectors, q, p, t, ach, volume):
                params = EpiParams(documented_prevalence=0.001, q=q, p=p, t=t, ach=ach)
                return wells_riley_probability(infectors, params, volume)

            reference = prob(**base)
            for key in ("infectors", "q", "p", "t"):
                assert prob(**{**base, key: base[key] * bump}) > reference
            assert prob(**{**base, "volume": base["volume"] * bump}) < reference

    def test_linearization_for_tiny_doses(self, default_params):
        # second-order Taylor bound; one ulp of slack covers the rounding of
        # a correctly-evaluated expm1 when the dose is so small that the
        # cubic Taylor margin falls below representable granularity
        rng = random.Random(23)
        for _ in range(2000):
            dose = 10 ** rng.uniform(-15, -6)
            volume = 300.0
            infectors = dose * default_params.ach * volume / (
                default_params.q * default_params.p * default_params.t
            )
            x = infectors * default_params.q * default_params.p * default_params.t / (
                default_params.ach * volume
            )
            prob = wells_riley_probability(infectors, default_params, volume)
            assert abs(prob - x) <= x * x / 2 + math.ulp(x)
            if x > 1e-7:
                # cubic margin dominates rounding here, so the exact bound holds
                assert abs(prob - x) <= x * x / 2


class TestExpectedInfectionsHour:
    def test_empty_venue(self, default_params):
        assert infections(0.0, 0.015, default_params, 300.0) == 0.0

    def test_no_seed_infections(self, default_params):
        assert infections(50.0, 0.0, default_params, 300.0) == 0.0

    def test_three_step_pipeline(self, default_params):
        value = infections(50.0, 0.015, default_params, 300.0)
        assert value == pytest.approx(C_FIFTY_VISITORS, rel=1e-9)

    def test_infections_bounded_by_cohort(self, default_params):
        rng = random.Random(29)
        for _ in range(1000):
            visitors = rng.uniform(0, 500)
            prevalence = rng.uniform(0, 1)
            volume = rng.uniform(5, 5000)
            value = infections(visitors, prevalence, default_params, volume)
            susceptible = visitors - visitors * prevalence
            assert 0.0 <= value <= susceptible + 1e-12
            assert susceptible <= visitors

    def test_bad_arguments(self, default_params):
        with pytest.raises(ValueError):
            infections(-1.0, 0.5, default_params, 300.0)
        with pytest.raises(ValueError):
            infections(10.0, 1.5, default_params, 300.0)
        with pytest.raises(ValueError):
            infections(10.0, 0.5, default_params, 0.0)


class TestSimulateWeek:
    def test_all_zero_visits(self, default_params):
        sim = make_input({"a": 100.0, "b": 400.0}, {})
        result = simulate_week(sim, default_params)
        assert result.weekly.tolist() == [0.0, 0.0]
        assert count_severities(result.weekly, 1.0) == (0, 2)

    def test_single_hour_matches_oracle(self, default_params):
        sim = make_input({"a": 100.0}, {"a": {10: 50.0}})
        result = simulate_week(sim, default_params)
        assert result.weekly[0] == pytest.approx(C_FIFTY_VISITORS, rel=1e-9)
        assert result.hourly[0, 10] == result.weekly[0]

    def test_doubling_traffic_increases_weekly(self, default_params):
        counts = {"a": {0: 10.0, 5: 3.0}, "b": {7: 25.0}}
        sim = make_input({"a": 120.0, "b": 310.0}, counts)
        doubled = make_input({"a": 120.0, "b": 310.0}, {
            vid: {h: 2 * c for h, c in by_hour.items()} for vid, by_hour in counts.items()
        })
        base = simulate_week(sim, default_params)
        more = simulate_week(doubled, default_params)
        assert (more.weekly > base.weekly).all()

    def test_weekly_is_sum_of_hourly(self, default_params):
        sim = make_input({"a": 100.0}, {"a": {h: (h % 7) * 1.7 for h in range(168)}})
        result = simulate_week(sim, default_params)
        assert result.weekly[0] == pytest.approx(math.fsum(result.hourly[0]), rel=1e-9)

    def test_deterministic(self, default_params):
        sim = make_input({"a": 100.0, "b": 77.0}, {"a": {3: 12.0}, "b": {9: 4.5}})
        first = simulate_week(sim, default_params)
        second = simulate_week(sim, default_params)
        assert np.array_equal(first.hourly, second.hourly)
        assert np.array_equal(first.weekly, second.weekly)

    def test_hour_permutation_equivariance(self, default_params):
        counts = {h: float((h * 13) % 29) for h in range(24)}
        sim = make_input({"a": 100.0}, {"a": counts}, window_hours=24)
        result = simulate_week(sim, default_params)

        permutation = list(range(24))
        random.Random(3).shuffle(permutation)
        permuted_counts = {h: counts[permutation[h]] for h in range(24)}
        permuted_sim = make_input({"a": 100.0}, {"a": permuted_counts}, window_hours=24)
        permuted = simulate_week(permuted_sim, default_params)

        assert np.array_equal(permuted.hourly[0], result.hourly[0, permutation])
        assert permuted.weekly[0] == result.weekly[0]


class TestEpiParams:
    def test_defaults(self, default_params):
        assert default_params.q == 20.0
        assert default_params.p == 0.48
        assert default_params.ach == 4.0
        assert default_params.ceiling_height == 3.0
        assert default_params.t == 1.0
        assert default_params.underreport_factor == 15.0

    def test_effective_prevalence_property(self, default_params):
        assert default_params.effective_prevalence == 0.015

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"q": 0.0},
            {"p": -1.0},
            {"ach": 0.0},
            {"ceiling_height": 0.0},
            {"t": 0.0},
            {"documented_prevalence": -0.1},
            {"documented_prevalence": 1.1},
            {"underreport_factor": 0.9},
        ],
    )
    def test_validation(self, kwargs):
        base = {"documented_prevalence": 0.001}
        with pytest.raises(ValueError):
            EpiParams(**{**base, **kwargs})
