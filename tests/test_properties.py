"""Property tests of the array pipeline against its scalar references.

Examples are derandomized, so every run checks the same cases.
"""

import io
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from venuerisk import (
    EpiParams,
    ScenarioConfig,
    SimulationInput,
    Venue,
    join,
    max_distanced_occupancy,
    parse_visits,
    run_scenario,
    simulate_week,
    wells_riley_probability,
    write_visits,
)
from venuerisk.epi import infection_probability
from venuerisk.scenario import apply_occupancy_cap

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)

params_st = st.builds(
    EpiParams,
    documented_prevalence=st.floats(0.0, 0.1),
    q=st.floats(0.5, 200.0),
    p=st.floats(0.05, 3.0),
    ach=st.floats(0.5, 20.0),
    ceiling_height=st.floats(2.0, 10.0),
    t=st.floats(0.1, 12.0),
    underreport_factor=st.floats(1.0, 30.0),
)
# zeros are common in real traffic, so draw them on purpose
count_st = st.one_of(st.just(0.0), st.floats(0.0, 500.0), st.floats(0.0, 1e-6))


@st.composite
def tables(draw, max_venues=5, max_hours=12):
    n = draw(st.integers(1, max_venues))
    hours = draw(st.integers(1, max_hours))
    areas = draw(st.lists(st.floats(0.5, 5000.0), min_size=n, max_size=n))
    venues = {
        f"v{i}": Venue(f"v{i}", f"venue {i}", "restaurant", area) for i, area in enumerate(areas)
    }
    return SimulationInput(venues, draw(arrays(np.float64, (n, hours), elements=count_st)))


def ulps(got, want):
    return abs(got - want) / math.ulp(want) if want else abs(got) / math.ulp(0.0)


@PROPERTY
@given(
    params_st,
    arrays(np.float64, (3, 7), elements=st.floats(0.0, 1e4)),
    arrays(np.float64, 3, elements=st.floats(0.1, 1e5)),
)
def test_array_probability_within_one_ulp_of_scalar(params, infectors, volumes):
    probability = infection_probability(infectors, params, volumes[:, None])
    for (i, h), got in np.ndenumerate(probability):
        want = wells_riley_probability(infectors[i, h].item(), params, volumes[i].item())
        assert ulps(got.item(), want) <= 1


@PROPERTY
@given(tables(), params_st)
def test_infections_within_two_ulp_of_scalar_cohort(table, params):
    hourly = simulate_week(table, params).hourly
    prevalence = params.effective_prevalence
    for (i, h), got in np.ndenumerate(hourly):
        visitors = table.counts[i, h].item()
        volume = table.areas[i].item() * params.ceiling_height
        infectors = visitors * prevalence
        want = (visitors - infectors) * wells_riley_probability(infectors, params, volume)
        assert ulps(got.item(), want) <= 2


@PROPERTY
@given(tables(), params_st, st.floats(0.3, 4.0), st.floats(0.5, 20.0))
def test_capped_rows_match_scalar_cap(table, params, spacing, factor):
    caps = max_distanced_occupancy(table.areas, spacing)
    sampled = table.counts * factor
    rows = [apply_occupancy_cap(row, cap) for row, cap in zip(sampled, caps)]
    assert (np.array(rows) <= sampled).all()

    capped = run_scenario(
        table, ScenarioConfig(name="c", sampling_factor=factor, spacing=spacing), params
    )
    uncapped = run_scenario(table, ScenarioConfig(name="u", sampling_factor=factor), params)
    # the kernel is exact on equal inputs, so equal weekly values mean equal capped rows
    reference = simulate_week(SimulationInput(table.venues, np.array(rows)), params)
    assert np.array_equal(capped.weekly, reference.weekly)
    assert (capped.weekly <= uncapped.weekly).all()


@PROPERTY
@given(tables(max_venues=6, max_hours=30))
def test_write_parse_join_round_trip(table):
    sink = io.StringIO()
    write_visits(table, sink, comment="round trip")
    visits = parse_visits(io.StringIO(sink.getvalue()), table.window_hours)
    back = join(table.venues, visits, table.window_hours)
    assert np.array_equal(back.counts, table.counts)


@PROPERTY
@given(tables(max_hours=48), params_st, st.randoms(use_true_random=False))
def test_hour_permutation_permutes_hourly_and_keeps_weekly(table, params, rng):
    permutation = list(range(table.window_hours))
    rng.shuffle(permutation)
    permuted_table = SimulationInput(table.venues, table.counts[:, permutation])
    result = simulate_week(table, params)
    permuted = simulate_week(permuted_table, params)
    assert np.array_equal(permuted.hourly, result.hourly[:, permutation])
    assert np.allclose(permuted.weekly, result.weekly, rtol=1e-12, atol=0.0)
