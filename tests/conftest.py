"""Shared fixtures and small input builders."""

import dataclasses

import pytest

from venuerisk import (
    EpiParams,
    GeneratorConfig,
    SimulationInput,
    Venue,
    apply_sampling_correction,
    generate_dataset,
    join,
)

# the shipped synthetic fixture: one seed, both traffic profiles
FIXTURE_SEED = 42
FIXTURE_N_VENUES = 1034
FIXTURE_SAMPLING = 10.0
FIXTURE_PREVALENCE = 0.001


def make_input(area_by_id, counts_by_id, window_hours=168,
               sampling_factor=1.0) -> SimulationInput:
    """Build a SimulationInput from {venue_id: area} and {venue_id: {hour: count}}."""
    venues = {
        vid: Venue(venue_id=vid, name=f"venue {vid}", category="restaurant", area=area)
        for vid, area in area_by_id.items()
    }
    visits = {}
    for vid, by_hour in counts_by_id.items():
        counts = [0.0] * window_hours
        for hour, value in by_hour.items():
            counts[hour] = float(value)
        visits[vid] = counts
    table = join(venues, visits, window_hours)
    counts = apply_sampling_correction(table.counts, sampling_factor)
    return dataclasses.replace(table, counts=counts, sampling_factor_applied=sampling_factor)


@pytest.fixture(scope="session")
def default_params():
    return EpiParams(documented_prevalence=FIXTURE_PREVALENCE)


@pytest.fixture(scope="session")
def fixture_inputs(default_params):
    """Lockdown and pre-pandemic synthetic datasets, joined and corrected."""
    inputs = {}
    for profile in ("lockdown", "pre_pandemic"):
        config = GeneratorConfig(n_venues=FIXTURE_N_VENUES, profile=profile, seed=FIXTURE_SEED)
        table = generate_dataset(config)
        counts = apply_sampling_correction(table.counts, FIXTURE_SAMPLING)
        inputs[profile] = SimulationInput(table.venues, counts, FIXTURE_SAMPLING)
    return inputs
