"""Shared fixtures and small input builders."""

import numpy as np
import pytest

from venuerisk import (
    EpiParams,
    GeneratorConfig,
    SimulationInput,
    VenueTable,
    apply_sampling_correction,
    generate_dataset,
    join,
)

# the shipped synthetic fixture: one seed, both traffic profiles
FIXTURE_SEED = 42
FIXTURE_N_VENUES = 1034
FIXTURE_SAMPLING = 10.0
FIXTURE_PREVALENCE = 0.001


def make_venues(area_by_id) -> VenueTable:
    """Build a VenueTable of restaurants from {venue_id: area in m2}, in key order."""
    ids = tuple(area_by_id)
    return VenueTable(
        ids=ids,
        names=tuple(f"venue {vid}" for vid in ids),
        categories=("restaurant",) * len(ids),
        areas=np.array([float(a) for a in area_by_id.values()]),
    )


def same_venues(a: VenueTable, b: VenueTable) -> bool:
    """Column-by-column equality, row order included (a VenueTable compares by identity)."""
    return (
        (a.ids, a.names, a.categories) == (b.ids, b.names, b.categories)
        and np.array_equal(a.areas, b.areas)
    )


def make_input(area_by_id, counts_by_id, window_hours=168,
               sampling_factor=1.0) -> SimulationInput:
    """Build a SimulationInput from {venue_id: area} and {venue_id: {hour: count}}."""
    venues = make_venues(area_by_id)
    visits = {}
    for vid, by_hour in counts_by_id.items():
        counts = np.zeros(window_hours)
        for hour, value in by_hour.items():
            counts[hour] = float(value)
        visits[vid] = counts
    table = join(venues, visits, window_hours)
    return SimulationInput(table.venues, apply_sampling_correction(table.counts, sampling_factor))


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
        inputs[profile] = SimulationInput(table.venues, counts)
    return inputs
