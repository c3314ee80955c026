"""Shared fixtures and small input builders."""

import numpy as np
import pytest

from venuerisk import (
    EpiParams,
    GeneratorConfig,
    SimulationInput,
    VenueTable,
    apply_sampling_correction,
    compute_volumes,
    generate_dataset,
    join,
)
from venuerisk.epi import hourly_infections
from venuerisk.ingest import WINDOW_HOURS

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


def window_counts(rows) -> np.ndarray:
    """A count matrix with one row per entry of ``rows``: its values from hour 0 on, then zeros."""
    counts = np.zeros((len(rows), WINDOW_HOURS))
    for counts_row, row in zip(counts, rows):
        counts_row[:len(row)] = row
    return counts


def make_input(area_by_id, counts_by_id) -> SimulationInput:
    """Build a SimulationInput from {venue_id: area} and {venue_id: {hour: count}}."""
    venues = make_venues(area_by_id)
    visits = {}
    for vid, by_hour in counts_by_id.items():
        counts = np.zeros(WINDOW_HOURS)
        for hour, value in by_hour.items():
            counts[hour] = float(value)
        visits[vid] = counts
    return join(venues, visits)


def hourly_of(sim: SimulationInput, params: EpiParams) -> np.ndarray:
    """Expected new infections ``[venue, hour]`` of ``sim``: the kernel ``simulate_week`` sums."""
    volumes = compute_volumes(sim.venues.areas, params.ceiling_height)
    return hourly_infections(sim.counts, volumes, params)


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
