"""Shared fixtures and small input builders."""

import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest

from venuerisk.epi import EpiParams
from venuerisk.ingest import (
    WINDOW_HOURS,
    SimulationInput,
    VenueTable,
    VisitRecords,
    apply_sampling_correction,
    compute_volumes,
    join,
)
from venuerisk.scenario import max_distanced_occupancy
from venuerisk.synthetic import GeneratorConfig, generate_dataset

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


def input_from_records(venues: VenueTable, rows, hours, counts) -> SimulationInput:
    """A SimulationInput of the records (venue row, hour, count) given in any order: a
    stable sort by row groups each venue's records, in the order given."""
    rows = np.asarray(rows, np.intp)
    order = np.argsort(rows, kind="stable")
    offsets = np.zeros(len(venues) + 1, np.int64)
    offsets[1:] = np.cumsum(np.bincount(rows, minlength=len(venues)))
    hours, counts = np.asarray(hours, np.uint8)[order], np.asarray(counts)[order]
    return SimulationInput(venues, offsets, hours, counts)


def record_rows_of(sim: SimulationInput) -> np.ndarray:
    """The venue row of each record of ``sim``, expanded from its offsets."""
    return np.repeat(np.arange(len(sim.venues)), np.diff(sim.offsets))


def input_from_matrix(venues: VenueTable, counts: np.ndarray) -> SimulationInput:
    """A SimulationInput with one record per non-zero cell of ``counts[venue, hour]``, in row order."""
    rows, hours = np.nonzero(counts)
    return input_from_records(venues, rows, hours, counts[rows, hours])


def dense_counts(sim: SimulationInput) -> np.ndarray:
    """The records of ``sim`` as a ``counts[venue, hour]`` matrix, 0 where no record is."""
    counts = np.zeros((len(sim.venues), WINDOW_HOURS))
    counts[record_rows_of(sim), sim.hour] = sim.count
    return counts


def runs_of(index) -> tuple[np.ndarray, np.ndarray]:
    """The (id index, length) of each run of equal entries of ``index``: VisitRecords' run columns."""
    venues, lengths = [], []
    for value in index:
        if venues and venues[-1] == value:
            lengths[-1] += 1
        else:
            venues.append(value)
            lengths.append(1)
    return np.array(venues, np.int32), np.array(lengths, np.uint8)


def record_ids(visits: VisitRecords) -> np.ndarray:
    """The id index of each record of ``visits``, expanded from its runs."""
    return np.repeat(visits.run_venue, visits.run_length)


def visit_records(counts_by_id) -> VisitRecords:
    """VisitRecords with one record per entry of {venue_id: {hour: count}}, in key order.

    A value may also be a sequence of counts from hour 0 on, one record per entry.
    """
    ids, venues, hours, counts = {}, [], [], []
    for vid, by_hour in counts_by_id.items():
        index = ids.setdefault(vid, len(ids))
        pairs = by_hour.items() if isinstance(by_hour, dict) else enumerate(by_hour)
        for hour, count in pairs:
            venues.append(index)
            hours.append(hour)
            counts.append(float(count))
    return VisitRecords(ids, *runs_of(venues), np.array(hours, np.uint8), np.array(counts, float))


def visit_rows(visits: VisitRecords) -> dict:
    """{venue_id: its WINDOW_HOURS counts, 0 where no record is}, in ``visits.ids`` order."""
    rows = np.zeros((len(visits.ids), WINDOW_HOURS))
    rows[record_ids(visits), visits.hour] = visits.count
    return dict(zip(visits.ids, rows))


def record_columns(visits: VisitRecords) -> tuple:
    """What ``visits`` holds, for comparison with ==: ids in order, each column's dtype,
    and each record's id index, hour and count, counts by ``repr`` so that -0.0 and 0.0
    differ. Where a stretch of one id is split into runs is not compared: each reader
    finds its own runs."""
    columns = (visits.run_venue, visits.run_length, visits.hour, visits.count)
    return (
        list(visits.ids.items()),
        [column.dtype.str for column in columns],
        [repr(column.tolist()) for column in (record_ids(visits), visits.hour, visits.count)],
    )


def narrowest_count_dtype(counts) -> np.dtype:
    """uint8 when every count is a whole number from 0 to 255, else float64.

    A count fits one byte when it converts there and back to the same float64 bits, so
    not -0: the reference for the width rule of ``ingest.put_counts``.
    """
    values = [float(count) for count in counts]
    if all(v.is_integer() and math.copysign(1.0, v) > 0 and v <= 255 for v in values):
        return np.dtype(np.uint8)
    return np.dtype(float)


def parse_outcome(parse, text: str):
    """``record_columns`` of ``parse`` on ``text``, or the type and message of its error."""
    try:
        visits = parse(io.StringIO(text))
    except Exception as exc:  # the csv parser defines every error, so compare them all
        return type(exc), str(exc)
    return record_columns(visits)


def large_table(n_venues=10_000, hours=80):
    """Records of ``hours`` hours for each of ``n_venues`` venues: a visit file of about 10 MB."""
    venues = make_venues({f"v{i:05d}": 1.0 for i in range(n_venues)})
    row = np.repeat(np.arange(n_venues), hours)
    hour = np.tile(np.arange(hours, dtype=np.uint8), n_venues)
    offsets = np.arange(n_venues + 1) * hours
    return SimulationInput(venues, offsets, hour, ((row * 7 + hour) % 50 + 1).astype(float))


def traced_memory(call):
    """``call()``'s result, the memory it keeps once it returns and the most it held at
    once, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def peak_above_kept(call):
    """``call()``'s result, and the most memory it held at once beyond what it keeps, in bytes."""
    result, kept, peak = traced_memory(call)
    return result, peak - kept


def make_input(area_by_id, counts_by_id) -> SimulationInput:
    """Build a SimulationInput from {venue_id: area} and {venue_id: {hour: count}}."""
    return join(make_venues(area_by_id), visit_records(counts_by_id))


# The dense kernel, the reference for the record kernel of simulate_week: every
# cell of a [venue, hour] count matrix is evaluated, on blocks of DENSE_BLOCK_ROWS
# venues, and the weekly values are the row sums of each block.
DENSE_BLOCK_ROWS = 4096
_BELOW_ONE = math.nextafter(1.0, 0.0)


def dense_hourly_infections(counts: np.ndarray, volumes: np.ndarray, params: EpiParams):
    """Expected new infections ``hourly[venue, hour]`` of the visitors ``counts[venue, hour]``."""
    infectors = counts * params.effective_prevalence
    probability = infectors * params.q * params.p * params.t
    probability /= params.ach * volumes[:, None]
    np.expm1(np.negative(probability, out=probability), out=probability)
    np.minimum(np.negative(probability, out=probability), _BELOW_ONE, out=probability)
    hourly = np.subtract(counts, infectors, out=infectors)
    hourly *= probability
    return hourly


def dense_weekly(sim: SimulationInput, params: EpiParams, spacing: float | None = None):
    """Weekly infections of ``sim`` by the dense kernel, each venue capped at ``spacing`` first."""
    counts = dense_counts(sim)
    if spacing is not None:
        caps = max_distanced_occupancy(sim.venues.areas, spacing)
        np.minimum(counts, caps[:, None], out=counts)
    volumes = compute_volumes(sim.venues.areas, params.ceiling_height)
    weekly = np.empty(len(volumes))
    for start in range(0, len(volumes), DENSE_BLOCK_ROWS):
        rows = slice(start, start + DENSE_BLOCK_ROWS)
        weekly[rows] = dense_hourly_infections(counts[rows], volumes[rows], params).sum(axis=1)
    return weekly


def hourly_of(sim: SimulationInput, params: EpiParams) -> np.ndarray:
    """Expected new infections ``[venue, hour]`` of ``sim``: the dense kernel's cells."""
    volumes = compute_volumes(sim.venues.areas, params.ceiling_height)
    return dense_hourly_infections(dense_counts(sim), volumes, params)


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
        counts = apply_sampling_correction(table.count, FIXTURE_SAMPLING)
        inputs[profile] = dataclasses.replace(table, count=counts)
    return inputs
