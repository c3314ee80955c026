"""Deterministic synthetic venue and visit data.

Stands in for proprietary foot-traffic feeds so the pipeline can be
exercised, tested, and demoed end to end. A user sets the venue count,
the traffic profile and the seed (:class:`GeneratorConfig`, listed in
the manifest of ``gen-synthetic``); the module constants below fix the
rest, pinned by the tool version:

* floor areas are log-uniform over ``AREA_RANGE_M2`` (50-2000 m2);
* each venue gets a log-normal popularity weight (median 1), which gives
  the heavy-tailed traffic mix where a handful of venues dominate;
* hourly visit counts are Poisson draws around
  ``BASE_HOURLY_VISITS * level * popularity * diurnal_shape``, where the
  level is the traffic profile's amplitude (pre-pandemic traffic is
  ``PRE_PANDEMIC_LEVEL`` = 4 times lockdown traffic);
* counts model a sampled panel, i.e. they are meant to be fed through
  the usual 10x sampling correction downstream.

The result is a :class:`~venuerisk.ingest.SimulationInput`: a venue
table built column by column from the drawn arrays, and one record per
non-zero draw over the ``WINDOW_HOURS`` window, in venue order, then
hour. All venue draws precede any count draws, so both profiles of one
seed share an identical venue table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ingest import HOUR_DTYPE, INDEX_DTYPE, WINDOW_HOURS, SimulationInput, VenueTable

PROFILES = ("lockdown", "pre_pandemic")
AREA_RANGE_M2 = (50.0, 2000.0)
BASE_HOURLY_VISITS = 0.035  # mean panel visits/venue/hour at lockdown level
POPULARITY_SIGMA = 1.0
LOCKDOWN_LEVEL = 1.0
PRE_PANDEMIC_LEVEL = 4.0  # traffic level as a multiple of lockdown's
DRINKING_PLACE_SHARE = 0.2

# relative traffic weight per hour of day (0 = midnight); positive at every
# hour, normalized below so the mean weight is exactly 1
_RAW_DIURNAL = (
    0.30, 0.15, 0.08, 0.05, 0.05, 0.08,  # small-hours trickle
    0.20, 0.45, 0.70, 0.80, 0.90, 1.60,
    2.40, 1.90, 1.10, 0.90, 1.10, 1.90,  # lunch and dinner peaks
    2.90, 3.10, 2.40, 1.60, 0.90, 0.50,
)
DIURNAL_SHAPE = tuple(w * 24.0 / sum(_RAW_DIURNAL) for w in _RAW_DIURNAL)
# venue rows per Poisson call: its rate and draw matrices take 5.5 MB each, where
# matrices of every venue take 67 MB each at 50 000 venues
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class GeneratorConfig:
    """The generator settings a user chooses.

    ``n_venues`` is at least 1 and ``profile`` one of ``PROFILES``: they
    are checked where they are made, by the ``--n-venues`` and
    ``--profile`` flags of ``gen-synthetic``, so a direct caller checks
    its own.
    """

    n_venues: int
    profile: str
    seed: int


def generate_dataset(config: GeneratorConfig) -> SimulationInput:
    """Generate a venue table and its visit records, deterministic for a given seed.

    The counts are the non-zero Poisson draws, so each is a whole number
    > 0; no later step checks them again. The record columns are the
    filled fronts of arrays with one slot per venue-hour, so the unfilled
    slots take address space but no memory.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n_venues

    lo, hi = AREA_RANGE_M2
    areas = np.exp(rng.uniform(math.log(lo), math.log(hi), size=n))
    is_bar = rng.random(size=n) < DRINKING_PLACE_SHARE
    popularity = rng.lognormal(mean=0.0, sigma=POPULARITY_SIGMA, size=n)

    level = LOCKDOWN_LEVEL if config.profile == "lockdown" else PRE_PANDEMIC_LEVEL
    shape = np.array([DIURNAL_SHAPE[h % 24] for h in range(WINDOW_HOURS)])
    # each column is made once, one slot per venue-hour, and filled from the front:
    # pages past the last record are never touched, and no per-block arrays are freed
    # into gaps whose reuse depends on how many records the seed draws
    rows = np.empty(n * WINDOW_HOURS, INDEX_DTYPE)
    hours = np.empty(n * WINDOW_HOURS, HOUR_DTYPE)
    counts = np.empty(n * WINDOW_HOURS)
    size = 0
    for start in range(0, n, _BLOCK_ROWS):
        rates = BASE_HOURLY_VISITS * level * popularity[start:start + _BLOCK_ROWS, None] * shape
        # drawn in C order, so block after block the draws take the bit stream as one
        # call over every venue's rates would
        draws = rng.poisson(rates)
        # scanned as a byte mask, three times faster than the int64 draws themselves
        cells = np.flatnonzero(draws.astype(bool))
        end = size + cells.size
        block_rows, hours[size:end] = np.divmod(cells, WINDOW_HOURS)
        rows[size:end] = block_rows + start
        counts[size:end] = draws.ravel()[cells]
        size = end

    # one string object per category, shared by its rows, as in a parsed table
    categories = tuple(map(("restaurant", "drinking_place").__getitem__, is_bar.tolist()))
    ids = tuple(f"v{i:05d}" for i in range(n))
    names = tuple(f"Synthetic {c.replace('_', ' ')} {i:05d}" for i, c in enumerate(categories))
    venues = VenueTable(ids, names, categories, areas)
    return SimulationInput(venues, rows[:size], hours[:size], counts[:size])
