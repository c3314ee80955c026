"""Seeded venue and visit data for the benchmark, kept apart from the package.

This re-implements the draw order of ``venuerisk.synthetic.generate_dataset``
with NumPy alone, so an edit to ``synthetic.py`` cannot change what the
benchmark measures, while ``gen-synthetic``'s output can still be checked
byte for byte against these files. Per seed and profile one generator is
seeded and drawn in this order: log-uniform areas, the drinking-place flags,
log-normal popularity, then one Poisson count per venue-hour. Venue draws come
first, so both profiles of one seed share a venue table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WINDOW_HOURS = 168
AREA_RANGE_M2 = (50.0, 2000.0)
BASE_HOURLY_VISITS = 0.035
POPULARITY_SIGMA = 1.0
DRINKING_PLACE_SHARE = 0.2
PROFILE_LEVEL = {"lockdown": 1.0, "pre_pandemic": 4.0}

_RAW_DIURNAL = (
    0.30, 0.15, 0.08, 0.05, 0.05, 0.08,
    0.20, 0.45, 0.70, 0.80, 0.90, 1.60,
    2.40, 1.90, 1.10, 0.90, 1.10, 1.90,
    2.90, 3.10, 2.40, 1.60, 0.90, 0.50,
)
# same expression as the package's, so every rate is the same double
_DIURNAL = tuple(w * 24.0 / sum(_RAW_DIURNAL) for w in _RAW_DIURNAL)


@dataclass(frozen=True)
class Dataset:
    """One profile's draws: per-venue arrays plus the [venue, hour] count matrix."""

    areas: np.ndarray
    is_bar: np.ndarray
    counts: np.ndarray

    @property
    def n_venues(self) -> int:
        return self.areas.size


def generate(n_venues: int, profile: str, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    lo, hi = AREA_RANGE_M2
    areas = np.exp(rng.uniform(math.log(lo), math.log(hi), size=n_venues))
    is_bar = rng.random(size=n_venues) < DRINKING_PLACE_SHARE
    popularity = rng.lognormal(mean=0.0, sigma=POPULARITY_SIGMA, size=n_venues)
    shape = np.array([_DIURNAL[h % 24] for h in range(WINDOW_HOURS)])
    rates = BASE_HOURLY_VISITS * PROFILE_LEVEL[profile] * popularity[:, None] * shape[None, :]
    counts = rng.poisson(rates).astype(float)
    return Dataset(areas=areas, is_bar=is_bar, counts=counts)


def venue_ids(n_venues: int) -> list[str]:
    return [f"v{i:05d}" for i in range(n_venues)]


def venue_rows(data: Dataset) -> str:
    """Data rows of the venue CSV (no comment, no header), as the package writes them."""
    rows = []
    for i, (area, bar) in enumerate(zip(data.areas.tolist(), data.is_bar.tolist())):
        category = "drinking_place" if bar else "restaurant"
        label = "drinking place" if bar else "restaurant"
        rows.append(f"v{i:05d},Synthetic {label} {i:05d},{category},{area!r}\n")
    return "".join(rows)


def visit_rows(data: Dataset) -> str:
    """Data rows of the visit CSV: non-zero venue-hours in venue, then hour, order."""
    venue_idx, hours = np.nonzero(data.counts)
    ids = venue_ids(data.n_venues)
    values = data.counts[venue_idx, hours].astype(np.int64).tolist()
    return "".join(
        f"{ids[v]},{h},{c}\n" for v, h, c in zip(venue_idx.tolist(), hours.tolist(), values)
    )


def write_venues(data: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("venue_id,name,category,area\n")
        handle.write(venue_rows(data))


def write_visits(data: Dataset, path) -> int:
    """Write the visit file; returns the data rows written."""
    body = visit_rows(data)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("venue_id,hour,count\n")
        handle.write(body)
    return body.count("\n")
