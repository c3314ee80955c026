"""Deterministic synthetic venue and visit data.

Stands in for proprietary foot-traffic feeds so the pipeline can be
exercised, tested, and demoed end to end. Every knob lives in
:class:`GeneratorConfig` so fixtures are auditable:

* floor areas are log-uniform over ``area_range_m2`` (default 50-2000 m2);
* each venue gets a log-normal popularity weight (median 1), which gives
  the heavy-tailed traffic mix where a handful of venues dominate;
* hourly visit counts are Poisson draws around
  ``base_hourly_visits * level * popularity * diurnal_shape``, where the
  level is the traffic profile's amplitude (pre-pandemic traffic is a
  configurable multiple of lockdown traffic, default 4x);
* counts model a sampled panel, i.e. they are meant to be fed through
  the usual 10x sampling correction downstream.

The result is a :class:`~venuerisk.ingest.SimulationInput`: a venue
table built column by column from the drawn arrays, and the drawn
``counts[venue, hour]`` matrix. All venue draws precede any count
draws, so both profiles of one seed share an identical venue table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ingest import SimulationInput, VenueTable

PROFILES = ("lockdown", "pre_pandemic")

# relative traffic weight per hour of day (0 = midnight); positive at every
# hour, normalized below so the mean weight is exactly 1
_RAW_DIURNAL = (
    0.30, 0.15, 0.08, 0.05, 0.05, 0.08,  # small-hours trickle
    0.20, 0.45, 0.70, 0.80, 0.90, 1.60,
    2.40, 1.90, 1.10, 0.90, 1.10, 1.90,  # lunch and dinner peaks
    2.90, 3.10, 2.40, 1.60, 0.90, 0.50,
)
DIURNAL_SHAPE = tuple(w * 24.0 / sum(_RAW_DIURNAL) for w in _RAW_DIURNAL)


@dataclass(frozen=True)
class GeneratorConfig:
    """All generator parameters; defaults are the shipped fixture settings."""

    n_venues: int
    profile: str
    seed: int
    window_hours: int = 168
    area_range_m2: tuple[float, float] = (50.0, 2000.0)
    base_hourly_visits: float = 0.035  # mean panel visits/venue/hour at lockdown level
    popularity_sigma: float = 1.0
    lockdown_level: float = 1.0
    pre_pandemic_level: float = 4.0
    drinking_place_share: float = 0.2

    def __post_init__(self):
        if self.n_venues < 1:
            raise ValueError(f"n_venues must be positive, got {self.n_venues}")
        if self.profile not in PROFILES:
            raise ValueError(f"profile must be one of {PROFILES}, got {self.profile!r}")
        if self.window_hours < 1:
            raise ValueError(f"window_hours must be positive, got {self.window_hours}")
        lo, hi = self.area_range_m2
        if not (0 < lo <= hi):
            raise ValueError(f"area range must satisfy 0 < lo <= hi, got {self.area_range_m2}")
        for name in ("base_hourly_visits", "lockdown_level", "pre_pandemic_level"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 0.0 <= self.drinking_place_share <= 1.0:
            raise ValueError("drinking_place_share must be in [0, 1]")

    @property
    def level(self) -> float:
        return self.lockdown_level if self.profile == "lockdown" else self.pre_pandemic_level


def generate_dataset(config: GeneratorConfig) -> SimulationInput:
    """Generate a venue table and its visit counts, deterministic for a given seed."""
    rng = np.random.default_rng(config.seed)
    n = config.n_venues

    lo, hi = config.area_range_m2
    areas = np.exp(rng.uniform(math.log(lo), math.log(hi), size=n))
    is_bar = rng.random(size=n) < config.drinking_place_share
    popularity = rng.lognormal(mean=0.0, sigma=config.popularity_sigma, size=n)

    shape = np.array([DIURNAL_SHAPE[h % 24] for h in range(config.window_hours)])
    rates = config.base_hourly_visits * config.level * popularity[:, None] * shape[None, :]
    counts = rng.poisson(rates).astype(float)

    categories = tuple(np.where(is_bar, "drinking_place", "restaurant").tolist())
    ids = tuple(f"v{i:05d}" for i in range(n))
    names = tuple(f"Synthetic {c.replace('_', ' ')} {i:05d}" for i, c in enumerate(categories))
    return SimulationInput(VenueTable(ids, names, categories, areas), counts)
