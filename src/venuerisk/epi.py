"""Wells-Riley transmission core.

Expected new infections in a room over one exposure period follow the
exponential dose model

    P = 1 - exp(-(I * q * p * t) / Q),        C = S * P

where ``I`` is the expected number of infectors present, ``q`` the quantum
generation rate (quanta/h), ``p`` the pulmonary ventilation rate of a
susceptible person (m3/h), ``t`` the exposure time (h), and ``Q`` the
room ventilation rate, computed as air changes per hour times room
volume (m3/h). ``S`` is the number of susceptible people in the cohort.

Every hour's cohort is seeded independently from community prevalence;
newly infected people never feed back into later hours. All quantities
are expected values, so the whole pipeline is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import DatasetError
from .ingest import SimulationInput
from .stats import Severity, classify

_BELOW_ONE = math.nextafter(1.0, 0.0)  # largest double < 1


@dataclass(frozen=True)
class EpiParams:
    """Transmission and prevalence parameters, with units.

    ``documented_prevalence`` has no default: it must come from case
    data for the simulated week. All other defaults are the standard
    operating point of this model (20 quanta/h emission, 0.48 m3/h
    breathing rate, 4 air changes per hour, 3 m ceilings, one-hour
    visits, and a 15x case under-reporting correction).
    """

    documented_prevalence: float
    q: float = 20.0  # quanta/h
    p: float = 0.48  # m3/h
    ach: float = 4.0  # 1/h
    ceiling_height: float = 3.0  # m
    t: float = 1.0  # h
    underreport_factor: float = 15.0

    def __post_init__(self):
        for field_name in ("q", "p", "ach", "ceiling_height", "t"):
            value = getattr(self, field_name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{field_name} must be positive and finite, got {value}")
        if not (math.isfinite(self.documented_prevalence) and 0.0 <= self.documented_prevalence <= 1.0):
            raise ValueError(
                f"documented_prevalence must be in [0, 1], got {self.documented_prevalence}"
            )
        if not (math.isfinite(self.underreport_factor) and self.underreport_factor >= 1.0):
            raise ValueError(
                f"underreport_factor must be >= 1, got {self.underreport_factor}"
            )

    @property
    def effective_prevalence(self) -> float:
        """Documented prevalence corrected for under-reporting, clamped to [0, 1]."""
        return effective_prevalence(self.documented_prevalence, self.underreport_factor)


@dataclass(frozen=True)
class VenueResult:
    """Per-venue expected new infections, hourly and summed over the window."""

    venue_id: str
    hourly_infections: tuple[float, ...]
    weekly_infections: float
    severity: Severity


def effective_prevalence(documented: float, underreport_factor: float) -> float:
    """Scale a documented prevalence by the under-reporting factor.

    The correction never reduces prevalence (factor >= 1) and the result
    is clamped at certainty.
    """
    if not (math.isfinite(documented) and 0.0 <= documented <= 1.0):
        raise ValueError(f"documented prevalence must be in [0, 1], got {documented}")
    if not (math.isfinite(underreport_factor) and underreport_factor >= 1.0):
        raise ValueError(f"underreport factor must be >= 1, got {underreport_factor}")
    return min(1.0, documented * underreport_factor)


def wells_riley_probability(infectors: float, params: EpiParams, room_volume: float) -> float:
    """Per-susceptible infection probability for one exposure period.

    Args:
        infectors: expected number of infectious people present (>= 0);
            fractional values are meaningful because they are expectations.
        params: transmission parameters (q, p, t, ach).
        room_volume: room air volume in m3 (> 0).

    Returns:
        Probability in [0, 1): strictly increasing in infectors, q, p and
        t, strictly decreasing in room volume; 0 exactly when the dose is 0.
    """
    if not (math.isfinite(room_volume) and room_volume > 0):
        raise ValueError(f"room volume must be positive, got {room_volume}")
    if not (math.isfinite(infectors) and infectors >= 0):
        raise ValueError(f"infectors must be non-negative, got {infectors}")
    ventilation = params.ach * room_volume  # m3/h of clean air
    dose = infectors * params.q * params.p * params.t / ventilation
    # expm1 keeps tiny doses from cancelling to zero; the min() keeps the
    # probability strictly below 1 where huge doses would round up to it
    return min(-math.expm1(-dose), _BELOW_ONE)


def expected_new_infections_hour(
    visitors: float, prevalence: float, params: EpiParams, room_volume: float
) -> float:
    """Expected new infections among one hour's cohort of visitors.

    Splits the cohort into expected infectors I = visitors * prevalence
    and susceptibles S = visitors - I, then returns S times the
    per-susceptible infection probability.
    """
    if not (math.isfinite(visitors) and visitors >= 0):
        raise ValueError(f"visitor count must be non-negative, got {visitors}")
    if not (math.isfinite(prevalence) and 0.0 <= prevalence <= 1.0):
        raise ValueError(f"prevalence must be in [0, 1], got {prevalence}")
    if visitors == 0:
        return 0.0
    infectors = visitors * prevalence
    susceptible = visitors - infectors
    return susceptible * wells_riley_probability(infectors, params, room_volume)


def simulate_week(
    sim_input: SimulationInput,
    params: EpiParams,
    severity_threshold: float = 1.0,
) -> dict[str, VenueResult]:
    """Run the hourly infection model over every venue in the window.

    Hours are independent: each cohort is seeded from community
    prevalence only, so permuting hours permutes the hourly outputs and
    leaves the weekly total unchanged.

    Returns:
        Table of VenueResult keyed by venue_id, in venue-table order.

    Raises:
        DatasetError: a venue has no computed volume.
    """
    prevalence = params.effective_prevalence
    results: dict[str, VenueResult] = {}
    for venue_id, venue in sim_input.venues.items():
        if venue.volume is None:
            raise DatasetError(f"venue {venue_id!r} has no computed volume; run compute_volumes")
        series = sim_input.visits[venue_id]
        hourly = tuple(
            expected_new_infections_hour(count, prevalence, params, venue.volume)
            for count in series.hourly_counts
        )
        weekly = math.fsum(hourly)
        results[venue_id] = VenueResult(
            venue_id=venue_id,
            hourly_infections=hourly,
            weekly_infections=weekly,
            severity=classify(weekly, severity_threshold),
        )
    return results


def count_severities(results: Mapping[str, VenueResult]) -> tuple[int, int]:
    """Return (severe_count, mild_count) over a result table."""
    severe = sum(1 for r in results.values() if r.severity is Severity.SEVERE)
    return severe, len(results) - severe
