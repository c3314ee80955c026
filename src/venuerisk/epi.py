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

:func:`simulate_week` evaluates the model for every cell of a
``counts[venue, hour]`` matrix at once; :func:`wells_riley_probability`
is the scalar form of the same formula and the reference the array form
is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ingest import SimulationInput, compute_volumes

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
        """Documented prevalence scaled by the under-reporting factor, clamped at certainty.

        The correction never reduces prevalence (the factor is >= 1).
        """
        return min(1.0, self.documented_prevalence * self.underreport_factor)


@dataclass(frozen=True, eq=False)
class WeekResult:
    """Expected new infections ``hourly[venue, hour]`` and their row sums ``weekly[venue]``."""

    hourly: np.ndarray
    weekly: np.ndarray


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


def infection_probability(infectors: np.ndarray, params: EpiParams, room_volume) -> np.ndarray:
    """Elementwise :func:`wells_riley_probability`, without its argument checks.

    The dose takes the same operations in the same order, so only
    ``np.expm1`` can differ from the scalar form, by at most 1 ulp. After
    the first product every step works in place: this kernel sets the
    program's memory peak, and a venue-hour temporary is 67 MB at 50 000 venues.
    """
    probability = infectors * params.q * params.p * params.t
    probability /= params.ach * room_volume
    np.expm1(np.negative(probability, out=probability), out=probability)
    return np.minimum(np.negative(probability, out=probability), _BELOW_ONE, out=probability)


def simulate_week(sim_input: SimulationInput, params: EpiParams) -> WeekResult:
    """Run the hourly infection model over every venue-hour of the window.

    Each hour's cohort splits into expected infectors I = visitors *
    prevalence and susceptibles S = visitors - I, and gets S times the
    infection probability in a room of area * ``params.ceiling_height``.
    Hours are independent, so permuting hours permutes the hourly
    outputs. The weekly values are NumPy's pairwise row sums, which can
    differ from an exactly rounded sum in the last digits.
    """
    volumes = compute_volumes(sim_input.venues.areas, params.ceiling_height)
    infectors = sim_input.counts * params.effective_prevalence
    probability = infection_probability(infectors, params, volumes[:, None])
    # the susceptibles overwrite the infectors: two venue-hour temporaries, not three
    hourly = np.subtract(sim_input.counts, infectors, out=infectors)
    hourly *= probability
    return WeekResult(hourly=hourly, weekly=hourly.sum(axis=1))


def count_severities(weekly: np.ndarray, threshold: float) -> tuple[int, int]:
    """Return (severe_count, mild_count): severe venues exceed ``threshold`` strictly."""
    severe = int(np.count_nonzero(weekly > threshold))
    return severe, len(weekly) - severe
