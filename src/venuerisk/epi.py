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

:func:`hourly_infections` evaluates the model for an array of cohorts at
once, and :func:`simulate_week` scales and caps the visit counts of one
block of venue rows at a time, runs the model on them and sums each
venue's hours into its weekly infections; :func:`wells_riley_probability`
is the scalar form of the same formula and the reference the array form
is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ingest import WINDOW_HOURS, SimulationInput, apply_sampling_correction, compute_volumes
from .stats import Severity, severity_labels

_BELOW_ONE = math.nextafter(1.0, 0.0)  # largest double < 1
# venue rows per kernel call: the block's [row, hour] matrix takes 0.3 MB, where
# one for every venue takes 67 MB at 50 000 venues; larger blocks are no faster
_BLOCK_ROWS = 256


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


def hourly_infections(counts: np.ndarray, volumes: np.ndarray, params: EpiParams) -> np.ndarray:
    """Expected new infections of each cohort of ``counts`` visitors in a room of ``volumes`` m3.

    The two arrays broadcast against each other. Each cohort splits into
    expected infectors I = visitors * prevalence and susceptibles
    S = visitors - I, and gets S times the infection probability in its
    room. The dose takes the operations of :func:`wells_riley_probability`
    in the same order, without its argument checks, so only ``np.expm1``
    can differ from the scalar form, by at most 1 ulp. Cohorts are
    independent, so permuting them permutes the output. The arrays are
    one kernel block's records (see :func:`simulate_week`), so the
    temporaries of these plain expressions stay small.
    """
    infectors = counts * params.effective_prevalence
    dose = infectors * params.q * params.p * params.t / (params.ach * volumes)
    return (counts - infectors) * np.minimum(-np.expm1(-dose), _BELOW_ONE)


def simulate_week(
    sim_input: SimulationInput, params: EpiParams, factor: float = 1.0, caps: np.ndarray | None = None
) -> np.ndarray:
    """Expected new infections per venue over the window, in venue-table order.

    The room volumes are the floor areas times ``params.ceiling_height``.
    The venue rows are taken ``_BLOCK_ROWS`` at a time; a block's records
    are one slice of ``sim_input``'s columns, from the offset of its
    first row to that of the row after its last, and each record's row
    is expanded from the offsets for that block alone. A block's counts
    become float64 visitors by :func:`apply_sampling_correction` with
    ``factor``, whose overflow error is raised from the block that meets
    it, and, where ``caps`` is given, each is lowered to ``caps`` at its
    venue's row; the counts of ``sim_input`` are left as they are, and no
    visitor array longer than a block is made. The visitors then run
    through :func:`hourly_infections`, are scattered into
    a zero ``[row, hour]`` matrix of that block alone (an hour without a
    record had no visitors and no infections), and each row of it is
    summed into its venue's weekly value. A row sum is NumPy's pairwise
    sum of the row's 168 cells, which can differ from an exactly rounded
    sum in the last digits; it reads only that row, so it is the same bit
    for bit whatever the block size, the order of a venue's records, or a
    matrix of every venue would give.
    """
    volumes = compute_volumes(sim_input.venues.areas, params.ceiling_height)
    offsets, hour, count = sim_input.offsets, sim_input.hour, sim_input.count
    n = len(volumes)
    weekly = np.empty(n)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        records = slice(offsets[start], offsets[stop])
        rows = np.repeat(np.arange(start, stop), np.diff(offsets[start:stop + 1]))
        visitors = apply_sampling_correction(count[records], factor)
        if caps is not None:
            np.minimum(visitors, caps[rows], out=visitors)
        hourly = np.zeros((stop - start, WINDOW_HOURS))
        cells = (rows - start) * WINDOW_HOURS + hour[records]
        hourly.reshape(-1)[cells] = hourly_infections(visitors, volumes[rows], params)
        weekly[start:stop] = hourly.sum(axis=1)
    return weekly


def count_severities(weekly: np.ndarray, threshold: float) -> tuple[int, int]:
    """Return (severe_count, mild_count): the counts of ``stats.severity_labels``' labels."""
    severe = int(np.count_nonzero(severity_labels(weekly, threshold) == Severity.SEVERE.value))
    return severe, len(weekly) - severe
