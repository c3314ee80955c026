"""Counterfactual policy scenarios over a venue table and its visit records.

A scenario names its visit source (the baseline records or an alternate
visit file), a panel-sampling factor and an optional physical-distancing
spacing; every scenario of a run shares the run's one set of parameters.
Running one always follows the same pipeline order, each step one array
expression over the visit records:

    1. select the visit source: the baseline records, joined once when
       the run loaded them and dropped once the last scenario that reads
       them has run, or a visit file, parsed and joined when the
       scenario runs; either way each record has its venue-table row
    2. apply the sampling factor to the records:      count * factor
       (a visit file's counts are the scenario's own and are scaled in
       place; the baseline's, shared by every scenario, into a copy)
    3. cap each record at its venue's distanced occupancy (if spacing
       is set):                       minimum(count, cap[row])
    4. simulate the window, with room volumes from the run's parameters;
       the weekly values and their total must be finite

Scenario config files and the params file are settings files, read by
:func:`read_keyvalue`. Each line holds one ``key = value`` pair, or
nothing. A ``#`` at the start of a line or after whitespace starts a
comment, so a value such as ``data#1.csv`` stays whole. A key appears at
most once, and neither it nor its value may be empty. A scenario file's
keys are:

    name = lockdown                 # defaults to the file stem
    visits = baseline               # or a path to a visit CSV
    sampling_factor = 10
    spacing = 6ft                   # unit suffix required: ft or m

Each value is converted as its line is read, so every error in a
settings file names the file and the line, and the key when its value
is at fault: ``"<path>: line N: <key>: <message>"``. A key the file
may not set is an error of the same form.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, TextIO

import numpy as np

from .epi import EpiParams, simulate_week
from .errors import ConfigError, error_context
from .ingest import SimulationInput, apply_sampling_correction, load_visits, open_input

BASELINE = "baseline"
FT_TO_M = 0.3048

_COMMENT_RE = re.compile(r"(?:^|\s)#")


@dataclass(frozen=True)
class ScenarioConfig:
    """One named counterfactual: its visit source and the corrections applied to it.

    The sampling factor is checked here, positive and finite. A spacing
    is positive and finite, in m: it is checked where it is made, by
    :func:`parse_spacing`, whose error names the flag or the file.
    """

    name: str
    visit_source: str = BASELINE  # BASELINE or a visit-file path
    sampling_factor: float = 10.0
    spacing: float | None = None  # exclusion spacing in m; None disables capping

    def __post_init__(self):
        if not (math.isfinite(self.sampling_factor) and self.sampling_factor > 0):
            raise ValueError(f"sampling_factor must be positive, got {self.sampling_factor}")


def max_distanced_occupancy(area, spacing: float):
    """Maximum simultaneous visitors under strict physical distancing.

    Each person claims an exclusion disc of radius ``spacing``, so the
    cap is floor(area / (pi * spacing^2)), elementwise for an array of
    areas. A circular room of radius equal to the spacing holds exactly
    one person. A spacing so small that the quotient overflows, or the
    disc's area underflows to 0, gives an infinite cap: no limit.

    Every area and the spacing must be positive and finite, in m2 and m.
    They are not checked here but where they are made: the areas by
    :func:`~venuerisk.ingest.parse_venues`, the spacing by
    :func:`parse_spacing`. A direct caller checks its own.
    """
    areas = np.asarray(area, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        return np.floor(areas / (math.pi * spacing * spacing))


def apply_occupancy_cap(counts, cap: float) -> tuple[float, ...]:
    """Clamp each of one venue's hourly counts to ``cap``; turned-away visitors vanish.

    The scalar reference for the capping step of :func:`run_scenario`.
    The cap is a whole number of people but applies to fractional
    expected counts, so min(7.5, 7) -> 7.0.
    """
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    limit = float(cap)
    return tuple(min(float(c), limit) for c in counts)


def run_scenario(baseline: SimulationInput, config: ScenarioConfig, params: EpiParams) -> np.ndarray:
    """One scenario's weekly expected infections, in venue-table order.

    ``baseline`` is the run's venue table and its baseline records,
    joined and as-read, so ``sampling_factor`` is the whole correction.
    An alternate visit file is parsed and joined by
    :func:`~venuerisk.ingest.load_visits`, so an id it shares with no
    venue fails naming the file. The scenario's counts are one array of
    its own: such a file's joined counts, scaled in place, or a scaled
    copy of the baseline counts, which the caller keeps unchanged for
    other scenarios; the cap then lowers them in place. Input errors
    raised here name the scenario, among them a sampling factor that
    makes a count, a weekly value or the weekly total overflow, and an
    infection dose of inf/inf or 0/0, which makes a weekly value NaN;
    these are checked so that every report can sum the values.
    """
    with error_context(f"scenario {config.name!r}"):
        if config.visit_source == BASELINE:
            counts = apply_sampling_correction(baseline.count, config.sampling_factor)
            sim_input = dataclasses.replace(baseline, count=counts)
        else:
            sim_input = load_visits(config.visit_source, baseline.venues)
            apply_sampling_correction(sim_input.count, config.sampling_factor, out=sim_input.count)
        if config.spacing is not None:
            caps = max_distanced_occupancy(sim_input.venues.areas, config.spacing)
            np.minimum(sim_input.count, caps[sim_input.row], out=sim_input.count)

        # a dose that overflows, or whose air flow underflows to 0, is certain infection;
        # inf/inf and 0/0 doses are NaN, and both outcomes are checked below
        with np.errstate(all="ignore"):
            weekly = simulate_week(sim_input, params)
        if np.isnan(weekly).any():
            raise ConfigError(
                f"sampling factor {config.sampling_factor!r}, the venue areas and the parameters "
                "make an infection dose inf/inf or 0/0, so the weekly infections are undefined"
            )
        try:
            total = math.fsum(weekly)
        except OverflowError:  # a partial sum overflowed
            total = math.inf
        if not (np.isfinite(weekly).all() and math.isfinite(total)):
            raise ConfigError(
                f"sampling factor {config.sampling_factor!r} makes the weekly infections "
                "overflow to infinity"
            )
    return weekly


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------

_SPACING_RE = re.compile(r"^([0-9][0-9_.eE+-]*)\s*(ft|m)$")


def parse_spacing(text: str) -> float:
    """Parse a spacing like ``6ft`` or ``1.8288m`` into meters.

    The unit suffix is mandatory so feet and meters can never be mixed
    up silently. An error does not name the spacing: its caller labels
    it with the flag or the settings key.
    """
    match = _SPACING_RE.match(text.strip())
    if not match:
        raise ConfigError(f"{text!r} must be a number with a unit suffix, e.g. 6ft or 1.8288m")
    try:
        value = float(match.group(1))
    except ValueError:
        raise ConfigError(f"{text!r} has a malformed number") from None
    meters = value * FT_TO_M if match.group(2) == "ft" else value
    # checked in meters: a positive number of feet can round to 0 m
    if not (math.isfinite(meters) and meters > 0):
        raise ConfigError(f"must be positive, got {text!r}")
    return meters


def read_keyvalue(source: TextIO, fields: Mapping[str, Callable[[str], Any]]) -> dict[str, Any]:
    """Read a settings file (grammar in the module docstring) into ``{key: fields[key](value)}``.

    ``fields`` maps each key the file may set to the converter of its
    value. Every error is a :class:`ConfigError` naming its line, and a
    converter's error also names the key: ``"line N: <key>: <message>"``.
    """
    out: dict[str, Any] = {}
    for line_no, raw in enumerate(source, start=1):
        line = _COMMENT_RE.split(raw, 1)[0].strip()
        if not line:
            continue
        with error_context(f"line {line_no}"):
            if "=" not in line:
                raise ConfigError(f"expected 'key = value', got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key or not value:
                raise ConfigError(f"empty key or value in {raw.strip()!r}")
            if key in out:
                raise ConfigError(f"duplicate key {key!r}")
            if key not in fields:
                raise ConfigError(f"unknown key {key!r}, expected one of: {', '.join(fields)}")
            with error_context(key):
                out[key] = fields[key](value)
    return out


def load_scenario_config(path: str | Path) -> ScenarioConfig:
    """Load a scenario config file (syntax documented in the module docstring).

    Relative visit paths resolve against the config file's directory.
    Keys the file leaves out take ``ScenarioConfig``'s defaults. Errors
    name the file; one in a line, such as an unknown key or a value that
    does not parse, also names the line, and a value ``ScenarioConfig``
    rejects names the scenario: ``"<path>: scenario '<name>': <message>"``.
    """
    path = Path(path)
    fields = {
        "name": str,
        "visits": lambda source: source if source == BASELINE else str(path.parent / source),
        "sampling_factor": float,
        "spacing": parse_spacing,
    }
    with open_input(path) as handle:
        settings = read_keyvalue(handle, fields)
        name = settings.setdefault("name", path.stem)
        if "visits" in settings:
            settings["visit_source"] = settings.pop("visits")
        with error_context(f"scenario {name!r}"):
            return ScenarioConfig(**settings)
