"""Counterfactual policy scenarios over a simulation input.

A scenario names its visit source (the baseline table or an alternate
visit file), a panel-sampling factor, an optional physical-distancing
spacing, and optional parameter overrides. Running one always follows
the same pipeline order, each step one array expression over the
``counts[venue, hour]`` matrix:

    1. select the visit source
    2. apply the sampling factor:   counts * factor
    3. cap each venue at its distanced occupancy (if spacing is set):
                                    minimum(counts, cap[venue])
    4. merge parameter overrides
    5. simulate the window, with room volumes from the merged parameters
    6. count severities:            weekly > threshold

Scenario config files use one ``key = value`` pair per line. A ``#``
at the start of a line or after whitespace starts a comment, so a value
such as ``data#1.csv`` stays whole. Recognized keys:

    name = lockdown                 # defaults to the file stem
    visits = baseline               # or a path to a visit CSV
    sampling_factor = 10
    spacing = 6ft                   # unit suffix required: ft or m
    param.q = 25                    # any EpiParams field
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, TextIO

import numpy as np

from .epi import EpiParams, count_severities, simulate_week
from .errors import ConfigError, error_context
from .ingest import SimulationInput, apply_sampling_correction, join, open_input, parse_visits

BASELINE = "baseline"
FT_TO_M = 0.3048

_PARAM_FIELDS = frozenset(f.name for f in dataclasses.fields(EpiParams))
_COMMENT_RE = re.compile(r"(?:^|\s)#")


@dataclass(frozen=True)
class ScenarioConfig:
    """One named counterfactual: visit source, corrections, and overrides."""

    name: str
    visit_source: str = BASELINE  # BASELINE or a visit-file path
    sampling_factor: float = 10.0
    spacing: float | None = None  # exclusion spacing in m; None disables capping
    params_override: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.sampling_factor) and self.sampling_factor > 0):
            raise ValueError(f"sampling_factor must be positive, got {self.sampling_factor}")
        if self.spacing is not None and not (math.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        unknown = set(self.params_override) - _PARAM_FIELDS
        if unknown:
            raise ConfigError(
                "unknown parameter override(s): " + ", ".join(sorted(unknown))
            )


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """One scenario's weekly expected infections, in venue-table order, and its severity counts."""

    config: ScenarioConfig
    weekly: np.ndarray
    severe_count: int
    mild_count: int


def max_distanced_occupancy(area, spacing: float):
    """Maximum simultaneous visitors under strict physical distancing.

    Each person claims an exclusion disc of radius ``spacing``, so the
    cap is floor(area / (pi * spacing^2)), elementwise for an array of
    areas. A circular room of radius equal to the spacing holds exactly
    one person.
    """
    areas = np.asarray(area, dtype=float)
    if not (np.isfinite(areas) & (areas > 0)).all():
        raise ValueError(f"area must be positive, got {area}")
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError(f"spacing must be positive, got {spacing}")
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


def run_scenario(
    base: SimulationInput,
    config: ScenarioConfig,
    params: EpiParams,
    severity_threshold: float = 1.0,
) -> ScenarioResult:
    """Run one scenario over the shared venue table.

    ``base`` carries the baseline counts as-read, so ``sampling_factor``
    is the whole correction. An alternate visit file must join against
    the same venue table. Input errors raised here name the scenario.
    """
    with error_context(f"scenario {config.name!r}"):
        if config.visit_source == BASELINE:
            counts = base.counts
        else:
            with open_input(config.visit_source) as handle:
                visits = parse_visits(handle, base.window_hours)
            counts = join(base.venues, visits, base.window_hours).counts
            del visits

        counts = apply_sampling_correction(counts, config.sampling_factor)
        if config.spacing is not None:
            # capping in place is safe: the correction above returned a new matrix
            caps = max_distanced_occupancy(base.venues.areas, config.spacing)
            np.minimum(counts, caps[:, None], out=counts)

        try:
            effective_params = dataclasses.replace(params, **config.params_override)
        except ValueError as exc:
            raise ConfigError(f"invalid parameter override: {exc}") from None

    sim_input = SimulationInput(base.venues, counts)
    weekly = simulate_week(sim_input, effective_params).weekly
    severe, mild = count_severities(weekly, severity_threshold)
    return ScenarioResult(config=config, weekly=weekly, severe_count=severe, mild_count=mild)


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------

_SPACING_RE = re.compile(r"^([0-9][0-9_.eE+-]*)\s*(ft|m)$")


def parse_spacing(text: str) -> float:
    """Parse a spacing like ``6ft`` or ``1.8288m`` into meters.

    The unit suffix is mandatory so feet and meters can never be mixed
    up silently.
    """
    match = _SPACING_RE.match(text.strip())
    if not match:
        raise ConfigError(
            f"spacing {text!r} must be a number with a unit suffix, e.g. 6ft or 1.8288m"
        )
    try:
        value = float(match.group(1))
    except ValueError:
        raise ConfigError(f"spacing {text!r} has a malformed number") from None
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"spacing must be positive, got {text!r}")
    return value * FT_TO_M if match.group(2) == "ft" else value


def read_keyvalue(source: TextIO) -> dict[str, str]:
    """Parse ``key = value`` lines; a ``#`` at line start or after whitespace starts a comment."""
    out: dict[str, str] = {}
    for line_no, raw in enumerate(source, start=1):
        line = _COMMENT_RE.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {line_no}: empty key or value in {raw.strip()!r}")
        if key in out:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        out[key] = value
    return out


def params_from_mapping(pairs: Mapping[str, str]) -> dict[str, float]:
    """Convert ``EpiParams`` field names and their text values to floats.

    Raises:
        ConfigError: a key is not an ``EpiParams`` field, or a value is not a number.
    """
    values: dict[str, float] = {}
    for key, raw in pairs.items():
        if key not in _PARAM_FIELDS:
            raise ConfigError(f"unknown parameter override {key!r}")
        try:
            values[key] = float(raw)
        except ValueError:
            raise ConfigError(f"parameter {key!r} value {raw!r} is not a number") from None
    return values


def load_scenario_config(path: str | Path) -> ScenarioConfig:
    """Load a scenario config file (syntax documented in the module docstring).

    Relative visit paths resolve against the config file's directory.
    Errors name the file.
    """
    path = Path(path)
    with open_input(path) as handle:
        pairs = read_keyvalue(handle)

        name = pairs.pop("name", path.stem)
        visit_source = pairs.pop("visits", BASELINE)
        if visit_source != BASELINE:
            visit_path = Path(visit_source)
            if not visit_path.is_absolute():
                visit_path = path.parent / visit_path
            visit_source = str(visit_path)

        sampling_factor = 10.0
        if "sampling_factor" in pairs:
            raw = pairs.pop("sampling_factor")
            try:
                sampling_factor = float(raw)
            except ValueError:
                raise ConfigError(f"sampling_factor {raw!r} is not a number") from None

        spacing = parse_spacing(pairs.pop("spacing")) if "spacing" in pairs else None

        overrides = params_from_mapping(
            {k.removeprefix("param."): pairs.pop(k) for k in list(pairs) if k.startswith("param.")}
        )
        if pairs:
            raise ConfigError("unknown scenario key(s): " + ", ".join(sorted(pairs)))

        try:
            return ScenarioConfig(
                name=name,
                visit_source=visit_source,
                sampling_factor=sampling_factor,
                spacing=spacing,
                params_override=overrides,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
