"""Venue-level airborne-infection scenario simulator.

Computes expected new infections per establishment per hour from hourly
foot-traffic data, classifies infection hotspots, and quantifies the
effect of operational policies (stay-at-home traffic levels, physical
distancing occupancy caps) through distribution comparison and
significance testing.
"""

from .epi import (
    EpiParams,
    simulate_week,
    wells_riley_probability,
)
from .errors import ConfigError, DatasetError, RecordError
from .ingest import (
    SimulationInput,
    VenueTable,
    apply_sampling_correction,
    compute_volumes,
    join,
    parse_venues,
    parse_visits,
    write_venues,
    write_visits,
)
from .reporting import TOOL_VERSION
from .scenario import (
    ScenarioConfig,
    load_scenario_config,
    max_distanced_occupancy,
    parse_spacing,
    run_scenario,
)
from .stats import Severity, classify, histogram, welch_t_test
from .synthetic import GeneratorConfig, generate_dataset

__version__ = TOOL_VERSION

__all__ = [
    "ConfigError",
    "DatasetError",
    "EpiParams",
    "GeneratorConfig",
    "RecordError",
    "ScenarioConfig",
    "Severity",
    "SimulationInput",
    "VenueTable",
    "apply_sampling_correction",
    "classify",
    "compute_volumes",
    "generate_dataset",
    "histogram",
    "join",
    "load_scenario_config",
    "max_distanced_occupancy",
    "parse_spacing",
    "parse_venues",
    "parse_visits",
    "run_scenario",
    "simulate_week",
    "welch_t_test",
    "wells_riley_probability",
    "write_venues",
    "write_visits",
]
