"""Venue-level airborne-infection scenario simulator.

Computes expected new infections per establishment per hour from hourly
foot-traffic data, classifies infection hotspots, and quantifies the
effect of operational policies (stay-at-home traffic levels, physical
distancing occupancy caps) through distribution comparison and
significance testing.
"""

from .epi import EpiParams, simulate_week, wells_riley_probability
from .errors import ConfigError, DatasetError, RecordError
from .reporting import TOOL_VERSION
from .scenario import ScenarioConfig, max_distanced_occupancy, run_scenario
from .stats import Severity, classify, welch_t_test

__version__ = TOOL_VERSION

__all__ = [
    "ConfigError",
    "DatasetError",
    "EpiParams",
    "RecordError",
    "ScenarioConfig",
    "Severity",
    "classify",
    "max_distanced_occupancy",
    "run_scenario",
    "simulate_week",
    "welch_t_test",
    "wells_riley_probability",
]
