"""Venue-level airborne-infection scenario simulator.

Computes expected new infections per establishment per hour from hourly
foot-traffic data, classifies infection hotspots, and quantifies the
effect of operational policies (stay-at-home traffic levels, physical
distancing occupancy caps) through distribution comparison and
significance testing.

Importing the package sets ``OPENBLAS_NUM_THREADS`` to 1 when NumPy is
not loaded yet and the variable is unset. The package calls no BLAS
routine, so the thread pool OpenBLAS would otherwise start while NumPy
imports, one thread per CPU, only adds to every command's start-up. A
value already set wins, and once NumPy is loaded the variable is left
alone, as setting it then would change nothing. A host that wants
threaded BLAS sets the variable before importing ``venuerisk``.
"""

import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
