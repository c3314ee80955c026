"""Exception types shared across the package.

Scalar argument violations raise plain ``ValueError``; the classes here
cover failures tied to input files and configuration, where the caller
needs to know *where* the problem is (line, file, or dataset-wide).
"""

import contextlib


class InputError(Exception):
    """Base class for all input validation failures."""


class RecordError(InputError):
    """A single malformed record in an input file."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DatasetError(InputError):
    """A violation spanning the whole dataset (duplicates, broken joins)."""


class ConfigError(InputError):
    """A malformed parameter or scenario configuration."""


@contextlib.contextmanager
def error_context(label: str):
    """Prefix ``label`` (a file path or scenario name) to any InputError raised in the block."""
    try:
        yield
    except InputError as exc:
        exc.args = (f"{label}: {exc}",)
        raise
