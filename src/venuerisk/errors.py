"""Exception types shared across the package, and the one owner of each input value rule.

Scalar argument violations raise plain ``ValueError``; the classes here
cover failures tied to input files and configuration, where the caller
needs to know *where* the problem is (line, file, or dataset-wide).

Each value rule is checked in one place, its owner: the check whose
error names the flag, file or scenario, or the type that every path
builds. Code past the owner takes the value as checked, and says so in
its docstring; a direct caller of that code checks its own values.

* spacing > 0 and finite, in m: ``scenario.parse_spacing``
* sampling factor > 0 and finite: ``scenario.ScenarioConfig``
* ceiling height > 0 and finite: ``epi.EpiParams``
* a settings file's keys known and its values converted, as each line
  is read (params and scenario files): ``scenario.read_keyvalue``, per line
* a params file's values: ``epi.EpiParams``, under the file's name
* a scenario on the baseline has ``--visits``: ``cli._run_scenarios``
* venue area > 0 and finite, in m2: ``ingest.parse_venues``, per line
* venue ids non-empty and unique: ``ingest._records`` and ``ingest.parse_venues``
* area unit known: the ``--area-unit`` flag's choices
* ``bins`` from 1 to ``cli.MAX_BINS``: the ``--bins`` flag's type
* ``n_venues`` >= 1 and profile known: the ``--n-venues`` flag's type and
  the ``--profile`` flag's choices
* weekly values finite, with a finite total: ``scenario.run_scenario``
* a weekly value read back finite and >= 0: ``ingest.parse_results``

An error is labelled with its flag, file or scenario in one way: the
code that knows the label runs the check in an :func:`error_context`
block. An ``InputError`` raised there gains the label as a prefix, and
a ``ValueError``, such as a type's own check, becomes a ``ConfigError``
reading ``"<label>: <message>"``. Blocks nest, so a scenario file's
error reads ``"<path>: scenario '<name>': <message>"``.
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
    """Label the input errors raised in the block with ``label``: a flag, file path or scenario.

    An ``InputError`` keeps its type (and a ``RecordError`` its line)
    and gains ``"<label>: "`` as a prefix. A ``ValueError`` becomes a
    ``ConfigError`` reading ``"<label>: <message>"``, with no cause or
    context, so it prints as one line. Other exceptions pass unchanged.
    """
    try:
        yield
    except InputError as exc:
        exc.args = (f"{label}: {exc}",)
        raise
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from None
