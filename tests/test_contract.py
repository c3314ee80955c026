"""The input contract at the ``cli.main`` boundary, checked on mutated copies of its inputs.

One input of a run is mutated at a time: a file of ``sample_data/`` for ``simulate``
or ``compare``, the ``venue_results.csv`` of a ``simulate`` run on it for
``hotspots``, or the text of one ``simulate`` or ``gen-synthetic`` argument. The
mutations are byte edits, inserted NUL, 0xff, BOM, quote, ``#`` and line-end bytes,
huge and non-finite numbers, deletions, truncation and text spliced in from the
sample files. Whatever the input holds, ``main`` returns 0, 1 or 2 and no traceback
reaches stderr, and a validation error (exit 1) is one ``error: `` line naming the
mutated file, a scenario that reads it, or the mutated flag. Examples are
derandomized, so every run checks the same cases.
"""

import contextlib
import functools
import io
import os
import re
import tempfile
from pathlib import Path

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from venuerisk.errors import InputError
from venuerisk.cli import MAX_BINS, main
from venuerisk.ingest import AREA_UNITS
from venuerisk.scenario import BASELINE, ScenarioConfig, load_scenario_config
from venuerisk.stats import Scale
from venuerisk.synthetic import PROFILES

SAMPLE_DATA = Path(__file__).resolve().parent.parent / "sample_data"
ORIGINALS = {path.name: path.read_bytes() for path in sorted(SAMPLE_DATA.iterdir())}
# the files simulate reads; compare reads them and its scenario files too
BASE_FILES = ("venues.csv", "visits.csv", "params.txt")
VISIT_FILES = ("visits.csv", "visits_2019.csv")
# the value of each gen-synthetic and simulate flag before it is mutated; a flag with a
# choice of values starts at one of them
GEN_ARGUMENTS = {
    "--n-venues": "5", "--profile": PROFILES[0], "--seed": "7",
    "--out": "out", "--timestamp": "2020-03-16T00:00:00",
}
GEN_CHOICES = {"--profile": PROFILES}
SIMULATE_ARGUMENTS = {
    "--prevalence": "0.001", "--sampling-factor": "10", "--spacing": "6ft", "--threshold": "1.0",
    "--bins": "20", "--scale": Scale.LINEAR.value, "--area-unit": "m2",
    "--timestamp": "2020-03-16T00:00:00",
}
SIMULATE_CHOICES = {"--scale": [scale.value for scale in Scale], "--area-unit": list(AREA_UNITS)}

BYTES = [b"\0", b"\xff", b"\xef\xbb\xbf", b'"', b"#", b",", b"=", b"\n", b"\r", b" ", b"-", b"."]
NUMBERS = [
    b"0", b"-0", b"-1", b"1e308", b"1e-320", b"1e400", b"inf", b"-inf", b"nan", b"9" * 400,
    b"1_000", b"0x10",
]
NUMBER_RE = re.compile(rb"[0-9][0-9.]*")


@st.composite
def mutation(draw, data: bytes) -> bytes:
    """``data`` with one edit: a byte, an insert, a deletion, a cut, a number or a splice."""
    kind = draw(st.sampled_from(["byte", "insert", "delete", "truncate", "number", "splice"]))
    at = draw(st.integers(0, len(data)))
    if kind == "byte" and data:
        at = min(at, len(data) - 1)
        new = draw(st.sampled_from(BYTES) | st.binary(min_size=1, max_size=1))
        return data[:at] + new + data[at + 1:]
    if kind == "insert":
        return data[:at] + draw(st.sampled_from(BYTES + NUMBERS)) + data[at:]
    if kind == "delete":
        return data[:at] + data[at + draw(st.integers(1, 40)):]
    if kind == "number" and NUMBER_RE.search(data):
        match = draw(st.sampled_from(list(NUMBER_RE.finditer(data))))
        return data[:match.start()] + draw(st.sampled_from(NUMBERS)) + data[match.end():]
    if kind == "splice":
        other = ORIGINALS[draw(st.sampled_from(sorted(ORIGINALS)))]
        start = draw(st.integers(0, len(other)))
        return data[:at] + other[start:start + draw(st.integers(1, 60))] + data[at:]
    return data[:at]


@st.composite
def mutated_bytes(draw, data: bytes) -> bytes:
    """``data`` after one to three edits of :func:`mutation`."""
    for _ in range(draw(st.integers(1, 3))):
        data = draw(mutation(data))
    return data


@st.composite
def mutated_inputs(draw):
    """(the name of one input file, its mutated bytes)."""
    name = draw(st.sampled_from(sorted(ORIGINALS)))
    return name, draw(mutated_bytes(ORIGINALS[name]))


def assert_fails_cleanly(code: int, message: str, named: list[str]) -> None:
    """``main`` returned 0, 1 or 2 without a traceback; an exit-1 message names one of ``named``."""
    assert code in (0, 1, 2), message
    assert "Traceback" not in message
    if code == 1:
        if message.startswith("usage: "):  # an argument error follows the command's usage
            message = message[message.find("\nerror: ") + 1:]
        assert message.startswith("error: ") and message.count("\n") == 1, message
        assert any(label in message for label in named), message


def run_main(argv: list[str]) -> tuple[int, str]:
    """``main``'s exit code and stderr text; its stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def readers(directory: Path, target: str, scenario_files: list[str]) -> list[str]:
    """The names of the run's scenarios that read ``target``, from the scenario files that load."""
    configs = []
    for name in scenario_files:
        with contextlib.suppress(InputError, OSError):
            configs.append((name, load_scenario_config(directory / name)))
    if not scenario_files:  # simulate
        configs = [("", ScenarioConfig(name="simulate"))]
    return [
        config.name for name, config in configs
        if target in ("venues.csv", "params.txt", name)
        or config.visit_source == (BASELINE if target == "visits.csv" else str(directory / target))
    ]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_inputs(), st.booleans(), st.sampled_from(list(AREA_UNITS)))
# a NUL in a scenario's visit path; parameters that make every dose inf/inf; a spacing
# whose disc area underflows to 0; an area whose volume overflows; an area that is 0 m2
@example(("scenario_reopened.txt", b"name = reopened\nvisits = visits_2019.csv\0\n"), False, "m2")
@example(
    ("params.txt", b"q = 1e308\np = 1e308\nach = 1e308\nceiling_height = 1e308\n"
     b"documented_prevalence = 0.001\n"),
    True,
    "m2",
)
@example(("scenario_distanced.txt", b"visits = baseline\nspacing = 1e-320ft\n"), False, "m2")
@example(("venues.csv", ORIGINALS["venues.csv"].replace(b",210\n", b",1e308\n")), True, "m2")
@example(("venues.csv", ORIGINALS["venues.csv"].replace(b",210\n", b",1e-323\n")), True, "ft2")
def test_a_mutated_input_fails_cleanly_naming_the_file_or_its_scenario(mutated, simulate, area_unit):
    target, data = mutated
    simulate = simulate and target in BASE_FILES
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for name, original in ORIGINALS.items():
            (directory / name).write_bytes(data if name == target else original)
        scenario_a = target if target in ("scenario_lockdown.txt", "scenario_distanced.txt") else (
            "scenario_distanced.txt"
        )
        scenario_files = [] if simulate else [scenario_a, "scenario_reopened.txt"]
        argv = [
            "simulate" if simulate else "compare",
            "--venues", str(directory / "venues.csv"), "--visits", str(directory / "visits.csv"),
            "--params", str(directory / "params.txt"), "--area-unit", area_unit,
            "--out", str(directory / "out"),
        ]
        for flag, name in zip(("--scenario-a", "--scenario-b"), scenario_files):
            argv += [flag, str(directory / name)]
        code, message = run_main(argv)
        named = [str(directory / target)]
        named += [f"scenario {name!r}" for name in readers(directory, target, scenario_files)]
        if target == "venues.csv":  # an id edit can break a reference a visit file holds
            named += [str(directory / name) for name in VISIT_FILES]
        assert_fails_cleanly(code, message, named)


@functools.cache
def simulated_results() -> bytes:
    """The ``venue_results.csv`` that ``simulate`` writes for ``sample_data/``."""
    with tempfile.TemporaryDirectory() as tmp:
        code, message = run_main([
            "simulate", "--venues", str(SAMPLE_DATA / "venues.csv"),
            "--visits", str(SAMPLE_DATA / "visits.csv"), "--params", str(SAMPLE_DATA / "params.txt"),
            "--timestamp", "2020-03-16", "--out", tmp,
        ])
        assert code == 0, message
        return (Path(tmp) / "venue_results.csv").read_bytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.deferred(lambda: mutated_bytes(simulated_results())))
def test_a_mutated_results_file_fails_cleanly_naming_it(data):
    with tempfile.TemporaryDirectory() as tmp:
        results = Path(tmp) / "venue_results.csv"
        results.write_bytes(data)
        code, message = run_main(["hotspots", "--results", str(results)])
    assert_fails_cleanly(code, message, [str(results)])


def small_count(text: str) -> bool:
    """False for a count text that reads as more than a thousand."""
    try:
        return int(text) <= 1000
    except ValueError:
        return True


@st.composite
def mutated_arguments(draw, defaults: dict, choices: dict, count_flag: str | None = None):
    """(a flag of ``defaults``, the text of every flag with that one's mutated).

    Each flag of ``choices`` starts at one of its values. ``count_flag``, if given, sets
    how much the run allocates, so its mutated value stays small.
    """
    arguments = dict(defaults)
    arguments.update((flag, draw(st.sampled_from(values))) for flag, values in choices.items())
    flag = draw(st.sampled_from(sorted(arguments)))
    # argv text is the command line's bytes, decoded as Python decodes them
    arguments[flag] = draw(mutated_bytes(arguments[flag].encode())).decode("utf-8", "surrogateescape")
    # a huge count would ask for more memory than exists: not an input-contract case
    assume(flag != count_flag or small_count(arguments[flag]))
    return flag, arguments


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutated_arguments(GEN_ARGUMENTS, GEN_CHOICES, "--n-venues"))
@example(("--n-venues", dict(GEN_ARGUMENTS, **{"--n-venues": "0"})))
@example(("--out", dict(GEN_ARGUMENTS, **{"--out": "o\0ut"})))
def test_a_mutated_gen_synthetic_argument_fails_cleanly_naming_the_flag(mutated_arguments):
    flag, arguments = mutated_arguments
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.normpath(os.path.join(tmp, arguments["--out"]))
        # a mutated --out may not leave the temporary directory
        assume(out == tmp or out.startswith(tmp + os.sep))
        argv = ["gen-synthetic", *(item for pair in {**arguments, "--out": out}.items() for item in pair)]
        code, message = run_main(argv)
    assert_fails_cleanly(code, message, [flag, out])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutated_arguments(SIMULATE_ARGUMENTS, SIMULATE_CHOICES))
# each value's one owner rejects it: EpiParams, ScenarioConfig, parse_spacing; a positive
# number of feet that rounds to 0 m; a factor that makes a count overflow; the most bins
# the --bins flag takes, and one more
@example(("--prevalence", dict(SIMULATE_ARGUMENTS, **{"--prevalence": "2"})))
@example(("--sampling-factor", dict(SIMULATE_ARGUMENTS, **{"--sampling-factor": "0"})))
@example(("--spacing", dict(SIMULATE_ARGUMENTS, **{"--spacing": "0ft"})))
@example(("--spacing", dict(SIMULATE_ARGUMENTS, **{"--spacing": "5e-324ft"})))
@example(("--sampling-factor", dict(SIMULATE_ARGUMENTS, **{"--sampling-factor": "1e308"})))
@example(("--bins", dict(SIMULATE_ARGUMENTS, **{"--bins": str(MAX_BINS)})))
@example(("--bins", dict(SIMULATE_ARGUMENTS, **{"--bins": str(MAX_BINS + 1)})))
def test_a_mutated_simulate_argument_fails_cleanly_naming_the_flag(mutated_arguments):
    flag, arguments = mutated_arguments
    # an overflowing count is found while the run's one scenario runs, and names it
    named = [flag, "scenario 'simulate'"] if flag == "--sampling-factor" else [flag]
    with tempfile.TemporaryDirectory() as tmp:
        argv = [
            "simulate", "--venues", str(SAMPLE_DATA / "venues.csv"),
            "--visits", str(SAMPLE_DATA / "visits.csv"), "--out", tmp,
            *(item for pair in arguments.items() for item in pair),
        ]
        code, message = run_main(argv)
    assert_fails_cleanly(code, message, named)
