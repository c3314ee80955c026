"""Repository checks: the tracer in perfbench/ finds every function it wraps and runs the
CLI, every public name has a caller in the package, every private name is read in its
module, no module imports another's private name and only ingest imports csv, every CLI
flag is used by a test, one function compares against the severity threshold, one
function bins every report's histograms, one function relabels a ValueError, one
function scales visit counts, one picks their width and one reorders them, test
failures report normally, src/ holds the recorded number of code lines, no src/ module
calls a BLAS routine, importing the CLI starts no BLAS thread and loads no statistics
module, and gen-synthetic loads no numpy.ma."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import venuerisk

ROOT = Path(__file__).resolve().parents[1]
TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"
SRC = ROOT / "src"
TESTS = ROOT / "tests"


def test_every_traced_layer_function_exists():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    missing = [
        f"venuerisk.{layer}.{name}"
        for layer, functions in traced_cli.LAYERS.items()
        for name in functions
        if not inspect.isfunction(getattr(importlib.import_module(f"venuerisk.{layer}"), name, None))
    ]
    assert missing == []


SAMPLE_DATA = ROOT / "sample_data"
TRACED_COMMANDS = {
    "simulate": [
        "simulate", "--venues", "venues.csv", "--visits", "visits.csv",
        "--params", "params.txt", "--spacing", "6ft",
    ],
    "compare": [
        "compare", "--venues", "venues.csv", "--visits", "visits.csv", "--params", "params.txt",
        "--scenario-a", "scenario_lockdown.txt", "--scenario-b", "scenario_reopened.txt",
    ],
    # no baseline visit file: both scenarios read the reopened traffic of their own
    "compare-own-files": [
        "compare", "--venues", "venues.csv", "--params", "params.txt",
        "--scenario-a", "scenario_reopened.txt", "--scenario-b", "scenario_reopened.txt",
    ],
    "gen-synthetic": ["gen-synthetic", "--n-venues", "20", "--profile", "lockdown", "--seed", "1"],
}


def run_traced(command, tmp_path):
    """Run one TRACED_COMMANDS entry under the tracer; return its spans."""
    spans = tmp_path / "spans.jsonl"
    argv = [*TRACED_COMMANDS[command], "--out", str(tmp_path / "out")]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, str(TRACED_CLI), str(spans), *argv],
        cwd=SAMPLE_DATA, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in spans.read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("command", TRACED_COMMANDS)
def test_traced_cli_runs(command, tmp_path):
    spans = run_traced(command, tmp_path)
    assert spans
    for name, start, end, parent, rss, counters in spans:
        assert end >= start


def traced_counters(command, tmp_path):
    """{span name: the counters of each of its spans} of one TRACED_COMMANDS entry."""
    counters = {}
    for name, start, end, parent, rss, counts in run_traced(command, tmp_path):
        counters.setdefault(name, []).append(counts)
    return counters


def test_traced_compare_counts_the_venue_table(tmp_path):
    # sample_data has 4 venues; the baseline visit file leaves one of them without visits
    counters = traced_counters("compare", tmp_path)
    assert counters["ingest.join"] == [{"zero_filled_venues": 1}, {"zero_filled_venues": 0}]
    assert counters["epi.simulate_week"] == [{"venue_hours": 4 * 168}] * 2


def test_traced_compare_without_visits_joins_an_empty_baseline(tmp_path):
    # the empty baseline leaves all 4 venues without visits; each scenario's file, one
    counters = traced_counters("compare-own-files", tmp_path)
    assert counters["ingest.join"] == [{"zero_filled_venues": 4}] + [{"zero_filled_venues": 0}] * 2


# scalar references read only by tests: the Wells-Riley form for acceptance criteria 1, 4
# and 8, and the per-venue cap for the property test of the array cap (the tracer wraps it)
CALLED_ONLY_BY_TESTS = {"wells_riley_probability", "apply_occupancy_cap"}


def _defined_names(statement) -> set[str]:
    """The names a top-level statement defines: a function, a class or assigned names."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = getattr(statement, "targets", [getattr(statement, "target", None)])
    return {target.id for target in targets if isinstance(target, ast.Name)}


def _read_names(statement) -> set[str]:
    """The names and attribute names a top-level statement reads, apart from those it defines."""
    read = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read - _defined_names(statement)


def test_every_public_name_is_used_in_the_package():
    # every public top-level name of a src/ module counts as used when it is read in a
    # top-level statement of a src/ module other than __init__ and other than the
    # statement defining it
    public, used = set(), set()
    for path in (SRC / "venuerisk").glob("*.py"):
        if path.stem == "__init__":
            continue
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            public |= {name for name in _defined_names(statement) if not name.startswith("_")}
            used |= _read_names(statement)
    assert set(venuerisk.__all__) <= public
    assert sorted(public - used - CALLED_ONLY_BY_TESTS) == []
    assert CALLED_ONLY_BY_TESTS <= public - used


def test_every_private_name_is_read_in_its_module():
    # a private top-level name is read in a top-level statement of its own module other
    # than the one defining it, so no constant or helper outlives the code that used it
    unread = []
    for path in sorted((SRC / "venuerisk").glob("*.py")):
        statements = ast.parse(path.read_text(encoding="utf-8")).body
        defined = {name for statement in statements for name in _defined_names(statement)}
        private = {name for name in defined if name.startswith("_") and not name.endswith("__")}
        read = set().union(*map(_read_names, statements))
        unread += [f"{path.stem}.{name}" for name in sorted(private - read)]
    assert unread == []


def test_modules_share_no_private_names_and_only_ingest_reads_csv():
    # ingest owns every CSV format; a private name stays inside the module defining it
    private, csv_users = [], []
    for path in sorted((SRC / "venuerisk").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                names = [alias.name for alias in node.names]
                private += [f"{path.stem}: {name}" for name in names if name.startswith("_")]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if "csv" in modules:
                csv_users.append(path.stem)
    assert private == []
    assert csv_users == ["ingest"]


def test_every_cli_flag_appears_in_a_test():
    # a flag counts as tested when some test file holds it as a string constant of its own
    cli = ast.parse((SRC / "venuerisk" / "cli.py").read_text(encoding="utf-8"))
    flags = {
        arg.value
        for node in ast.walk(cli)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
        for arg in node.args
        if isinstance(arg, ast.Constant) and str(arg.value).startswith("--")
    }
    assert "--out" in flags
    in_tests = {
        node.value
        for path in TESTS.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert sorted(flags - in_tests) == []


def test_failing_property_test_reports_its_example(tmp_path):
    # under the repo's warning filters, a failing hypothesis test must fail normally
    # (exit 1, with its falsifying example) instead of aborting the session
    test_file = tmp_path / "test_fails.py"
    test_file.write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 10\n",
        encoding="utf-8",
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
            "-p", "no:cacheprovider", str(test_file),
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout


def _threshold_comparisons(tree):
    """The line of each ordering comparison in ``tree`` with a ``...threshold`` operand."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                names = [getattr(side, "id", getattr(side, "attr", "")) for side in (left, right)]
                ordering = isinstance(op, (ast.Gt, ast.GtE, ast.Lt, ast.LtE))
                if ordering and any(str(name).endswith("threshold") for name in names):
                    yield node.lineno


def _owners(finder) -> list[str]:
    """``module.function`` around each line that ``finder`` yields for a src/ module's tree."""
    found = []
    for path in sorted((SRC / "venuerisk").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for line in finder(tree):
            owners = [f.name for f in functions if f.lineno <= line <= f.end_lineno]
            found.append(f"{path.stem}.{owners[-1] if owners else '<module>'}")
    return found


def test_one_function_compares_against_the_severity_threshold():
    # one severity rule: every severe or mild count and label in the reports comes from it
    assert _owners(_threshold_comparisons) == ["stats.severity_labels"]


def _histogram_calls(tree):
    """The line of each call of ``histogram`` or ``combined_range`` in ``tree``, bare or
    through a module other than NumPy."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            module, _, name = ast.unparse(node.func).rpartition(".")
            if name in ("histogram", "combined_range") and module not in ("np", "numpy"):
                yield node.lineno


def test_histogram_calls_are_found():
    text = (
        "h = histogram(v, 3)\nspan = stats.combined_range([v], s)\n"
        "c, _ = np.histogram(v, bins=e)\nhistogram_csv(h, m)\n"
    )
    assert list(_histogram_calls(ast.parse(text))) == [1, 2]


def test_one_function_bins_the_reports():
    # one histogram path: every report's histograms are binned over one shared range
    assert _owners(_histogram_calls) == ["cli._run_scenarios", "cli._run_scenarios"]


def _csv_writers(tree):
    """The line of each ``csv.writer(...)`` call in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "csv.writer":
            yield node.lineno


def test_csv_writers_are_found():
    text = "csv.writer(sink)\nw = csv.writer(s, lineterminator='\\n')\ncsv.reader(s)\nwriter(s)\n"
    assert list(_csv_writers(ast.parse(text))) == [1, 2]


def test_one_function_renders_csv_rows():
    # one table renderer: every CSV table the tool writes is rendered by
    # ingest.render_table, by one join or by csv.writer; write_visits' id fields are
    # the one other csv.writer, quoting each id for its byte table
    assert sorted(_owners(_csv_writers)) == ["ingest._id_fields", "ingest.render_table"]


def _value_error_relabels(tree):
    """The line of each ``except ValueError as name`` handler that raises a new exception
    whose arguments read ``name``: a relabelled ValueError."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ExceptHandler) and node.name):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if "ValueError" not in [getattr(kind, "id", None) for kind in caught]:
            continue
        calls = [
            inner.exc for statement in node.body for inner in ast.walk(statement)
            if isinstance(inner, ast.Raise) and isinstance(inner.exc, ast.Call)
        ]
        if any(
            isinstance(name, ast.Name) and name.id == node.name
            for call in calls for arg in [*call.args, *call.keywords] for name in ast.walk(arg)
        ):
            yield node.lineno


def test_value_error_relabels_are_found():
    text = (
        "try:\n    f()\nexcept ValueError as exc:\n    raise E(f'x: {exc}') from None\n"
        "try:\n    f()\nexcept (KeyError, ValueError) as e:\n    if e:\n        raise E(str(e))\n"
        "try:\n    f()\nexcept ValueError:\n    raise E('no name')\n"
        "try:\n    f()\nexcept ValueError as exc:\n    raise\n"
        "try:\n    f()\nexcept ValueError as exc:\n    raise E('x') from exc\n"
        "try:\n    f()\nexcept TypeError as exc:\n    raise E(str(exc))\n"
    )
    assert list(_value_error_relabels(ast.parse(text))) == [3, 7]


def test_one_function_relabels_a_value_error():
    # one way to label an input error with its flag, file or scenario: a caught
    # ValueError gets its label from error_context, never from a handler of its own
    assert _owners(_value_error_relabels) == ["errors.error_context"]


def _calls_of(name):
    """A finder: the line of each call of ``name`` in a tree, bare or through a module."""

    def calls(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func).rpartition(".")[2] == name:
                yield node.lineno

    return calls


def test_calls_of_a_name_are_found():
    text = "f(x)\ny = ingest.f(x)\nf\ng(f)\nh.f.g(x)\n"
    assert list(_calls_of("f")(ast.parse(text))) == [1, 2]


def test_one_function_scales_the_counts():
    # counts are scaled one kernel block at a time, so no scaled copy of a whole count
    # column is ever made
    assert _owners(_calls_of("apply_sampling_correction")) == ["epi.simulate_week"]


def test_one_function_reorders_records():
    # each venue's records are one slice once joined: only join puts records in another
    # order, once per visit file, and the kernel and the writer take them as they stand
    sorts = [*_owners(_calls_of("argsort")), *_owners(_calls_of("lexsort"))]
    assert sorts == ["ingest.join"]
    assert "epi" not in {owner.partition(".")[0] for owner in _owners(_calls_of("sort"))}


def test_one_function_builds_a_manifest():
    # one manifest builder for every command, and one place that hashes: the input
    # digests and the manifest hash are both made in reporting
    builders = _owners(_calls_of("build_manifest"))
    assert sorted(builders) == ["cli._run_scenarios", "cli.cmd_gen_synthetic"]
    assert sorted(_owners(_calls_of("sha256"))) == ["reporting.build_manifest", "reporting.sha256_file"]


# the NumPy names that pick an integer width wider than a byte or compare widths; the
# byte-wide uint8 is every hour's dtype and the start of every count column
WIDTH_NAMES = {"uint16", "uint32", "uint64", "iinfo", "promote_types"}


def _width_picks(tree):
    """The line of each name or attribute in ``tree`` that is one of ``WIDTH_NAMES``."""
    for node in ast.walk(tree):
        if getattr(node, "id", getattr(node, "attr", None)) in WIDTH_NAMES:
            yield node.lineno


def test_width_picks_are_found():
    text = "a = np.uint16\nb = np.iinfo(t).max\nc = uint32(1)\nd = np.uint8\ne = x.size\n"
    assert sorted(_width_picks(ast.parse(text))) == [1, 2, 3]


def test_one_function_picks_a_count_width():
    # one width rule: every count column is held at the width ingest.put_counts picks
    assert set(_owners(_width_picks)) == {"ingest.put_counts"}


# the code lines of src/venuerisk/, the size measure of the package: a change that moves
# it records the new count here, so the count moves only in a visible diff
SRC_CODE_LINES = 1295
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    """The lines of a module that are not blank, not comment lines and not in a docstring.

    A module, class or function docstring counts from its first line to its last.
    """
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(
        1 for number, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstrings
    )


def test_code_lines_skip_blanks_comments_and_docstrings():
    text = (
        '"""Module\ndocstring."""\n\n# a comment\nimport os\n\n\n'
        'class A:\n    """One line."""\n\n    def f(self):\n        """Two\n        lines."""\n'
        '        return "not a docstring"  # trailing comment\n'
    )
    assert code_lines(text) == 4  # import, class, def, return


def test_src_code_lines_are_the_recorded_count():
    paths = sorted((SRC / "venuerisk").glob("*.py"))
    assert sum(code_lines(path.read_text(encoding="utf-8")) for path in paths) == SRC_CODE_LINES


# the NumPy names whose calls run BLAS; importing venuerisk limits OpenBLAS to one
# thread, which costs nothing only while no src/ module calls one of them
BLAS_NAMES = {"dot", "matmul", "vdot", "inner", "tensordot", "einsum", "linalg"}


def blas_uses(tree):
    """The line of each ``@``, ``@=`` and BLAS-backed NumPy name in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            yield node.lineno
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            yield node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            names = modules + [alias.name for alias in node.names]
            if BLAS_NAMES & {part for name in names for part in name.split(".")}:
                yield node.lineno


def test_blas_uses_are_found():
    text = (
        "import numpy.linalg\nfrom numpy import dot\nc = a @ b\nc @= b\n"
        "d = np.einsum('i,i', a, b)\ne = inner(a, b)\nf = a * b + np.sum(a)\n"
    )
    assert sorted(blas_uses(ast.parse(text))) == [1, 2, 3, 4, 5, 6]


def test_no_module_calls_blas():
    found = [
        f"{path.stem}:{line}"
        for path in sorted((SRC / "venuerisk").glob("*.py"))
        for line in blas_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


FRESH_IMPORT = """\
import json, os, sys
import venuerisk.cli
threads = None
if sys.platform == "linux":
    with open("/proc/self/status") as status:
        threads = next(int(line.split()[1]) for line in status if line.startswith("Threads:"))
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), "statistics" in sys.modules, threads]))
"""


def fresh_import(blas_threads):
    """Import venuerisk.cli in a new interpreter with OPENBLAS_NUM_THREADS set to
    ``blas_threads`` (unset for None); return that variable as it then reads, whether
    ``statistics`` was loaded, and the process's OS threads (None off Linux)."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return run_fresh(FRESH_IMPORT, env=env)


def run_fresh(script, *args, env=None):
    """Run ``script`` in a new interpreter that imports from src/, with ``args`` as its
    arguments and ``env`` (default: this process's) as its environment; return the
    JSON value its last line of standard output holds."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_starts_no_blas_thread_and_loads_no_statistics():
    variable, loaded_statistics, threads = fresh_import(None)
    assert variable == "1"
    assert not loaded_statistics
    if sys.platform != "linux":
        pytest.skip("counts OS threads through /proc/self/status")
    assert threads == 1


def test_importing_the_cli_keeps_a_preset_blas_thread_count():
    assert fresh_import("3")[0] == "3"


FRESH_GEN = """\
import json, sys
from venuerisk.cli import main
code = main(["gen-synthetic", "--n-venues", "300", "--profile", "pre_pandemic",
             "--seed", "7", "--out", sys.argv[1]])
print(json.dumps([code, "numpy.ma" in sys.modules]))
"""


def test_gen_synthetic_loads_no_numpy_ma(tmp_path):
    # np.unique's first call imports numpy.ma, about 12 ms of every run that made it
    assert run_fresh(FRESH_GEN, str(tmp_path / "gen")) == [0, False]
