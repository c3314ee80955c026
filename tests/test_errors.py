import contextlib
import traceback

import pytest

from venuerisk.errors import ConfigError, DatasetError, RecordError, error_context
from venuerisk.ingest import open_input


def raised(error, *labels):
    """The exception that leaves nested ``error_context`` blocks, outermost label first,
    when ``error`` is raised in the innermost."""
    with pytest.raises(Exception) as info:
        with contextlib.ExitStack() as blocks:
            for label in labels:
                blocks.enter_context(error_context(label))
            raise error
    return info.value


class TestErrorContext:
    def test_value_error_becomes_a_one_line_config_error(self):
        error = raised(ValueError("q must be positive and finite, got -1.0"), "params.txt")
        assert type(error) is ConfigError
        assert str(error) == "params.txt: q must be positive and finite, got -1.0"
        assert error.__cause__ is None and error.__suppress_context__
        # printed with its traceback, nothing of the ValueError shows
        assert "ValueError" not in "".join(traceback.format_exception(error))

    def test_record_error_keeps_its_type_and_line_and_gains_the_prefix(self):
        error = RecordError("count 'abc' is not a number", 2)
        assert raised(error, "visits.csv") is error
        assert error.line == 2
        assert str(error) == "visits.csv: line 2: count 'abc' is not a number"

    def test_nested_blocks_read_outermost_first(self):
        message = "sampling_factor must be positive, got 0.0"
        error = raised(ValueError(message), "a.txt", "scenario 'a'")
        assert type(error) is ConfigError
        assert str(error) == f"a.txt: scenario 'a': {message}"

    @pytest.mark.parametrize(
        "error",
        [TypeError("not a number"), OSError(28, "No space left on device"), ArithmeticError("no")],
        ids=["TypeError", "OSError", "ArithmeticError"],
    )
    def test_other_exceptions_pass_unchanged(self, error):
        args = error.args
        assert raised(error, "label") is error
        assert error.args == args


def test_non_utf8_byte_read_through_open_input_is_a_dataset_error(tmp_path):
    # UnicodeDecodeError is a ValueError: open_input's own handler must take it
    # before the file's error_context would make it a ConfigError
    path = tmp_path / "venues.csv"
    path.write_bytes(b"venue_id,name,category,area\n\xff,Cafe,bar,10\n")
    with pytest.raises(DatasetError) as info:
        with open_input(path) as handle:
            handle.read()
    assert type(info.value) is DatasetError
    assert str(info.value) == f"{path}: not UTF-8 text: byte 0xff: invalid start byte"
