import io
import math
import re
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from venuerisk import ConfigError, DatasetError, RecordError, cli, ingest, scenario
from venuerisk.errors import InputError
from venuerisk.ingest import (
    INDEX_DTYPE,
    SQFT_TO_SQM,
    WINDOW_HOURS,
    SimulationInput,
    VenueTable,
    VisitRecords,
    _parse_visits_csv,
    _parse_visits_fast,
    apply_sampling_correction,
    compute_volumes,
    join,
    load_visits,
    open_input,
    parse_venues,
    parse_visits,
    write_venues,
    write_visits,
)
from conftest import (
    dense_counts,
    input_from_matrix,
    large_table,
    make_venues,
    parse_outcome,
    peak_above_kept,
    record_columns,
    same_venues,
    traced_memory,
    visit_records,
    visit_rows,
    window_counts,
)

SAMPLE_DATA = Path(__file__).resolve().parent.parent / "sample_data"


def venues_csv(*rows):
    return io.StringIO("venue_id,name,category,area\n" + "\n".join(rows) + "\n")


def visits_csv(*rows):
    return io.StringIO("venue_id,hour,count\n" + "\n".join(rows) + "\n")


def parsed_venues(ids, names, categories, areas):
    """The venue table that parse_venues makes of these columns, written as a venue file."""
    rows = map("{},{},{},{!r}".format, ids, names, categories, areas.tolist())
    return parse_venues(venues_csv(*rows))


def column(table, name, vid):
    """One venue's entry in a column of a VenueTable, looked up by id."""
    return getattr(table, name)[table.ids.index(vid)]


class TestParseVenues:
    def test_square_meters_identity(self):
        table = parse_venues(venues_csv("v1,Cafe,restaurant,100"))
        assert column(table, "areas", "v1") == 100.0

    def test_square_feet_conversion(self):
        table = parse_venues(venues_csv("v1,Cafe,restaurant,1000"), area_unit="ft2")
        assert column(table, "areas", "v1") == 1000 * SQFT_TO_SQM
        assert column(table, "areas", "v1") == pytest.approx(92.90304, rel=1e-12)

    def test_rows_of_one_category_share_its_string(self):
        table = parse_venues(venues_csv(
            "v1,Cafe,restaurant,10", "v2,Gym,fitness,20", "v3,Diner, restaurant ,30"
        ))
        assert table.categories == ("restaurant", "fitness", "restaurant")
        assert table.categories[0] is table.categories[2]

    def test_negative_area_is_record_error(self):
        with pytest.raises(RecordError, match="line 2"):
            parse_venues(venues_csv("v1,Cafe,restaurant,-5"))

    def test_non_numeric_area(self):
        with pytest.raises(RecordError, match="not a number"):
            parse_venues(venues_csv("v1,Cafe,restaurant,big"))

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(RecordError, match="line 3"):
            parse_venues(venues_csv("v1,Cafe,restaurant,100", "v2,Bar,drinking place"))

    def test_duplicate_id_is_dataset_error(self):
        with pytest.raises(DatasetError, match="duplicate"):
            parse_venues(venues_csv("v1,Cafe,restaurant,100", "v1,Bar,drinking place,50"))

    def test_bad_header(self):
        with pytest.raises(DatasetError, match="header"):
            parse_venues(io.StringIO("id,name,cat,area\nv1,Cafe,restaurant,100\n"))

    def test_empty_source(self):
        # an empty venue file is a missing header, not a table of zero venues
        with pytest.raises(DatasetError, match="no header"):
            parse_venues(io.StringIO(""))
        with pytest.raises(DatasetError, match="no header"):
            parse_venues(io.StringIO("# provenance comment only\n"))

    def test_quoted_name_with_comma(self):
        table = parse_venues(venues_csv('v1,"Soup, Salad & Co",restaurant,100'), names=True)
        assert column(table, "names", "v1") == "Soup, Salad & Co"

    def test_a_table_without_names_holds_no_name_strings(self):
        rows = [f"v{i},Synthetic restaurant {i:05d},restaurant,{i + 1}" for i in range(5000)]
        text = venues_csv(*rows).getvalue()
        bare, kept, _ = traced_memory(lambda: parse_venues(io.StringIO(text)))
        named, kept_with_names, _ = traced_memory(lambda: parse_venues(io.StringIO(text), names=True))
        assert bare.names is None and bare.ids == named.ids
        assert named.names[-1] == "Synthetic restaurant 04999"
        # the names and their tuple are the whole difference
        assert kept_with_names - kept >= sum(map(sys.getsizeof, named.names))

    def test_leading_comment_lines_skipped(self):
        source = io.StringIO("# provenance stamp\nvenue_id,name,category,area\nv1,Cafe,restaurant,100\n")
        assert column(parse_venues(source), "areas", "v1") == 100.0

    def test_hash_id_after_header_is_a_venue(self):
        table = parse_venues(venues_csv("#12,Bar,restaurant,100", "v2,Cafe,restaurant,50"))
        assert table.ids == ("#12", "v2")
        assert table.areas.tolist() == [100.0, 50.0]

    def test_comment_after_header_is_a_malformed_record(self):
        with pytest.raises(RecordError, match="line 3: expected 4 fields, got 1"):
            parse_venues(venues_csv("v1,Cafe,restaurant,100", "# note"))

    def test_parsed_values_are_stripped_and_hold_no_carriage_return(self, tmp_path):
        # the reading owns this rule for VenueTable: open_input turns each carriage
        # return into a line end, a quoted one too, and parse_venues strips each field
        path = tmp_path / "venues.csv"
        path.write_bytes(
            "venue_id,name,category,area\r\n"
            " a1 ,\tCafe One\t,\u00a0bar ,10\r\n"
            'b2\t,"Caf\re ",  food\u00a0,20\r'
            "\u00a0c3,Shop , retail\t,30\n".encode("utf-8")
        )
        with open_input(path) as handle:
            table = parse_venues(handle, names=True)
        assert table.ids == ("a1", "b2", "c3")
        assert table.names == ("Cafe One", "Caf\ne", "Shop")
        assert table.categories == ("bar", "food", "retail")
        assert table.areas.tolist() == [10.0, 20.0, 30.0]
        for value in table.ids + table.names + table.categories:
            assert value == value.strip() and "\r" not in value


class TestParseVisits:
    def test_missing_hours_zero_filled(self):
        table = visit_rows(parse_visits(visits_csv("v1,0,5", "v1,3,2")))
        series = table["v1"]
        assert len(series) == 168
        assert series[0] == 5.0 and series[3] == 2.0
        assert sum(series) == 7.0

    def test_empty_source(self):
        # a 0-byte visit file is a missing header, not a total closure
        with pytest.raises(DatasetError, match="no header"):
            parse_visits(io.StringIO(""))
        with pytest.raises(DatasetError, match="no header"):
            parse_visits(io.StringIO("# provenance comment only\n"))
        # a header with no rows is a legal file with no visits
        assert visit_rows(parse_visits(visits_csv())) == {}

    def test_hour_at_window_boundary_rejected(self):
        with pytest.raises(RecordError, match=r"outside \[0, 168\)"):
            parse_visits(visits_csv("v1,168,1"))

    def test_negative_hour_rejected(self):
        with pytest.raises(RecordError):
            parse_visits(visits_csv("v1,-1,1"))

    def test_negative_count_rejected(self):
        with pytest.raises(RecordError, match="non-negative"):
            parse_visits(visits_csv("v1,0,-2"))

    def test_fractional_counts_allowed(self):
        table = visit_rows(parse_visits(visits_csv("v1,0,2.5")))
        assert table["v1"][0] == 2.5

    def test_duplicate_hour_rejected(self):
        with pytest.raises(RecordError, match="duplicate"):
            parse_visits(visits_csv("v1,0,1", "v1,0,2"))

    def test_non_integer_hour_rejected(self):
        with pytest.raises(RecordError, match="not an integer"):
            parse_visits(visits_csv("v1,1.5,1"))

    def test_comment_after_header_is_a_malformed_record(self):
        with pytest.raises(RecordError, match="line 3: expected 3 fields, got 1"):
            parse_visits(visits_csv("v1,0,1", "# note"))


class TestFastVisitParse:
    """The NumPy path must be the one taken on the files the program writes and ships."""

    def assert_fast_and_exact(self, text):
        fast = _parse_visits_fast(io.StringIO(text))
        assert fast is not None
        fast = visit_rows(fast)
        slow = visit_rows(_parse_visits_csv(io.StringIO(text)))
        assert list(fast) == list(slow)
        assert all(fast[vid].tolist() == slow[vid].tolist() for vid in slow)

    def test_taken_on_written_visits(self):
        venues = make_venues({f"v{i}": 10.0 for i in range(3)})
        counts = window_counts([[0.0, 2.0, 0.5], [0.0, 0.0, 0.0], [7.0, 1e-9, 123456.789]])
        sink = io.StringIO()
        write_visits(input_from_matrix(venues, counts), sink, comment="manifest_sha256: 00ff")
        assert sink.getvalue().startswith("# manifest_sha256: 00ff\n")
        self.assert_fast_and_exact(sink.getvalue())

    def test_taken_on_sample_data(self):
        with open_input(SAMPLE_DATA / "visits.csv") as handle:
            self.assert_fast_and_exact(handle.read())


# runs of one id over several lines, a -0.0 count and a last line without its line end
SLICED_TEXT = (
    "# stamp\nvenue_id,hour,count\n"
    + "".join(f"v{i // 7},{i % 7 * 3},{i * 0.5}\n" for i in range(40))
    + "v9,5,-0.0\nv10,167,12"
)


class TestSlicedVisitParse:
    """Blocks of the body must give the csv parser's records, or nothing at all."""

    @pytest.mark.parametrize("slice_chars", [1, 2, 7, 9, 16, 64, 1 << 20])
    def test_slices_give_the_csv_records(self, monkeypatch, slice_chars):
        monkeypatch.setattr(ingest, "_PARSE_BLOCK_CHARS", slice_chars)
        fast = _parse_visits_fast(io.StringIO(SLICED_TEXT))
        assert fast is not None
        slow = _parse_visits_csv(io.StringIO(SLICED_TEXT))
        assert record_columns(fast) == record_columns(slow)
        assert list(fast.ids)[:3] == ["v0", "v1", "v2"] and len(fast.count) == 42

    @pytest.mark.parametrize("slice_chars", [1, 9, 16])
    def test_runs_split_at_block_edges_only(self, monkeypatch, slice_chars):
        # each block finds its own runs: a stretch of one id across a block's edge is one
        # run more there, and the records are the csv parser's
        monkeypatch.setattr(ingest, "_PARSE_BLOCK_CHARS", slice_chars)
        with mock.patch.object(ingest, "_parse_block", wraps=ingest._parse_block) as blocks:
            fast = _parse_visits_fast(io.StringIO(SLICED_TEXT))
        slow = _parse_visits_csv(io.StringIO(SLICED_TEXT))
        assert record_columns(fast) == record_columns(slow)
        runs, edges = slow.run_venue.size, blocks.call_count - 1
        assert runs < fast.run_venue.size <= runs + edges

    @pytest.mark.parametrize(
        "last_line",
        [
            '"v11",3,1\n',  # quoted: accepted, but only the csv parser reads quotes
            "v0,0,9\n",  # the first row's (venue, hour) again: a duplicate
            "v11,3,abc\n",
            "v11,168,1\n",
            "v11, 3,1\n",
        ],
    )
    def test_non_plain_last_slice_gives_the_csv_result(self, monkeypatch, last_line):
        text = SLICED_TEXT + "\n" + last_line
        monkeypatch.setattr(ingest, "_PARSE_BLOCK_CHARS", 16)
        assert _parse_visits_fast(io.StringIO(text)) is None
        assert parse_outcome(parse_visits, text) == parse_outcome(_parse_visits_csv, text)


def test_duplicate_pair_in_two_parse_blocks_is_the_csv_error(monkeypatch):
    # one row per block, so the duplicate check meets the pair in its second block
    text = visits_csv("v,4,1", "w,0,2", "v,4,3").getvalue()
    monkeypatch.setattr(ingest, "_PARSE_BLOCK_CHARS", 1)
    assert _parse_visits_fast(io.StringIO(text)) is None
    with pytest.raises(RecordError, match="line 4: duplicate hour 4 for venue 'v'"):
        parse_visits(io.StringIO(text))


def test_run_over_the_window_across_a_block_edge_is_the_csv_error(monkeypatch):
    # WINDOW_HOURS + 1 rows of one id must repeat an hour. At the default block size this
    # stretch crosses the first block's edge, so neither block holds a run over the window:
    # the duplicate check finds the hour, and the csv parser names its line
    run = "".join(f"x,{hour},1\n" for hour in [*range(WINDOW_HOURS), 5])
    fillers = (ingest._PARSE_BLOCK_CHARS - len(run) // 2) // len("f00000,0,1\n")
    body = "".join(f"f{i:05d},0,1\n" for i in range(fillers))
    assert len(body) < ingest._PARSE_BLOCK_CHARS < len(body) + len(run) - len("x,5,1\n")
    text = "venue_id,hour,count\n" + body + run
    blocks = []
    real_block = ingest._parse_block

    def spy(part, ids):
        blocks.append(real_block(part, ids))
        return blocks[-1]

    monkeypatch.setattr(ingest, "_parse_block", spy)
    assert _parse_visits_fast(io.StringIO(text)) is None
    assert len(blocks) == 2 and None not in blocks
    line = 1 + fillers + WINDOW_HOURS + 1
    with pytest.raises(RecordError, match=f"^line {line}: duplicate hour 5 for venue 'x'$"):
        parse_visits(io.StringIO(text))


def takes_bitmap(text):
    """Whether the byte reader builds its duplicate bitmap on ``text``, and its result."""
    with mock.patch.object(np, "zeros", wraps=np.zeros) as zeros:
        fast = _parse_visits_fast(io.StringIO(text))
    return any(call.kwargs.get("dtype") is bool for call in zeros.call_args_list), fast


class TestDuplicateCheck:
    """Rows in venue-then-hour order need no bitmap; only other files build it."""

    @pytest.mark.parametrize("block_chars", [1, 16, 1 << 18])
    def test_ordered_file_takes_no_bitmap(self, monkeypatch, block_chars):
        monkeypatch.setattr(ingest, "_PARSE_BLOCK_CHARS", block_chars)
        bitmap, fast = takes_bitmap(SLICED_TEXT)
        assert not bitmap
        assert record_columns(fast) == record_columns(_parse_visits_csv(io.StringIO(SLICED_TEXT)))

    @pytest.mark.parametrize("block_chars", [1, 16, 1 << 18])
    def test_adjacent_duplicate_in_an_ordered_file(self, monkeypatch, block_chars):
        # at one character per block, each row is a block: the pair meets across an edge
        monkeypatch.setattr(ingest, "_PARSE_BLOCK_CHARS", block_chars)
        text = visits_csv("v,0,1", "v,3,2", "v,3,5", "w,1,1").getvalue()
        assert _parse_visits_fast(io.StringIO(text)) is None
        with pytest.raises(RecordError, match="line 4: duplicate hour 3 for venue 'v'"):
            parse_visits(io.StringIO(text))

    def test_id_back_later_without_a_duplicate_takes_the_bitmap(self):
        text = visits_csv("v,0,1", "v,5,2", "w,0,3", "v,1,4").getvalue()
        bitmap, fast = takes_bitmap(text)
        assert bitmap
        assert record_columns(fast) == record_columns(_parse_visits_csv(io.StringIO(text)))

    def test_duplicate_in_two_blocks_of_an_unordered_file(self, monkeypatch):
        monkeypatch.setattr(ingest, "_PARSE_BLOCK_CHARS", 16)
        text = visits_csv("w,9,1", "v,4,1", "w,0,2", "x,1,1", "y,7,1", "v,4,3").getvalue()
        bitmap, fast = takes_bitmap(text)
        assert bitmap and fast is None
        assert parse_outcome(parse_visits, text) == parse_outcome(_parse_visits_csv, text)
        with pytest.raises(RecordError, match="line 7: duplicate hour 4 for venue 'v'"):
            parse_visits(io.StringIO(text))


class ReadSizes(io.StringIO):
    """A text stream that records the size asked of each ``read``."""

    def __init__(self, text):
        super().__init__(text)
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)


class TestStreamedVisitIO:
    """Visit files are read and written a block at a time, never whole."""

    def test_fast_path_reads_blocks_only(self, monkeypatch):
        monkeypatch.setattr(ingest, "_PARSE_BLOCK_CHARS", 16)
        stream = ReadSizes(SLICED_TEXT)
        visits = parse_visits(stream)
        assert record_columns(visits) == record_columns(_parse_visits_csv(io.StringIO(SLICED_TEXT)))
        # the counting pass and the blocks: every read asks for one block's characters
        assert len(stream.sizes) > 2 and set(stream.sizes) == {16}

    @pytest.mark.parametrize("rows_after", [7, 3], ids=["grown", "shrunk"])
    def test_file_changed_between_the_passes_is_read_again_whole(self, rows_after):
        class ChangingStream(io.StringIO):
            """Holds ``after`` in place of its text from the first seek on."""

            def __init__(self, before, after):
                super().__init__(before)
                self.after = after

            def seek(self, pos, whence=0):
                if self.after is not None:
                    super().seek(0)
                    super().truncate()
                    super().write(self.after)
                    self.after = None
                return super().seek(pos, whence)

        def text(rows):
            return visits_csv(*(f"v,{hour},1" for hour in range(rows))).getvalue()

        # five rows counted, then rows_after parsed: the csv parser reads the file as it is
        visits = parse_visits(ChangingStream(text(5), text(rows_after)))
        expected = _parse_visits_csv(io.StringIO(text(rows_after)))
        assert record_columns(visits) == record_columns(expected)

    def test_load_visits_holds_the_bitmap_and_a_few_blocks(self, tmp_path):
        # many venues and few hours each: a bitmap of every id's window (8.4 MB) larger
        # than a few blocks
        table = large_table(n_venues=50_000, hours=16)
        sink = io.StringIO()
        write_visits(table, sink)
        header, *rows = sink.getvalue().splitlines(keepends=True)
        shuffled = np.random.default_rng(5).permutation(table.count.size)
        path = tmp_path / "visits.csv"
        for order, bitmap in ((slice(None), False), (shuffled, True)):
            path.write_text(header + "".join(np.array(rows, object)[order]), encoding="utf-8")
            with open_input(path) as handle:
                visits, extra = peak_above_kept(lambda: parse_visits(handle))
            assert visits.count.tolist() == table.count[order].tolist()
            # a block's text, bytes and per-row temporaries, and the duplicate bitmap only
            # for rows out of venue-then-hour order; a read of the whole file would take
            # twice its 10 MB
            seen = len(visits.ids) * ingest.WINDOW_HOURS
            assert extra <= bitmap * seen + 16 * ingest._PARSE_BLOCK_CHARS

    def test_load_visits_joins_in_place(self, tmp_path):
        table = large_table()
        path = tmp_path / "visits.csv"
        with open(path, "w", encoding="utf-8") as sink:
            write_visits(table, sink)
        sim, extra = peak_above_kept(lambda: load_visits(path, table.venues))
        assert sim.offsets.tolist() == table.offsets.tolist()
        # the parse's blocks and id dict, but not a record-length index column, as a join
        # that gave each record its row would hold
        assert extra < table.count.size * np.dtype(INDEX_DTYPE).itemsize

    def test_a_joined_visit_file_holds_two_bytes_per_record_and_the_offsets(self, tmp_path):
        # one-byte hours and counts; a column of a venue row per record would take 4
        # bytes more for each of the 800 000 records
        table = large_table()
        path = tmp_path / "visits.csv"
        with open(path, "w", encoding="utf-8") as sink:
            write_visits(table, sink)
        sim, kept, _ = traced_memory(lambda: load_visits(path, table.venues))
        assert sim.hour.dtype == sim.count.dtype == np.uint8
        assert kept <= 2 * sim.count.size + sim.offsets.nbytes + (1 << 16)

    def test_write_visits_holds_a_few_blocks_beyond_its_text(self):
        table = large_table()
        sink = io.StringIO()
        _, extra = peak_above_kept(lambda: write_visits(table, sink))
        # a block's records, their mask and their text; blocks of the whole 10 MB text
        # would take several times that
        assert extra <= 4 * ingest._WRITE_BLOCK_BYTES
        assert len(sink.getvalue()) > 10**7

    @pytest.mark.parametrize(
        "last_line",
        ['"v11",3,1\n', "v0,0,9\n", "v11,3,abc\n"],
        ids=["quoted", "duplicate", "count"],
    )
    def test_bom_file_falling_back_after_a_block_is_read_again_whole(
        self, monkeypatch, tmp_path, last_line
    ):
        # the csv parser reads the stream again from its start, where the BOM is dropped
        # again and the comment lines are skipped again
        text = "# first stamp\n" + SLICED_TEXT + "\n" + last_line
        path = tmp_path / "visits.csv"
        path.write_text("\ufeff" + text, encoding="utf-8")
        monkeypatch.setattr(ingest, "_PARSE_BLOCK_CHARS", 64)
        with open(path, encoding="utf-8-sig") as handle:
            assert _parse_visits_fast(handle) is None

        def parse_file(_):  # the file's own stream, in place of the one parse_outcome makes
            with open(path, encoding="utf-8-sig") as handle:
                return parse_visits(handle)

        assert parse_outcome(parse_file, text) == parse_outcome(_parse_visits_csv, text)


class TestByteReaderEdges:
    """At each limit of its id, hour and count fields the byte reader gives the csv result."""

    def assert_as_csv(self, text, fast=True):
        # the same records or the same error, and the byte reader's own answer taken or not
        assert parse_outcome(parse_visits, text) == parse_outcome(_parse_visits_csv, text)
        assert (_parse_visits_fast(io.StringIO(text)) is not None) == fast

    @pytest.mark.parametrize("length", [1, 7, 8, 9, 16, 17, 31, 32, 33])
    def test_id_lengths(self, length):
        # next to each other: ids of one length that differ only in the first byte or the
        # last, and ids whose bytes match where the shorter is padded with "0" digits
        same = "a" * length
        first, last, shorter = "c" + same[1:], same[:-1] + "b", same[:-1] or "d"
        rows = [f"{same},0,1", f"{same},1,2", f"{first},0,3", f"{last},1,4", f"{shorter},0,5",
                f"0{shorter},0,6", f"{same},2,7"]
        self.assert_as_csv(visits_csv(*rows).getvalue(), fast=length <= ingest._FIELD_BYTES)

    @pytest.mark.parametrize("digits", [8, 9, 15, 16, 17])
    def test_count_digits(self, digits):
        # the largest, leading zeros, and the last digits of 2**53 + 1, which rounds to even
        counts = ["9" * digits, "0" * (digits - 1) + "7", "9007199254740993"[-digits:]]
        rows = [f"v,{hour},{count}" for hour, count in enumerate(counts)]
        self.assert_as_csv(visits_csv(*rows).getvalue())

    @pytest.mark.parametrize(
        "hour, fast",
        [("007", True), ("167", True), ("168", False),
         ("7".zfill(ingest._DIGITS), True), ("7".zfill(ingest._DIGITS + 1), False)],
    )
    def test_hours(self, hour, fast):
        self.assert_as_csv(visits_csv(f"v,{hour},1", "v,8,1").getvalue(), fast)

    @pytest.mark.parametrize(
        "count, fast",
        [("0.5", True), ("1e3", True), ("1_000", True), ("inf", False), ("nan", False),
         ("-0", True)],
    )
    def test_counts_read_by_float(self, count, fast):
        self.assert_as_csv(visits_csv(f"v,0,{count}", "v,1,2").getvalue(), fast)

    def test_last_line_without_line_end(self):
        self.assert_as_csv("venue_id,hour,count\nv,0,1\nw,5,2.5")

    def test_block_edge_after_every_row(self, monkeypatch):
        text = visits_csv(*(f"v{i % 3},{i},{i * 1.5}" for i in range(9))).getvalue()
        body = len(text) - len("venue_id,hour,count\n")
        for block_chars in range(1, body + 1):
            monkeypatch.setattr(ingest, "_PARSE_BLOCK_CHARS", block_chars)
            self.assert_as_csv(text)


def test_small_whole_counts_are_parsed_one_byte_each(tmp_path):
    table = large_table()  # counts 1 to 50
    path = tmp_path / "visits.csv"
    with open(path, "w", encoding="utf-8") as sink:
        write_visits(table, sink)
    with open_input(path) as handle:
        visits, extra = peak_above_kept(lambda: parse_visits(handle))
    assert visits.count.dtype == np.uint8 and visits.count.base is None
    assert visits.count.tolist() == table.count.tolist()
    # the blocks' temporaries, far from a float64 copy of every count
    assert extra < table.count.size * np.dtype(float).itemsize / 2


class TestSamplingCorrection:
    def test_factor_ten(self):
        out = apply_sampling_correction(np.array([[1.0, 2.0, 0.0]]), 10.0)
        assert out.tolist() == [[10.0, 20.0, 0.0]]

    def test_identity_factor(self):
        counts = np.array([[3.0, 0.25, 7.0]])
        out = apply_sampling_correction(counts, 1.0)
        assert np.array_equal(out, counts)

    def test_input_unchanged_without_out(self):
        counts = np.array([1.0, 2.5, 0.0])
        out = apply_sampling_correction(counts, 4.0)
        assert counts.tolist() == [1.0, 2.5, 0.0]
        assert out.tolist() == [4.0, 10.0, 0.0]

    def test_narrow_counts_give_float64_products_as_float64_counts_do(self):
        # uint8 * 1.5 is float16 under NumPy 1.x's value-based casting; the products must not be
        counts = np.array([0, 1, 3, 255], np.uint8)
        out = apply_sampling_correction(counts, 1.1)
        assert out.dtype == np.float64
        assert out.tobytes() == apply_sampling_correction(counts.astype(float), 1.1).tobytes()
        assert counts.tolist() == [0, 1, 3, 255]

    # a float64 column, and a uint8 one where only its largest count overflows
    @pytest.mark.parametrize("narrow", [False, True])
    def test_overflow_names_the_factor(self, narrow):
        counts = np.array([2, 254, 255], np.uint8) if narrow else np.array([2.0, 1e300])
        factor = 7.05e305 if narrow else 1e20
        message = f"sampling factor {factor!r} makes a visitor count overflow to infinity"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            apply_sampling_correction(counts, factor)
        assert np.isfinite(apply_sampling_correction(counts[:-1], factor)).all()

    def test_fractional_factor(self):
        out = apply_sampling_correction(np.array([[3.0]]), 2.5)
        assert out.tolist() == [[7.5]]

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_factor(self, factor):
        # the factor's one owner is ScenarioConfig; apply_sampling_correction takes it as checked
        with pytest.raises(ValueError, match="^sampling_factor must be positive"):
            scenario.ScenarioConfig(name="s", sampling_factor=factor)

    def test_linearity(self):
        # applying a then b equals applying a*b, up to fp associativity
        import random

        rng = random.Random(11)
        for _ in range(200):
            counts = np.array([[rng.uniform(0, 50) for _ in range(24)]])
            a = rng.uniform(0.1, 20)
            b = rng.uniform(0.1, 20)
            before = counts.copy()
            two_step = apply_sampling_correction(apply_sampling_correction(counts, a), b)
            one_step = apply_sampling_correction(counts, a * b)
            assert np.array_equal(counts, before)
            for x, y in zip(two_step[0], one_step[0]):
                assert x == pytest.approx(y, rel=1e-12)


class TestComputeVolumes:
    def test_paper_operating_point(self):
        assert compute_volumes(np.array([100.0]), 3.0)[0] == 300.0

    def test_unit_identity(self):
        assert compute_volumes(np.array([1.0]), 1.0)[0] == 1.0

    def test_converted_area(self):
        volumes = compute_volumes(np.array([92.90304]), 3.0)
        assert volumes[0] == pytest.approx(278.70912, rel=1e-12)

    def test_idempotent(self):
        # volumes are always recomputed from the area, which they never overwrite
        areas = np.array([123.456])
        once = compute_volumes(areas, 3.0)
        assert np.array_equal(compute_volumes(areas, 3.0), once)
        assert areas.tolist() == [123.456]

    def test_overflowing_volume_is_infinite_without_a_warning(self):
        assert compute_volumes(np.array([1e308, 1.0]), 3.0).tolist() == [math.inf, 3.0]


class TestJoin:
    def _venues(self, *ids):
        return make_venues(dict.fromkeys(ids, 100.0))

    def test_missing_series_zero_filled(self):
        venues = self._venues("v1", "v2")
        visits = visit_records({"v1": np.ones(168)})
        sim = join(venues, visits)
        assert list(sim.venues) == ["v1", "v2"]
        assert dense_counts(sim)[1].tolist() == [0.0] * 168

    def test_unknown_venue_named_in_error(self):
        venues = self._venues("v1")
        visits = visit_records({"ghost": np.zeros(168)})
        with pytest.raises(DatasetError, match="ghost"):
            join(venues, visits)

    def test_unknown_ids_listed_up_to_ten_with_count(self):
        venues = self._venues("v1")
        visits = visit_records({f"g{i:02d}": np.zeros(168) for i in range(48)})
        with pytest.raises(DatasetError) as info:
            join(venues, visits)
        message = str(info.value)
        assert "48 unknown venue id(s)" in message
        assert "'g09'" in message and "'g10'" not in message
        assert message.endswith(", ...")

    def test_unknown_ids_message_is_sorted_and_cut_at_ten(self):
        # known ids among the unknown ones, which come in reverse order in the file
        venues = self._venues("v1", "v2", "v3")
        visits = visit_records({
            **{f"g{i:02d}": {3: 1.0} for i in range(11, -1, -1)}, "v2": {5: 2.0}, "z1": {0: 1.0},
        })
        with pytest.raises(DatasetError) as info:
            join(venues, visits)
        assert str(info.value) == (
            "visit series reference 13 unknown venue id(s): 'g00', 'g01', 'g02', 'g03', "
            "'g04', 'g05', 'g06', 'g07', 'g08', 'g09', ..."
        )

    def test_table_larger_than_the_file_and_in_another_order(self):
        # the file names three of six venues, in an order of its own: its records are
        # gathered into venue-table order, each venue's kept in file order
        venues = self._venues("a", "b", "c", "d", "e", "f")
        visits = visit_records({"e": {7: 1.0, 0: 2.0}, "b": {1: 3.0}, "f": {2: 4.0}})
        sim = join(venues, visits)
        assert sim.offsets.tolist() == [0, 0, 1, 1, 1, 3, 4]
        assert sim.hour.tolist() == [1, 7, 0, 2] and sim.count.tolist() == [3.0, 1.0, 2.0, 4.0]
        assert visits.hour.tolist() == [7, 0, 1, 2]
        assert dense_counts(sim).sum(axis=1).tolist() == [0.0, 3.0, 0.0, 0.0, 3.0, 4.0]

    def test_records_in_venue_order_are_handed_on_uncopied(self):
        venues = self._venues("a", "b", "c", "d")
        visits = visit_records({"b": {1: 3.0}, "d": {7: 1.0, 0: 2.0}})
        sim = join(venues, visits)
        assert sim.offsets.tolist() == [0, 0, 1, 1, 3]
        assert sim.hour is visits.hour and sim.count is visits.count

    def test_full_size_join(self):
        ids = [f"v{i}" for i in range(1034)]
        venues = self._venues(*ids)
        visits = visit_records({vid: np.ones(168) for vid in ids})
        sim = join(venues, visits)
        assert len(sim.venues) == 1034 and len(sim.count) == 1034 * 168
        assert (dense_counts(sim) == 1.0).all()

    def test_never_drops_or_invents(self):
        venues = self._venues("a", "b", "c")
        visits = visit_records({"b": window_counts([[2.0, 0.0, 5.0]])[0]})
        sim = join(venues, visits)
        assert list(sim.venues) == list(venues)
        assert dense_counts(sim).tolist() == window_counts([[], [2.0, 0.0, 5.0], []]).tolist()

    def test_each_visit_file_is_parsed_and_joined_once_per_run(self, monkeypatch):
        # two scenarios on the baseline file and one with a file of its own; the spies
        # replace every binding in the package, as the tracer in perfbench/ does
        parsed, joined = [], []
        originals = {"parse_visits": ingest.parse_visits, "join": ingest.join}

        def parse_spy(source):
            parsed.append(originals["parse_visits"](source))
            return parsed[-1]

        def join_spy(venues, visits):
            joined.append(visits)
            return originals["join"](venues, visits)

        for module in (ingest, scenario, cli):
            for name, spy in (("parse_visits", parse_spy), ("join", join_spy)):
                if getattr(module, name, None) is originals[name]:
                    monkeypatch.setattr(module, name, spy)
        names = ("lockdown", "distanced", "reopened")
        paths = [str(SAMPLE_DATA / f"scenario_{name}.txt") for name in names]
        configs = [scenario.load_scenario_config(path) for path in paths]
        assert [c.visit_source == scenario.BASELINE for c in configs] == [True, True, False]
        args = cli.build_parser().parse_args([
            "compare", "--venues", str(SAMPLE_DATA / "venues.csv"),
            "--visits", str(SAMPLE_DATA / "visits.csv"), "--params", str(SAMPLE_DATA / "params.txt"),
            "--scenario-a", paths[0], "--scenario-b", paths[2], "--out", "unused",
        ])
        # the engine of compare, given three scenarios where the command line takes two
        cli._run_scenarios(args, configs, paths)
        # the baseline file and the reopened scenario's own file, each mapped by one join
        assert len(parsed) == 2
        assert list(map(id, joined)) == list(map(id, parsed))


class TestRoundTrip:
    def test_serialize_parse_is_exact(self):
        # awkward floats on purpose; repr-based serialization is lossless
        venues = VenueTable(
            ids=("v1", "v2"),
            names=("Cafe, The", "Bar"),
            categories=("restaurant", "drinking place"),
            areas=np.array([0.1 + 0.2, 1234.5678901234567]),
        )
        counts = window_counts([[0.0, 1e-9, 2.5, 0.0, 123456.789], []])
        venue_buf = io.StringIO()
        write_venues(venues, venue_buf)
        visit_buf = io.StringIO()
        write_visits(input_from_matrix(venues, counts), visit_buf)

        back_venues = parse_venues(io.StringIO(venue_buf.getvalue()), names=True)
        back_visits = parse_visits(io.StringIO(visit_buf.getvalue()))
        for vid in venues:
            assert column(back_venues, "areas", vid) == column(venues, "areas", vid)
            assert column(back_venues, "names", vid) == column(venues, "names", vid)
        assert visit_rows(back_visits)["v1"].tolist() == counts[0].tolist()
        # all-zero series vanish from the sparse file and come back via join
        assert "v2" not in back_visits
        assert np.array_equal(dense_counts(join(back_venues, back_visits)), counts)

    def test_hash_id_survives_the_round_trip(self):
        # "#" is a comment only before the header, so this venue is neither dropped nor unknown
        venues = make_venues({"#12": 80.0, "v2": 120.0})
        counts = window_counts([[3.0, 0.0, 1.5], [0.0, 2.0, 0.0]])
        venue_buf, visit_buf = io.StringIO(), io.StringIO()
        write_venues(venues, venue_buf, comment="manifest_sha256: 00ff")
        write_visits(input_from_matrix(venues, counts), visit_buf, comment="manifest_sha256: 00ff")

        back_venues = parse_venues(io.StringIO(venue_buf.getvalue()), names=True)
        back_visits = parse_visits(io.StringIO(visit_buf.getvalue()))
        assert same_venues(back_venues, venues)
        assert np.array_equal(dense_counts(join(back_venues, back_visits)), counts)


class TestTypeInvariants:
    @pytest.mark.parametrize(
        "ids, venue, length, hour, count, message",
        [
            # columns of different lengths, and runs that do not add up to the records
            ({"a": 0}, [0], [2], [1], [1.0, 2.0], "record columns must be vectors of one length"),
            ({"a": 0}, [0], [2], [1], [1.0], "one length per run, adding up to the 1 records"),
            ({"a": 0}, [0, 0], [1], [1], [1.0], "one length per run"),
            ({"a": 0}, [1], [1], [0], [1.0], "runs must index the 1 ids"),  # an index with no id
            ({"a": 0}, [-1], [1], [0], [1.0], "runs must index the 1 ids"),
            ({"a": 0}, [0], [1], [168], [1.0], "record hours must lie in the 168-hour window"),
        ],
        ids=["lengths", "run-lengths", "runs", "index", "negative-index", "hour"],
    )
    def test_visit_records_reject_bad_columns(self, ids, venue, length, hour, count, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            VisitRecords(ids, np.array(venue), np.array(length), np.array(hour), np.array(count))

    def test_venue_rejects_bad_area(self):
        # the area's one owner is parse_venues, per line and in m2; VenueTable takes it as checked
        for area, unit in [("0", "m2"), ("nan", "m2"), ("inf", "m2"), ("1e-323", "ft2")]:
            message = f"^line 3: area must be positive and finite, got {area}$"
            with pytest.raises(RecordError, match=message):
                parse_venues(venues_csv("v1,Cafe,restaurant,100", f"v2,Bar,pub,{area}"), unit)

    def test_venue_table_is_a_sequence_of_ids(self):
        venues = make_venues({"b": 2.0, "a": 1.0})
        assert len(venues) == 2
        assert list(venues) == ["b", "a"]

    @pytest.mark.parametrize(
        "build, error, columns",
        [
            # ragged names, ragged areas and areas that are not a vector: the table's shape
            (VenueTable, ValueError, (("a", "b"), ("n",), ("c", "c"), np.array([1.0, 2.0]))),
            (VenueTable, ValueError, (("a", "b"), ("n", "n"), ("c", "c"), np.array([1.0]))),
            (VenueTable, ValueError, (("a",), ("n",), ("c",), np.array([[1.0]]))),
            # an empty or duplicate id and an infinite or negative area: ids and areas have
            # one owner, the venue file's parser
            (parsed_venues, InputError, (("",), ("n",), ("c",), np.array([1.0]))),
            (parsed_venues, InputError, (("a", "a"), ("n", "n"), ("c", "c"), np.array([1.0, 2.0]))),
            (parsed_venues, InputError, (("a", "b"), ("n", "n"), ("c", "c"), np.array([1, np.inf]))),
            (parsed_venues, InputError, (("a", "b"), ("n", "n"), ("c", "c"), np.array([1, -2.0]))),
        ],
        ids=["names", "areas", "area-matrix", "empty-id", "duplicate-id", "inf-area", "neg-area"],
    )
    def test_venue_table_rejects_bad_columns(self, build, error, columns):
        with pytest.raises(error):
            build(*columns)

    # a count column of another shape than the row and hour columns', among them the
    # [venue, hour] matrix a table once held
    @pytest.mark.parametrize("shape", [(1, 168), (2,), (0,), ()])
    def test_simulation_input_holds_the_window(self, shape):
        with pytest.raises(ValueError, match="record columns must be vectors of one length"):
            SimulationInput(
                make_venues({"v": 1.0}), np.array([0, 1]), np.zeros(1, np.uint8), np.ones(shape)
            )

    @pytest.mark.parametrize(
        "offsets, hour, message",
        [
            ([1, 1], 0, "offsets must rise from 0 to the 1 records, one per venue and one more (2)"),
            ([0, 2], 0, "offsets must rise from 0 to the 1 records"),
            ([0, 1, 1], 0, "offsets must rise from 0 to the 1 records"),
            ([0], 0, "offsets must rise from 0 to the 1 records"),
            ([0, 1], 168, "record hours must lie in the 168-hour window"),
        ],
        ids=["start", "end", "venues+1", "venues-1", "hour"],
    )
    def test_simulation_input_records_index_the_venues_and_the_window(self, offsets, hour, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            SimulationInput(make_venues({"v": 1.0}), np.array(offsets), np.array([hour]), np.ones(1))

    def test_simulation_input_offsets_never_fall(self):
        venues = make_venues({"a": 1.0, "b": 1.0})
        with pytest.raises(ValueError, match="^offsets must rise from 0 to the 1 records"):
            SimulationInput(venues, np.array([0, 2, 1]), np.zeros(1, np.uint8), np.ones(1))
