"""The CSV files the tool reads and writes, and ingestion of venue and visit files.

Every CSV file is UTF-8 with a header row; the files the tool writes use
``\\n`` line ends. Before the header, lines starting with ``#`` are
comments: every file a run writes, apart from the ``hotspots`` listing,
starts with one ``# manifest_sha256: <hash>`` line (``MANIFEST_COMMENT``)
naming the manifest of that run. After the header, every non-blank line
is a record. :func:`render_table` renders every table the tool writes,
with one row format when no field needs quoting, through one
``csv.writer`` when one does. The files:

* venues, read by ``simulate`` and ``compare``, written by
  ``gen-synthetic``: ``VENUE_HEADER``, the floor area in m2 or ft2 when
  read, in m2 when written;
* visits, read by ``simulate`` and ``compare``, written by
  ``gen-synthetic``: ``VISIT_HEADER``, where
  ``hour`` is a 0-based offset from the start of the ``WINDOW_HOURS`` =
  168-hour simulation week; an hour a file leaves out had no visits;
* venue_results, written by ``simulate`` and read by ``hotspots``:
  ``VENUE_RESULT_COLUMNS``, one row per venue in venue-file order;
  ``hotspots`` reads a file with exactly that header;
* histogram, written by ``simulate`` and ``compare``:
  ``HISTOGRAM_COLUMNS``, after a second comment line with the binning
  scale and the count of values in no bin;
* the ``hotspots`` listing on stdout: ``HOTSPOT_COLUMNS``, no comment.

Visitor counts are real numbers throughout: sampling correction and
occupancy capping act on expected values, not people. A venue table
holds only values the venue file carries back: no id, name or category
has surrounding whitespace or a carriage return. The reading owns that
rule, not the table: :func:`open_input` turns every carriage return
into a line end and :func:`parse_venues` strips every field, so a
caller that builds a :class:`VenueTable` directly, or parses a stream
of its own, must hold to it itself.

Only :func:`open_input` and :func:`load_visits` open files; the other
functions read and write the streams they are given. An input file is
decoded as it is read, and bytes that are not UTF-8 are an error naming
the file. A parsed venue file is one :class:`VenueTable` of columns
(ids, names, categories and float64 floor areas in m2) in file order,
and a parsed visit file is one :class:`VisitRecords`. :func:`join` looks
each venue id up in the visit file's own id dict, built while the file
was parsed, so no dict of the venue table is made; it gives one
:class:`SimulationInput`: the venue table plus one record (venue-table
row, hour, count) per visit row, with no venue-hour matrix. An hour
without a record had no visits. :func:`join` consumes its records: it
writes each record's venue-table row over its id index, in place, and
hands the records' own columns on, so each column is held once.
:func:`load_visits` parses a visit file and joins it while the file is
open, so each file's ids are mapped once and its id dict is dropped
once it is joined.

Visit files, the largest, pass through memory a block at a time:
:func:`parse_visits` reads a plain file's body in line-aligned blocks of
about ``_PARSE_BLOCK_CHARS`` characters and never holds its whole text,
and :func:`write_visits` hands its sink the rows in blocks of about
``_WRITE_BLOCK_BYTES``. A file in venue-then-hour order, as every file
the tool writes, is checked for duplicate (venue_id, hour) pairs block
by block; only a file out of that order takes a bitmap of every id's
window for that check.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import ConfigError, DatasetError, RecordError, error_context

SQFT_TO_SQM = 0.09290304
# factor from each accepted unit of a venue file's ``area`` column to m2
AREA_UNITS = {"m2": 1.0, "ft2": SQFT_TO_SQM}

# the analysis window: one week of hours, counted from its start
WINDOW_HOURS = 168

VENUE_HEADER = ("venue_id", "name", "category", "area")
VISIT_HEADER = ("venue_id", "hour", "count")
VENUE_RESULT_COLUMNS = (
    "venue_id", "name", "category", "area_m2", "volume_m3", "weekly_infections", "severity",
)
HISTOGRAM_COLUMNS = ("bin_lo", "bin_hi", "count")
HOTSPOT_COLUMNS = ("rank", "venue_id", "name", "weekly_infections", "severity")
# the text of the comment line that starts every CSV file a run writes
MANIFEST_COMMENT = "manifest_sha256: {}"


@dataclass(frozen=True, eq=False)
class VenueTable:
    """Establishments as columns, one row per venue: ids, names, categories and floor areas in m2.

    A parsed table holds one string object per distinct category, shared
    by every row of that category. Iterating yields the ids in row order
    and ``len`` is the venue count, as for a dict keyed by venue id.

    The column lengths are checked here. The ids are non-empty and
    unique and the areas positive and finite: they are checked where
    they are made, by :func:`parse_venues` (naming the file and line)
    and by the generator's numbering and draws. No id, name or category
    has surrounding whitespace or a carriage return, the values a venue
    file cannot carry back: :func:`parse_venues` strips every field, and
    a stream from :func:`open_input` turns every carriage return into a
    line end. A table built directly must hold to all of these itself.
    """

    ids: tuple[str, ...]
    names: tuple[str, ...]
    categories: tuple[str, ...]
    areas: np.ndarray

    def __post_init__(self):
        n = len(self.ids)
        if not (len(self.names) == len(self.categories) == n and np.shape(self.areas) == (n,)):
            raise ValueError(f"every venue column must have one entry per venue id ({n})")

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids)


def _check_records(index, hour, count, rows: int, what: str) -> None:
    """Check three record columns: one length, each index below ``rows``, each hour in the window.

    ``what`` names the indexed rows in the error message.
    """
    shapes = [np.shape(column) for column in (index, hour, count)]
    if len(shapes[0]) != 1 or shapes.count(shapes[0]) != 3:
        raise ValueError(f"record columns must be vectors of one length, got shapes {shapes}")
    if shapes[0][0] and not (
        0 <= index.min() and index.max() < rows and 0 <= hour.min() and hour.max() < WINDOW_HOURS
    ):
        raise ValueError(f"records must index the {rows} {what} and the {WINDOW_HOURS}-hour window")


@dataclass(frozen=True, eq=False)
class SimulationInput:
    """A venue table and its visit records, one entry per record in each column.

    Record ``r`` says that ``count[r]`` visitors came to the venue in row
    ``row[r]`` of ``venues`` in hour ``hour[r]`` of the ``WINDOW_HOURS``
    window; a venue-hour with no record had no visitors, and none has
    two. Every count is finite and >= 0. The columns' shapes and index
    ranges are checked here; the counts are checked where they are made,
    by the visit parsers, by :func:`apply_sampling_correction` (no
    product overflowing, from a factor that
    :class:`~venuerisk.scenario.ScenarioConfig` has checked) and by the
    generator's Poisson draws, so that millions of counts are not
    scanned again.
    """

    venues: VenueTable
    row: np.ndarray
    hour: np.ndarray
    count: np.ndarray

    def __post_init__(self):
        _check_records(self.row, self.hour, self.count, len(self.venues), "venue rows")

    @property
    def window_hours(self) -> int:
        return WINDOW_HOURS


# dtypes of VisitRecords' index columns, and of the record rows and hours that join
# and the generator give: a file has fewer than 2**31 distinct ids, a table fewer
# than 2**31 venues, and every hour of the window fits one byte
INDEX_DTYPE = np.int32
HOUR_DTYPE = np.uint8


@dataclass(frozen=True, eq=False)
class VisitRecords:
    """Parsed visit rows as columns, in file order; no (venue, hour) pair twice.

    ``ids`` maps each distinct venue id to its index, in order of first
    appearance, so ``venue_id in records`` is one dict lookup. Row ``r``
    says that ``count[r]`` visitors came to the venue with index
    ``venue[r]`` in hour ``hour[r]`` of the window. ``VisitRecords()``
    holds no visits. They are what :func:`parse_visits` gives, before
    :func:`join` maps the ids to the rows of a venue table, writing the
    rows over ``venue``.
    """

    ids: dict[str, int] = field(default_factory=dict)
    venue: np.ndarray = field(default_factory=lambda: np.empty(0, INDEX_DTYPE))
    hour: np.ndarray = field(default_factory=lambda: np.empty(0, HOUR_DTYPE))
    count: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        _check_records(self.venue, self.hour, self.count, len(self.ids), "ids")

    def __contains__(self, venue_id) -> bool:
        return venue_id in self.ids


@contextlib.contextmanager
def open_input(path: str | Path):
    """Open a UTF-8 input file (BOM dropped); input errors raised while it is open name the file.

    The block runs in an :func:`~venuerisk.errors.error_context` labelled
    with the path, so an ``InputError`` raised in it gains the path as a
    prefix and a ``ValueError``, such as a type's own check on parsed
    values, becomes a :class:`ConfigError` naming the file. The file is
    decoded as it is read, so bytes that are not UTF-8 fail at the read
    that meets them, as a :class:`DatasetError`. Lines are read with
    universal newlines, so the stream holds no carriage return: each one
    is a line end. A path no file can have, such as one holding a NUL, is
    a :class:`ConfigError` naming it; a file that cannot be opened raises
    ``OSError``.
    """
    with error_context(f"cannot open {str(path)!r}"):  # a path holding a NUL, say
        handle = open(path, encoding="utf-8-sig")
    with handle, error_context(str(path)):
        try:
            yield handle
        except UnicodeDecodeError as exc:
            # no position: exc.start counts from the chunk being decoded, not the file's start
            raise DatasetError(
                f"not UTF-8 text: byte 0x{exc.object[exc.start]:02x}: {exc.reason}"
            ) from None


def _records(source: TextIO, kind: str, header: tuple[str, ...]):
    """Yield (line_number, fields) for each record of a ``kind`` file, after checking its header.

    Blank lines, and lines starting with ``#`` before the header, are
    skipped. Every field is stripped of surrounding whitespace, and the
    first one, the venue_id, is never empty.

    Raises:
        DatasetError: missing header, or one that is not ``header``.
        RecordError: a record without one field per column of ``header``,
            or with an empty venue_id; or a line the ``csv`` reader
            rejects, such as a field over its size limit.
    """
    reader = csv.reader(source)
    try:
        first = next((row for row in reader if row and not row[0].startswith("#")), None)
        if first is None:
            raise DatasetError(f"{kind} file has no header: expected {','.join(header)!r}")
        if tuple(f.strip() for f in first) != header:
            raise DatasetError(
                f"{kind} file header must be {','.join(header)!r}, got {','.join(first)!r}"
            )
        for row in filter(None, reader):
            if len(row) != len(header):
                raise RecordError(f"expected {len(header)} fields, got {len(row)}", reader.line_num)
            fields = [f.strip() for f in row]
            if not fields[0]:
                raise RecordError("venue_id is empty", reader.line_num)
            yield reader.line_num, fields
    except csv.Error as exc:
        raise RecordError(str(exc), reader.line_num) from None


def parse_venues(source: TextIO, area_unit: str = "m2") -> VenueTable:
    """Parse a venue CSV into a :class:`VenueTable` in file order, areas in m2.

    Args:
        source: character stream of the venue file.
        area_unit: unit of the ``area`` column, a key of ``AREA_UNITS``
            (the ``--area-unit`` flag's choices); square feet are
            converted with 1 ft2 = 0.09290304 m2.

    Each area is converted to m2 before it is checked, so an area whose
    conversion underflows to 0 fails naming its line.

    Raises:
        RecordError: malformed row, or an area that is not positive and
            finite in m2 (with line number).
        DatasetError: missing or bad header, or duplicate venue_id.
    """
    factor = AREA_UNITS[area_unit]
    ids, names, categories, areas = [], [], [], []
    seen, kinds = set(), {}
    for line, (venue_id, name, category, area_text) in _records(source, "venue", VENUE_HEADER):
        try:
            area = float(area_text) * factor
        except ValueError:
            raise RecordError(f"area {area_text!r} is not a number", line) from None
        if not math.isfinite(area) or area <= 0:
            raise RecordError(f"area must be positive and finite, got {area_text}", line)
        if venue_id in seen:
            raise DatasetError(f"duplicate venue_id {venue_id!r}")
        seen.add(venue_id)
        ids.append(venue_id)
        names.append(name)
        categories.append(kinds.setdefault(category, category))
        areas.append(area)
    return VenueTable(tuple(ids), tuple(names), tuple(categories), np.array(areas, dtype=float))


def parse_visits(source: TextIO) -> VisitRecords:
    """Parse a visit CSV into :class:`VisitRecords`, one record per data row in file order.

    Counts are returned as-read, with no sampling correction; an hour the
    file leaves out had no visits, since sparse mobility data routinely
    omits zero-visit hours. A header with no rows is a legal file with no
    visits (a total closure). Ids are numbered in the order in which they
    first appear.

    ``source`` must be seekable and at its start. While the file is
    plain (see :func:`_parse_visits_fast`), no read takes all of it: a
    byte-level NumPy reader takes its body in line-aligned blocks of
    about ``_PARSE_BLOCK_CHARS`` characters, one byte position of a field
    at a time across a block's rows. Any other file, and every file with
    an error, is read again from its start by the row-by-row ``csv``
    parser, so the accepted files, the values and the line-numbered
    errors are exactly that parser's.

    Raises:
        RecordError: malformed row, hour outside [0, WINDOW_HOURS),
            negative count, or a duplicate (venue_id, hour) pair.
        DatasetError: missing or bad header.
    """
    fast = _parse_visits_fast(source)
    if fast is not None:
        return fast
    source.seek(0)
    return _parse_visits_csv(source)


def _parse_visits_csv(source: TextIO) -> VisitRecords:
    """Row-by-row parse of a visit CSV: the reference for every result and error."""
    ids: dict[str, int] = {}
    venues, hours, counts = [], [], []
    cells = set()  # venue index * WINDOW_HOURS + hour of every row read
    for line, (venue_id, hour_text, count_text) in _records(source, "visit", VISIT_HEADER):
        try:
            hour = int(hour_text)
        except ValueError:
            raise RecordError(f"hour {hour_text!r} is not an integer", line) from None
        if not 0 <= hour < WINDOW_HOURS:
            raise RecordError(f"hour {hour} outside [0, {WINDOW_HOURS})", line)
        try:
            count = float(count_text)
        except ValueError:
            raise RecordError(f"count {count_text!r} is not a number", line) from None
        if not math.isfinite(count) or count < 0:
            raise RecordError(f"count must be non-negative and finite, got {count_text}", line)
        venue = ids.setdefault(venue_id, len(ids))
        cell = venue * WINDOW_HOURS + hour
        if cell in cells:
            raise RecordError(f"duplicate hour {hour} for venue {venue_id!r}", line)
        cells.add(cell)
        venues.append(venue)
        hours.append(hour)
        counts.append(count)
    return VisitRecords(
        ids, np.array(venues, INDEX_DTYPE), np.array(hours, HOUR_DTYPE), np.array(counts, float)
    )


# the exact header line, and the body characters on which csv.reader and the
# byte reader may part ways: quoting, comments, NUL, and every ASCII character
# str.strip() removes from a field (line ends other than "\n" too)
_VISIT_HEADER_LINE = ",".join(VISIT_HEADER) + "\n"
_NOT_PLAIN = '"#\0 \t\r\v\f\x1c\x1d\x1e\x1f'
# characters of body text per block, and per read of the pass that counts line ends:
# a block's text, bytes and per-row temporaries take about 2 MB, where the text of a
# 1.37 M-row file takes 17; blocks twice as long take 4 MB, at the peak of compare,
# for 1 % less CPU time
_PARSE_BLOCK_CHARS = 1 << 17
# the longest id and count fields the byte reader takes: an id is compared in one pass
# per byte, and a longer count may hit the csv parser's field limit
_FIELD_BYTES = 32
# the most digits of an hour or a count it reads as an integer: 16 digits stay exact
# in int64, and converting that to a double rounds as float() of the digits does
_DIGITS = 16


def _parse_visits_fast(source: TextIO) -> VisitRecords | None:
    """Parse a plain visit file's bytes with NumPy; None unless sure of the csv parser's result.

    Plain is: leading ``#`` lines, the exact header line, then ASCII rows
    of three non-empty fields with none of ``_NOT_PLAIN``, every id and
    count at most ``_FIELD_BYTES`` bytes, every hour at most ``_DIGITS``
    digits and in the window, every count finite and non-negative and no
    (venue_id, hour) pair twice. A count of more than ``_DIGITS`` bytes,
    or not all digits, is read by ``float()``, as the csv parser reads it.

    ``source`` is read from its current position, the header line by
    line. One pass then counts the body's line ends, reading
    ``_PARSE_BLOCK_CHARS`` characters at a time, so that each column is
    allocated once. The body is read again in blocks of as many
    characters, each extended to the next line end, so a row is never
    split; a failure in any block returns None, never part of the file.

    A row's cell is its id's index times ``WINDOW_HOURS`` plus its hour.
    While the cells strictly increase, across each block and from one
    block to the next, no (venue_id, hour) pair can come twice: every file
    the tool writes is in venue-then-hour order and needs no more. Only a
    file out of that order has its cells set in one bitmap of every id's
    window, where a pair seen twice leaves fewer cells set than rows.
    """
    line = source.readline()
    while line.startswith("#"):
        # a quote or a carriage return can make csv.reader run a comment line into the
        # next, and some Python versions' csv.reader rejects a NUL
        if not line.endswith("\n") or any(c in line for c in '"\r\0'):
            return None
        line = source.readline()
    if line != _VISIT_HEADER_LINE:
        return None
    body = source.tell()
    n, last = 0, "\n"
    while chunk := source.read(_PARSE_BLOCK_CHARS):
        n, last = n + chunk.count("\n"), chunk
    n += not last.endswith("\n")
    source.seek(body)
    ids: dict[str, int] = {}
    venues, hours, counts = np.empty(n, INDEX_DTYPE), np.empty(n, HOUR_DTYPE), np.empty(n)
    # last_cell: the cell of the last row read while the cells rise, None once they do not
    done, blocks, last_cell = 0, [], -1
    while part := source.read(_PARSE_BLOCK_CHARS):
        block = _parse_block(part + source.readline(), ids)
        if block is None or done + len(block[0]) > n:  # not plain, or grown since counted
            return None
        rows = slice(done, done + len(block[0]))
        venues[rows], hours[rows], counts[rows] = block
        blocks.append(rows)
        done = rows.stop
        if last_cell is not None:
            cells = block[0].astype(np.intp) * WINDOW_HOURS + block[1]
            last_cell = int(cells[-1]) if cells[0] > last_cell and (np.diff(cells) > 0).all() else None
    if done != n:  # shrunk since counted
        return None
    if last_cell is None:
        seen = np.zeros(len(ids) * WINDOW_HOURS, dtype=bool)
        for rows in blocks:
            seen[venues[rows].astype(np.intp) * WINDOW_HOURS + hours[rows]] = True
        # fewer cells set than rows: a duplicate (venue_id, hour) pair
        if np.count_nonzero(seen) != n:
            return None
    return VisitRecords(ids, venues, hours, counts)


def _parse_block(part: str, ids: dict[str, int]) -> tuple[np.ndarray, ...] | None:
    """One block of whole rows as (venue index, hour, count) columns, or None if not plain.

    The rows are read as ASCII bytes, each field one byte position at a
    time across every row of the block. Ids not in ``ids`` are added to
    it, numbered in order of first appearance.
    """
    if any(c in part for c in _NOT_PLAIN):
        return None
    try:
        raw = part.encode("ascii") + b"\n" * (not part.endswith("\n"))
    except UnicodeEncodeError:
        return None
    data = np.frombuffer(raw, np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    commas = np.flatnonzero(data == ord(","))
    if commas.size != 2 * ends.size:
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    first, second = commas[0::2], commas[1::2]
    # each row holds both of its commas, so no row has more or fewer
    id_len, hour_len, count_len = first - starts, second - first - 1, ends - second - 1
    if not (
        (id_len >= 1).all() and (id_len <= _FIELD_BYTES).all()
        and (hour_len >= 1).all()
        and (count_len >= 1).all() and (count_len <= _FIELD_BYTES).all()
    ):
        return None

    def texts(begin, end):
        """The text from each ``begin`` to its ``end``."""
        return [part[a:b] for a, b in zip(begin.tolist(), end.tolist())]

    hour_ok, hours = _integers(data, second, hour_len)
    if not (hour_ok.all() and hours.max() < WINDOW_HOURS):
        return None
    count_ok, counts = _integers(data, ends, count_len)
    counts = counts.astype(float)
    other = np.flatnonzero(~count_ok)
    if other.size:
        # the csv parser's own call, on the same text: "1e3", "0.5", "1_000", "-0", "nan"
        try:
            values = np.array([float(field) for field in texts(second[other] + 1, ends[other])])
        except ValueError:
            return None
        if not (np.isfinite(values) & (values >= 0)).all():
            return None
        counts[other] = values

    # a row starts a run unless its id has the length and the bytes of the row before;
    # past its last byte an id reads its comma
    new_run = np.ones(ends.size, dtype=bool)
    new_run[1:] = id_len[1:] != id_len[:-1]
    for k in range(int(id_len.max())):
        key = data[np.minimum(starts + k, first)]
        new_run[1:] |= key[1:] != key[:-1]
    run_starts = np.flatnonzero(new_run)
    names = texts(starts[run_starts], first[run_starts])
    run_venues = [ids.setdefault(name, len(ids)) for name in names]
    venues = np.repeat(np.array(run_venues, INDEX_DTYPE), np.diff(run_starts, append=ends.size))
    return venues, hours, counts


def _integers(data: np.ndarray, end: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, ...]:
    """Whether each field of ``length`` bytes before ``end`` is <= ``_DIGITS`` digits, and its value.

    The value is int64, first byte most significant, and meaningless
    where the field is not all digits. Byte ``k`` before each end is
    read in pass ``k``, for ``k`` below the longest field; in a field
    shorter than that it is no part of it and counts 0. Such a position
    before the first row wraps to the end of ``data``, which holds the
    longest field, so it stays in bounds.
    """
    ok = length <= _DIGITS
    value = np.zeros(end.size, np.int64)
    for k in range(min(int(length.max()), _DIGITS)):
        digit = data[end - 1 - k] - np.uint8(ord("0"))  # a byte below "0" wraps above 9
        digit[k >= length] = 0
        ok &= digit <= 9
        # an explicit int64 loop: NumPy 1.x would keep uint8 * np.int64 scalar in uint8
        value += np.multiply(digit, 10**k, dtype=np.int64)
    return ok, value


def parse_results(source: TextIO) -> list[tuple[str, str, float]]:
    """The (venue_id, name, weekly_infections) of each row of a venue_results CSV, in file order.

    The header must be exactly ``VENUE_RESULT_COLUMNS``, the one
    ``simulate`` writes.

    Raises:
        DatasetError: missing header, or one that is not
            ``VENUE_RESULT_COLUMNS``.
        RecordError: a row without one field per column, or with an empty
            venue_id, or with a weekly_infections value that is not a
            non-negative finite number.
    """
    entries = []
    for line, (venue_id, name, _, _, _, text, _) in _records(source, "results", VENUE_RESULT_COLUMNS):
        try:
            weekly = float(text)
        except ValueError:
            weekly = math.nan
        if not (math.isfinite(weekly) and weekly >= 0):
            raise RecordError(
                f"bad weekly_infections value {text!r} for venue {venue_id!r}: "
                "must be a non-negative finite number",
                line,
            )
        entries.append((venue_id, name, weekly))
    return entries


def apply_sampling_correction(counts: np.ndarray, factor: float, out=None) -> np.ndarray:
    """Multiply every visitor count by ``factor`` (panel-to-population correction).

    The products go to a new array, or, as for a NumPy ufunc, into
    ``out`` when it is given, which may be ``counts`` itself; the array
    written is returned. ``counts`` is left as it is unless it is ``out``.
    The factor must be positive and finite: it is checked where it is
    made, by :class:`~venuerisk.scenario.ScenarioConfig`.

    Raises:
        ConfigError: a product overflows; the message names the factor.
    """
    with np.errstate(over="ignore"):
        sampled = np.multiply(counts, factor, out=out)
    if not np.isfinite(sampled).all():
        raise ConfigError(f"sampling factor {factor!r} makes a visitor count overflow to infinity")
    return sampled


def compute_volumes(areas: np.ndarray, ceiling_height: float) -> np.ndarray:
    """Air volumes in m3: each floor area (m2) times ``ceiling_height`` (m).

    A product that overflows is an infinite volume: a finite dose numerator over it is 0.
    The height must be positive and finite: it is checked where it is
    made, by :class:`~venuerisk.epi.EpiParams`.
    """
    with np.errstate(over="ignore"):
        return areas * ceiling_height


# records whose venue-table rows join gathers at a time: a block's rows take 256 KiB,
# however many records a file has
_JOIN_BLOCK_RECORDS = 1 << 16


def load_visits(path: str | Path, venues: VenueTable) -> SimulationInput:
    """Parse the visit file at ``path`` and :func:`join` its records with ``venues``.

    The join runs while the file is open, so an unknown id fails naming
    the file. Only the joined records are returned: their venue column
    now holds venue-table rows, and the parsed ids go once they are
    mapped.

    Raises:
        DatasetError: an id is not in the venue table, or a
            :func:`parse_visits` error.
        RecordError: as :func:`parse_visits`.
    """
    with open_input(path) as handle:
        return join(venues, parse_visits(handle))


def join(venues: VenueTable, visits: VisitRecords) -> SimulationInput:
    """Join a venue table and visit records into a :class:`SimulationInput`; the records are spent.

    Each venue id is looked up once in ``visits.ids``, the dict the
    parser built, and the row of each venue found is put at its id's
    index. Each record's id index in ``visits.venue`` is then overwritten
    with the row of its id, ``_JOIN_BLOCK_RECORDS`` records at a time, so
    no second record-length column is made. The caller gets the records'
    own three columns back as the :class:`SimulationInput`; ``visits``
    keeps its ids, but its ``venue`` column now holds venue-table rows,
    so the records must not be used as :class:`VisitRecords` again.
    Venues with no record had no visits, so venue results stay aligned
    across scenarios. No venue is dropped and no count is invented.

    Raises:
        DatasetError: a visit record references an unknown venue_id, one
            that no venue id matched; the message lists the unknown ids
            in sorted order, up to ten of them. The records are left as
            they were.
    """
    # each venue's index among the visit ids, -1 where it has no visits
    index = np.fromiter(map(visits.ids.get, venues.ids, itertools.repeat(-1)), np.intp, len(venues))
    found = index >= 0
    rows = np.full(len(visits.ids), -1, INDEX_DTYPE)
    rows[index[found]] = np.flatnonzero(found)
    if (rows < 0).any():
        unknown = sorted(vid for vid, row in zip(visits.ids, rows.tolist()) if row < 0)
        shown = ", ".join(repr(u) for u in unknown[:10]) + (", ..." if len(unknown) > 10 else "")
        raise DatasetError(f"visit series reference {len(unknown)} unknown venue id(s): {shown}")
    # a gather into the index column itself would be buffered whole by NumPy
    for start in range(0, visits.venue.size, _JOIN_BLOCK_RECORDS):
        block = visits.venue[start:start + _JOIN_BLOCK_RECORDS]
        block[:] = rows[block]
    return SimulationInput(venues, visits.venue, visits.hour, visits.count)


def _format_count(value: float) -> str:
    # integral counts serialize without a trailing ".0"; both forms re-parse exactly
    return str(int(value)) if float(value).is_integer() else repr(value)


# the characters on which csv.writer may quote a field (the delimiter, the quote and the
# line ends), and NUL, which some Python versions' csv module rejects
_QUOTED = ',"\r\n\0'


def _plain(*columns: tuple[str, ...]) -> bool:
    """Whether no text of ``columns`` holds a ``_QUOTED`` character, so that
    ``csv.writer`` quotes none of them and a row is its fields joined by commas."""
    return not any(c in text for text in map("".join, columns) for c in _QUOTED)


# rows per join of the plain path: a block's row strings are freed once it is joined
_RENDER_BLOCK_ROWS = 1 << 12


def render_table(header: Sequence[str], columns: Sequence = (), comments: Iterable = ()) -> str:
    """The text of a CSV table: a ``# comment`` line per comment given, the header, then the rows.

    A comment that is None or empty gives no line. Each of ``columns``
    holds one entry per row, all ``str`` or all numbers; a float is
    written as its ``repr``. The text is the one a ``csv.writer`` with
    ``\\n`` line ends gives row by row, which quotes a field only where
    the ``csv`` dialect must. When the header and the text columns are
    :func:`_plain`, and a row has more than one field (``csv.writer``
    quotes a lone empty one), the rows are put together with one row
    format, joined ``_RENDER_BLOCK_ROWS`` rows at a time, so that the row
    strings of one block at most are held at once; otherwise they go
    through one ``csv.writer``.
    """
    parts = [f"# {comment}\n" for comment in comments if comment]
    texts = [column for column in columns if column and isinstance(column[0], str)]
    if columns and len(header) > 1 and _plain(header, *texts):
        row = ",".join(["{}"] * len(header)) + "\n"
        parts.append(row.format(*header))
        for start in range(0, len(columns[0]), _RENDER_BLOCK_ROWS):
            block = (column[start:start + _RENDER_BLOCK_ROWS] for column in columns)
            parts.append("".join(map(row.format, *block)))
        return "".join(parts)
    writer = csv.writer(SimpleNamespace(write=parts.append), lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*columns))
    return "".join(parts)


def write_venues(venues: VenueTable, sink: TextIO, comment: str | None = None) -> None:
    """Serialize a venue table to the documented CSV format (areas in m2)."""
    columns = [venues.ids, venues.names, venues.categories, venues.areas.tolist()]
    sink.write(render_table(VENUE_HEADER, columns, [comment]))


# UTF-8 never uses this byte, so it pads byte-table entries unambiguously
_PAD = 0xFF
# record bytes per written block: its gathered records, their mask and their text
# take a few MB, however many rows or however long the ids
_WRITE_BLOCK_BYTES = 1 << 20


def _byte_table(texts: list[str]) -> np.ndarray:
    """The UTF-8 encodings of ``texts`` as one fixed-width void item each, padded with ``_PAD``."""
    encoded = [text.encode() for text in texts]
    lengths = np.fromiter(map(len, encoded), np.intp, len(encoded))
    width = int(lengths.max())
    table = np.full((len(encoded), width), _PAD, dtype=np.uint8)
    table[np.arange(width) < lengths[:, None]] = np.frombuffer(b"".join(encoded), np.uint8)
    return table.view(f"V{width}").ravel()


def _id_fields(ids: tuple[str, ...]) -> list[str]:
    """Each id as the first field of a ``csv.writer`` row, with its comma: ``"id,"``."""
    if _plain(ids):
        return [f"{vid}," for vid in ids]
    # one quoted "id," plus the line end per venue: writerow makes one write call
    # per row, so nothing is split on lines (an id may hold a newline)
    parts: list[str] = []
    writer = csv.writer(SimpleNamespace(write=parts.append), lineterminator="\n")
    writer.writerows((vid, "") for vid in ids)
    return [part[:-1] for part in parts]


def write_visits(table: SimulationInput, sink: TextIO, comment: str | None = None) -> None:
    """Serialize a table's visit records to the documented CSV format, one row per record.

    Rows follow record order: venue order, then hour, for the records of
    :func:`~venuerisk.synthetic.generate_dataset`, which has one for each
    non-zero draw. Parsing and joining give the same records back.

    Each row is ``id,hour,count``, put together from three byte tables:
    every venue id as the ``csv`` dialect of the header writes it
    (``"id,"``, by :func:`_id_fields`: the id itself when the ids are
    :func:`_plain`, as in :func:`render_table`), every hour
    (``"hour,"``) and every distinct count through :func:`_format_count`
    (``"count\\n"``). The distinct counts are the sorted counts with
    each run of equal values kept once. The rows are gathered from these
    tables as fixed-width records, in blocks of about
    ``_WRITE_BLOCK_BYTES``, each block's counts looked up among the
    distinct ones on their own, and the padding is dropped; each block's
    text goes to ``sink`` in one write. So the text is the one a
    ``csv.writer`` gives row by row, and no temporary is larger than a
    block but the sorted counts, which are freed before the first block.
    """
    sink.write(render_table(VISIT_HEADER, comments=[comment]))
    if not table.count.size:
        return
    # not np.unique, whose first call imports numpy.ma
    values = np.sort(table.count)
    values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    # the id texts are freed here, not held while the rows are written
    id_table = _byte_table(_id_fields(table.venues.ids))
    hour_table = _byte_table([f"{h}," for h in range(WINDOW_HOURS)])
    count_table = _byte_table([f"{_format_count(v)}\n" for v in values.tolist()])
    record = np.dtype(
        [("id", id_table.dtype), ("hour", hour_table.dtype), ("count", count_table.dtype)]
    )
    step = max(1, _WRITE_BLOCK_BYTES // record.itemsize)
    for start in range(0, table.count.size, step):
        rows = slice(start, start + step)
        block = np.empty(table.row[rows].size, record)
        block["id"] = id_table[table.row[rows]]
        block["hour"] = hour_table[table.hour[rows]]
        # each count's place among the sorted distinct values; 3x faster than return_inverse
        block["count"] = count_table[np.searchsorted(values, table.count[rows])]
        raw = block.view(np.uint8)
        sink.write(raw[raw != _PAD].tobytes().decode())
