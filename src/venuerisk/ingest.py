"""Ingestion of venue and visit files.

Two CSV formats are understood, both UTF-8 with a mandatory header:

* venue file:  ``venue_id,name,category,area``
* visit file:  ``venue_id,hour,count``  (``hour`` is a 0-based offset
  from the start of the simulation window)

Lines starting with ``#`` before the header are comments, so generated
files can carry a provenance stamp; after the header every non-blank
line is a record. Visitor counts are real numbers throughout: sampling
correction and occupancy capping act on expected values, not people.

Visit files are parsed by NumPy's C reader when they are plain (the
exact header, no quoting, no padding, every value valid), which covers
every file :func:`write_visits` writes. Any other file goes through the
row-by-row ``csv`` parser, which defines what is accepted, every value
and every error message; a property test holds the two to the same
results.

All functions here are pure. A parsed venue file is one
:class:`VenueTable` of columns (ids, names, categories and float64 floor
areas in m2) in file order; :func:`join` turns it and the parsed visits
into one :class:`SimulationInput`, whose float64 ``counts[venue, hour]``
matrix carries the visitor counts, row ``i`` for the ``i``-th venue.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, TextIO

import numpy as np

from .errors import DatasetError, RecordError, error_context

SQFT_TO_SQM = 0.09290304
# factor from each accepted unit of a venue file's ``area`` column to m2
AREA_UNITS = {"m2": 1.0, "ft2": SQFT_TO_SQM}

VENUE_HEADER = ("venue_id", "name", "category", "area")
VISIT_HEADER = ("venue_id", "hour", "count")


@dataclass(frozen=True, eq=False)
class VenueTable:
    """Establishments as columns, one row per venue: ids, names, categories and floor areas in m2.

    Iterating yields the ids in row order and ``len`` is the venue count,
    as for a dict keyed by venue id.
    """

    ids: tuple[str, ...]
    names: tuple[str, ...]
    categories: tuple[str, ...]
    areas: np.ndarray

    def __post_init__(self):
        n = len(self.ids)
        if not (len(self.names) == len(self.categories) == n and np.shape(self.areas) == (n,)):
            raise ValueError(f"every venue column must have one entry per venue id ({n})")
        if not all(self.ids) or len(set(self.ids)) != n:
            raise ValueError("venue ids must be non-empty and unique")
        if not (np.isfinite(self.areas) & (self.areas > 0)).all():
            raise ValueError(f"venue areas must be positive and finite, got {self.areas.min()}")

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids)


@dataclass(frozen=True, eq=False)
class SimulationInput:
    """A venue table and its visitor counts, one matrix row per venue.

    ``counts[i, h]`` is the expected number of visitors of the ``i``-th
    venue of ``venues`` in hour ``h`` of the window.
    """

    venues: VenueTable
    counts: np.ndarray

    def __post_init__(self):
        if self.counts.ndim != 2 or self.counts.shape[0] != len(self.venues):
            raise ValueError(
                f"counts must have one row per venue ({len(self.venues)}), "
                f"got shape {self.counts.shape}"
            )
        if not (np.isfinite(self.counts).all() and (self.counts >= 0).all()):
            raise ValueError("visitor counts must be non-negative finite numbers")

    @property
    def window_hours(self) -> int:
        return self.counts.shape[1]


@contextlib.contextmanager
def open_input(path: str | Path):
    """Open a UTF-8 input file (BOM dropped); InputErrors raised while it is open name the file."""
    with open(path, encoding="utf-8-sig") as handle, error_context(str(path)):
        yield handle


def _data_rows(source: TextIO):
    """Yield (line_number, row) pairs, skipping blank lines and ``#`` lines before the header."""
    reader = csv.reader(source)
    header_seen = False
    for row in reader:
        if row and (header_seen or not row[0].startswith("#")):
            header_seen = True
            yield reader.line_num, row


def parse_venues(source: TextIO, area_unit: str = "m2") -> VenueTable:
    """Parse a venue CSV into a :class:`VenueTable` in file order, areas in m2.

    Args:
        source: character stream of the venue file.
        area_unit: unit of the ``area`` column, a key of ``AREA_UNITS``;
            square feet are converted with 1 ft2 = 0.09290304 m2.

    Raises:
        RecordError: malformed row, non-positive area (with line number).
        DatasetError: missing or bad header, or duplicate venue_id.
        ValueError: unknown ``area_unit``.
    """
    if area_unit not in AREA_UNITS:
        raise ValueError(f"area unit must be one of {', '.join(AREA_UNITS)}, got {area_unit!r}")
    rows = _data_rows(source)
    first = next(rows, None)
    if first is None:
        raise DatasetError(f"venue file has no header: expected {','.join(VENUE_HEADER)!r}")
    if tuple(f.strip() for f in first[1]) != VENUE_HEADER:
        raise DatasetError(
            f"venue file header must be {','.join(VENUE_HEADER)!r}, got {','.join(first[1])!r}"
        )

    ids, names, categories, areas = [], [], [], []
    seen = set()
    for line, row in rows:
        if len(row) != 4:
            raise RecordError(f"expected 4 fields, got {len(row)}", line)
        venue_id, name, category, area_text = (f.strip() for f in row)
        if not venue_id:
            raise RecordError("venue_id is empty", line)
        try:
            area = float(area_text)
        except ValueError:
            raise RecordError(f"area {area_text!r} is not a number", line) from None
        if not math.isfinite(area) or area <= 0:
            raise RecordError(f"area must be positive and finite, got {area_text}", line)
        if venue_id in seen:
            raise DatasetError(f"duplicate venue_id {venue_id!r}")
        seen.add(venue_id)
        ids.append(venue_id)
        names.append(name)
        categories.append(category)
        areas.append(area)
    # one multiply of the column: the same IEEE products as converting row by row
    areas_m2 = np.array(areas, dtype=float) * AREA_UNITS[area_unit]
    return VenueTable(tuple(ids), tuple(names), tuple(categories), areas_m2)


def parse_visits(source: TextIO, window_hours: int) -> dict[str, np.ndarray]:
    """Parse a visit CSV into one row of ``window_hours`` counts per venue id.

    Hours absent from the file are filled with 0: sparse mobility data
    routinely omits zero-visit hours. Counts are returned as-read, with
    no sampling correction. A header with no rows is a legal file with
    no visits (a total closure). Keys follow the order in which venue
    ids first appear.

    The text is read once. NumPy's C reader parses it when the file is
    plain (see :func:`_parse_visits_fast`); any other file, and every
    file with an error, goes through the row-by-row ``csv`` parser, so
    the accepted files, the values and the line-numbered errors are
    exactly that parser's.

    Raises:
        RecordError: malformed row, hour outside [0, window_hours),
            negative count, or a duplicate (venue_id, hour) pair.
        DatasetError: missing or bad header.
    """
    if window_hours < 1:
        raise ValueError(f"window_hours must be >= 1, got {window_hours}")
    text = source.read()
    fast = _parse_visits_fast(text, window_hours)
    return fast if fast is not None else _parse_visits_csv(io.StringIO(text), window_hours)


def _parse_visits_csv(source: TextIO, window_hours: int) -> dict[str, np.ndarray]:
    """Row-by-row parse of a visit CSV: the reference for every result and error."""
    rows = _data_rows(source)
    first = next(rows, None)
    if first is None:
        raise DatasetError(f"visit file has no header: expected {','.join(VISIT_HEADER)!r}")
    if tuple(f.strip() for f in first[1]) != VISIT_HEADER:
        raise DatasetError(
            f"visit file header must be {','.join(VISIT_HEADER)!r}, got {','.join(first[1])!r}"
        )

    # NaN marks an hour not read yet, so a second row for it is caught
    # without a set of every (venue, hour) key
    counts: dict[str, list[float]] = {}
    for line, row in rows:
        if len(row) != 3:
            raise RecordError(f"expected 3 fields, got {len(row)}", line)
        venue_id, hour_text, count_text = (f.strip() for f in row)
        if not venue_id:
            raise RecordError("venue_id is empty", line)
        try:
            hour = int(hour_text)
        except ValueError:
            raise RecordError(f"hour {hour_text!r} is not an integer", line) from None
        if not 0 <= hour < window_hours:
            raise RecordError(f"hour {hour} outside [0, {window_hours})", line)
        try:
            count = float(count_text)
        except ValueError:
            raise RecordError(f"count {count_text!r} is not a number", line) from None
        if not math.isfinite(count) or count < 0:
            raise RecordError(f"count must be non-negative and finite, got {count_text}", line)
        series = counts.get(venue_id)
        if series is None:
            series = counts[venue_id] = [math.nan] * window_hours
        elif not math.isnan(series[hour]):
            raise RecordError(f"duplicate hour {hour} for venue {venue_id!r}", line)
        series[hour] = count

    matrix = np.array(list(counts.values()), dtype=float).reshape(-1, window_hours)
    np.nan_to_num(matrix, copy=False)
    return dict(zip(counts, matrix))


# the exact header line, and the body characters on which csv.reader and
# NumPy's reader may part ways: quoting, comments, NUL, and every ASCII
# character str.strip() removes from a field (line ends other than "\n" too)
_VISIT_HEADER_LINE = ",".join(VISIT_HEADER) + "\n"
_NOT_PLAIN = '"#\0 \t\r\v\f\x1c\x1d\x1e\x1f'
_ID_BYTES = 32
_VISIT_DTYPE = [("id", f"S{_ID_BYTES}"), ("hour", "i8"), ("count", "f8")]


def _parse_visits_fast(text: str, window_hours: int) -> dict[str, np.ndarray] | None:
    """Parse a plain visit file with ``np.loadtxt``; None unless sure of the csv parser's result.

    Plain is: leading ``#`` lines, the exact header line, then ASCII rows
    with none of ``_NOT_PLAIN``, every id 1 to 31 bytes, every hour in
    the window, every count finite and non-negative and no (venue_id,
    hour) pair twice. NumPy's warnings count as failures, so a lenient
    reading (such as an old NumPy parsing ``5.0`` as an integer) is
    never taken.
    """
    start = 0
    while text.startswith("#", start):
        start = text.find("\n", start) + 1
        if not start:
            return None
    # a quote or a carriage return can make csv.reader run a comment line into the
    # next, and some Python versions' csv.reader rejects a NUL
    if any(c in text[:start] for c in '"\r\0') or not text.startswith(_VISIT_HEADER_LINE, start):
        return None
    body = text[start + len(_VISIT_HEADER_LINE):]
    if not body.isascii() or any(c in body for c in _NOT_PLAIN):
        return None
    if not body:
        return {}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(
                io.StringIO(body), dtype=_VISIT_DTYPE, delimiter=",", comments=None, ndmin=1
            )
    except (ValueError, Warning):
        return None

    ids, hours, counts = rows["id"], rows["hour"], rows["count"]
    # the id is the first field of each packed record: its first byte is 0 for an
    # empty id and its last byte is not 0 for an id that may have been truncated
    id_bytes = rows.view(np.uint8).reshape(len(rows), -1)[:, :_ID_BYTES]
    if not (
        id_bytes[:, 0].all()
        and not id_bytes[:, -1].any()
        and hours.min() >= 0
        and hours.max() < window_hours
        and np.isfinite(counts).all()
        and counts.min() >= 0
    ):
        return None

    # one dict lookup per run of equal ids; keys in order of first appearance
    starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    row_of: dict[str, int] = {}
    run_rows = [row_of.setdefault(vid.decode(), len(row_of)) for vid in ids[starts].tolist()]
    cells = np.repeat(run_rows, np.diff(starts, append=len(rows))) * window_hours + hours
    seen = np.zeros(len(row_of) * window_hours, dtype=bool)
    seen[cells] = True
    if np.count_nonzero(seen) != len(rows):
        return None  # a duplicate (venue_id, hour) pair
    matrix = np.zeros((len(row_of), window_hours))
    matrix.reshape(-1)[cells] = counts
    return dict(zip(row_of, matrix))


def apply_sampling_correction(counts: np.ndarray, factor: float) -> np.ndarray:
    """Multiply every visitor count by ``factor`` (panel-to-population correction)."""
    if not (math.isfinite(factor) and factor > 0):
        raise ValueError(f"sampling factor must be positive and finite, got {factor}")
    return counts * factor


def compute_volumes(areas: np.ndarray, ceiling_height: float) -> np.ndarray:
    """Air volumes in m3: each floor area (m2) times ``ceiling_height`` (m)."""
    if not (math.isfinite(ceiling_height) and ceiling_height > 0):
        raise ValueError(f"ceiling height must be positive, got {ceiling_height}")
    return areas * ceiling_height


def join(
    venues: VenueTable, visits: Mapping[str, np.ndarray], window_hours: int
) -> SimulationInput:
    """Join a venue table and per-venue count rows into a :class:`SimulationInput`.

    Venues with no visit row get an all-zero row, so that venue counts
    stay aligned across scenarios. No venue is dropped and no count is
    invented.

    Raises:
        DatasetError: a visit row references an unknown venue_id, or a
            row's shape is not ``(window_hours,)``.
    """
    if window_hours < 1:
        raise ValueError(f"window_hours must be >= 1, got {window_hours}")
    row_of = dict(zip(venues, range(len(venues))))
    unknown = sorted(vid for vid in visits if vid not in row_of)
    if unknown:
        shown = ", ".join(repr(u) for u in unknown[:10]) + (", ..." if len(unknown) > 10 else "")
        raise DatasetError(f"visit series reference {len(unknown)} unknown venue id(s): {shown}")
    counts = np.zeros((len(venues), window_hours))
    for vid, row in visits.items():
        # checked first: NumPy would broadcast a one-hour row across the whole window
        if row.shape != (window_hours,):
            raise DatasetError(
                f"visit series length differs from the window of {window_hours} hours"
            )
        counts[row_of[vid]] = row
    return SimulationInput(venues=venues, counts=counts)


def _format_count(value: float) -> str:
    # integral counts serialize without a trailing ".0"; both forms re-parse exactly
    return str(int(value)) if float(value).is_integer() else repr(value)


def write_venues(venues: VenueTable, sink: TextIO, comment: str | None = None) -> None:
    """Serialize a venue table to the documented CSV format (areas in m2)."""
    if comment:
        sink.write(f"# {comment}\n")
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(VENUE_HEADER)
    writer.writerows(
        zip(venues.ids, venues.names, venues.categories, map(repr, venues.areas.tolist()))
    )


def write_visits(table: SimulationInput, sink: TextIO, comment: str | None = None) -> None:
    """Serialize a table's visitor counts to the documented CSV format.

    Rows follow venue order, then hour. Zero-count hours are omitted;
    parsing and joining zero-fill them, so the round trip is exact.
    """
    if comment:
        sink.write(f"# {comment}\n")
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(VISIT_HEADER)
    rows, hours = np.nonzero(table.counts)
    writer.writerows(
        zip(
            map(table.venues.ids.__getitem__, rows.tolist()),
            hours.tolist(),
            map(_format_count, table.counts[rows, hours].tolist()),
        )
    )
