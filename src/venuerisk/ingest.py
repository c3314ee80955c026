"""Venue and visit ingestion.

Two CSV formats are understood, both UTF-8 with a mandatory header:

* venue file:  ``venue_id,name,category,area``
* visit file:  ``venue_id,hour,count``  (``hour`` is a 0-based offset
  from the start of the simulation window)

Lines starting with ``#`` before the header are treated as comments, so
generated files can carry a provenance stamp. Visitor counts are kept as
real numbers throughout: sampling correction and occupancy capping act
on expected values, not on whole people.

All functions here are pure. A parsed venue table is a dict of frozen
:class:`Venue` records keyed by venue id; :func:`join` turns it and the
parsed visits into one :class:`SimulationInput`, whose float64
``counts[venue, hour]`` matrix carries the visitor counts, row ``i``
belonging to the ``i``-th venue of the table.
"""

from __future__ import annotations

import contextlib
import csv
import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, TextIO

import numpy as np

from .errors import DatasetError, RecordError, error_context

SQFT_TO_SQM = 0.09290304

VENUE_HEADER = ("venue_id", "name", "category", "area")
VISIT_HEADER = ("venue_id", "hour", "count")


class AreaUnit(enum.Enum):
    """Unit of the ``area`` column in a venue file."""

    SQUARE_METERS = "m2"
    SQUARE_FEET = "ft2"


@dataclass(frozen=True)
class Venue:
    """An establishment with a floor area in m2."""

    venue_id: str
    name: str
    category: str
    area: float

    def __post_init__(self):
        if not self.venue_id:
            raise ValueError("venue_id must be non-empty")
        if not (math.isfinite(self.area) and self.area > 0):
            raise ValueError(f"venue {self.venue_id!r}: area must be positive, got {self.area}")


@dataclass(frozen=True, eq=False)
class SimulationInput:
    """A venue table and its visitor counts, one matrix row per venue.

    ``counts[i, h]`` is the expected number of visitors of the ``i``-th
    venue of ``venues`` in hour ``h`` of the window.
    ``sampling_factor_applied`` is an audit field recording the total
    panel-sampling correction already baked into the counts (1.0 means
    the counts are as-read).
    """

    venues: Mapping[str, Venue]
    counts: np.ndarray
    sampling_factor_applied: float = 1.0

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

    @property
    def areas(self) -> np.ndarray:
        """Floor areas in m2, in row order."""
        return np.fromiter((v.area for v in self.venues.values()), float, len(self.venues))


@contextlib.contextmanager
def open_input(path: str | Path):
    """Open a UTF-8 input file (BOM dropped); InputErrors raised while it is open name the file."""
    with open(path, encoding="utf-8-sig") as handle, error_context(str(path)):
        yield handle


def _data_rows(source: TextIO):
    """Yield (line_number, row) pairs, skipping blank and comment lines."""
    reader = csv.reader(source)
    for row in reader:
        if not row or row[0].startswith("#"):
            continue
        yield reader.line_num, row


def parse_venues(source: TextIO, area_unit: AreaUnit | str = AreaUnit.SQUARE_METERS) -> dict[str, Venue]:
    """Parse a venue CSV into a table keyed by venue_id, areas in m2.

    Args:
        source: character stream of the venue file.
        area_unit: unit of the ``area`` column; square feet are converted
            with 1 ft2 = 0.09290304 m2.

    Raises:
        RecordError: malformed row, non-positive area (with line number).
        DatasetError: missing or bad header, or duplicate venue_id.
    """
    unit = AreaUnit(area_unit)
    rows = _data_rows(source)
    first = next(rows, None)
    if first is None:
        raise DatasetError(f"venue file has no header: expected {','.join(VENUE_HEADER)!r}")
    if tuple(f.strip() for f in first[1]) != VENUE_HEADER:
        raise DatasetError(
            f"venue file header must be {','.join(VENUE_HEADER)!r}, got {','.join(first[1])!r}"
        )

    venues: dict[str, Venue] = {}
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
        if unit is AreaUnit.SQUARE_FEET:
            area *= SQFT_TO_SQM
        if venue_id in venues:
            raise DatasetError(f"duplicate venue_id {venue_id!r}")
        venues[venue_id] = Venue(venue_id=venue_id, name=name, category=category, area=area)
    return venues


def parse_visits(source: TextIO, window_hours: int) -> dict[str, np.ndarray]:
    """Parse a visit CSV into one row of ``window_hours`` counts per venue id.

    Hours absent from the file are filled with 0: sparse mobility data
    routinely omits zero-visit hours. Counts are returned as-read, with
    no sampling correction. A header with no rows is a legal file with
    no visits (a total closure).

    Raises:
        RecordError: malformed row, hour outside [0, window_hours),
            negative count, or a duplicate (venue_id, hour) pair.
        DatasetError: missing or bad header.
    """
    if window_hours < 1:
        raise ValueError(f"window_hours must be >= 1, got {window_hours}")
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


def apply_sampling_correction(counts: np.ndarray, factor: float) -> np.ndarray:
    """Multiply every visitor count by ``factor`` (panel-to-population correction).

    The factor itself is recorded on the :class:`SimulationInput`
    (``sampling_factor_applied``), not in the counts.
    """
    if not (math.isfinite(factor) and factor > 0):
        raise ValueError(f"sampling factor must be positive and finite, got {factor}")
    return counts * factor


def compute_volumes(areas: np.ndarray, ceiling_height: float) -> np.ndarray:
    """Air volumes in m3: each floor area (m2) times ``ceiling_height`` (m)."""
    if not (math.isfinite(ceiling_height) and ceiling_height > 0):
        raise ValueError(f"ceiling height must be positive, got {ceiling_height}")
    return areas * ceiling_height


def join(
    venues: Mapping[str, Venue], visits: Mapping[str, np.ndarray], window_hours: int
) -> SimulationInput:
    """Join a venue table and per-venue count rows into a :class:`SimulationInput`.

    Venues with no visit row get an all-zero row, so that venue counts
    stay aligned across scenarios. No venue is dropped and no count is
    invented.

    Raises:
        DatasetError: a visit row references an unknown venue_id, or a
            row length disagrees with ``window_hours``.
    """
    if window_hours < 1:
        raise ValueError(f"window_hours must be >= 1, got {window_hours}")
    unknown = sorted(set(visits) - set(venues))
    if unknown:
        shown = ", ".join(repr(u) for u in unknown[:10]) + (", ..." if len(unknown) > 10 else "")
        raise DatasetError(f"visit series reference {len(unknown)} unknown venue id(s): {shown}")
    counts = np.zeros((len(venues), window_hours))
    if visits:
        try:
            given = np.array(list(visits.values()), dtype=float).reshape(len(visits), window_hours)
        except ValueError:
            raise DatasetError(
                f"visit series length differs from the window of {window_hours} hours"
            ) from None
        row_of = dict(zip(venues, range(len(venues))))
        counts[[row_of[vid] for vid in visits]] = given
    return SimulationInput(venues=dict(venues), counts=counts)


def _format_count(value: float) -> str:
    # integral counts serialize without a trailing ".0"; both forms re-parse exactly
    return str(int(value)) if float(value).is_integer() else repr(value)


def write_venues(venues: Iterable[Venue], sink: TextIO, comment: str | None = None) -> None:
    """Serialize venues to the documented CSV format (areas in m2)."""
    if comment:
        sink.write(f"# {comment}\n")
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(VENUE_HEADER)
    for v in venues:
        writer.writerow([v.venue_id, v.name, v.category, repr(v.area)])


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
    ids = list(table.venues)
    writer.writerows(
        zip(
            map(ids.__getitem__, rows.tolist()),
            hours.tolist(),
            map(_format_count, table.counts[rows, hours].tolist()),
        )
    )
