"""Venue and visit ingestion.

Two CSV formats are understood, both UTF-8 with a mandatory header:

* venue file:  ``venue_id,name,category,area``
* visit file:  ``venue_id,hour,count``  (``hour`` is a 0-based offset
  from the start of the simulation window)

Lines starting with ``#`` before the header are treated as comments, so
generated files can carry a provenance stamp. Visitor counts are kept as
real numbers throughout: sampling correction and occupancy capping act
on expected values, not on whole people.

All functions here are pure; parsed tables are plain dicts of frozen
dataclasses keyed by venue id.
"""

from __future__ import annotations

import contextlib
import csv
import enum
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, TextIO

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
    """An establishment with a floor area in m2 and a derived air volume in m3.

    ``volume`` stays ``None`` until :func:`compute_volumes` fills it in
    from the active ceiling height.
    """

    venue_id: str
    name: str
    category: str
    area: float
    volume: float | None = None

    def __post_init__(self):
        if not self.venue_id:
            raise ValueError("venue_id must be non-empty")
        if not (math.isfinite(self.area) and self.area > 0):
            raise ValueError(f"venue {self.venue_id!r}: area must be positive, got {self.area}")
        if self.volume is not None and not (math.isfinite(self.volume) and self.volume > 0):
            raise ValueError(f"venue {self.venue_id!r}: volume must be positive, got {self.volume}")


@dataclass(frozen=True)
class VisitSeries:
    """Hourly visitor counts for one venue over the simulation window."""

    venue_id: str
    hourly_counts: tuple[float, ...]

    def __post_init__(self):
        for h, c in enumerate(self.hourly_counts):
            if not (math.isfinite(c) and c >= 0):
                raise ValueError(
                    f"venue {self.venue_id!r}: count at hour {h} must be a "
                    f"non-negative finite number, got {c}"
                )

    def __len__(self) -> int:
        return len(self.hourly_counts)


@dataclass(frozen=True)
class SimulationInput:
    """Joined, simulation-ready venue and visit tables.

    ``sampling_factor_applied`` is an audit field recording the total
    panel-sampling correction already baked into the counts (1.0 means
    the counts are as-read).
    """

    venues: Mapping[str, Venue]
    visits: Mapping[str, VisitSeries]
    window_hours: int
    sampling_factor_applied: float = 1.0


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


def parse_visits(source: TextIO, window_hours: int) -> dict[str, VisitSeries]:
    """Parse a visit CSV into per-venue hourly series of length ``window_hours``.

    Hours absent from the file are filled with 0: sparse mobility data
    routinely omits zero-visit hours. Counts are returned as-read, with
    no sampling correction.

    Raises:
        RecordError: malformed row, hour outside [0, window_hours),
            negative count, or a duplicate (venue_id, hour) pair.
        DatasetError: bad header.
    """
    if window_hours < 1:
        raise ValueError(f"window_hours must be >= 1, got {window_hours}")
    rows = _data_rows(source)
    first = next(rows, None)
    if first is None:
        return {}
    if tuple(f.strip() for f in first[1]) != VISIT_HEADER:
        raise DatasetError(
            f"visit file header must be {','.join(VISIT_HEADER)!r}, got {','.join(first[1])!r}"
        )

    counts: dict[str, list[float]] = {}
    seen: set[tuple[str, int]] = set()
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
        if (venue_id, hour) in seen:
            raise RecordError(f"duplicate hour {hour} for venue {venue_id!r}", line)
        seen.add((venue_id, hour))
        counts.setdefault(venue_id, [0.0] * window_hours)[hour] = count

    return {vid: VisitSeries(vid, tuple(vals)) for vid, vals in counts.items()}


def apply_sampling_correction(
    visits: Mapping[str, VisitSeries], factor: float
) -> dict[str, VisitSeries]:
    """Multiply every hourly count by ``factor`` (panel-to-population correction).

    The factor itself is recorded on the joined :class:`SimulationInput`,
    not on the individual series; pass it through to :func:`join`.
    """
    if not (math.isfinite(factor) and factor > 0):
        raise ValueError(f"sampling factor must be positive and finite, got {factor}")
    return {
        vid: replace(vs, hourly_counts=tuple(c * factor for c in vs.hourly_counts))
        for vid, vs in visits.items()
    }


def compute_volumes(venues: Mapping[str, Venue], ceiling_height: float) -> dict[str, Venue]:
    """Set every venue's air volume to area * ceiling_height (m3).

    Idempotent: volume is always recomputed from the stored area.
    """
    if not (math.isfinite(ceiling_height) and ceiling_height > 0):
        raise ValueError(f"ceiling height must be positive, got {ceiling_height}")
    return {vid: replace(v, volume=v.area * ceiling_height) for vid, v in venues.items()}


def join(
    venues: Mapping[str, Venue],
    visits: Mapping[str, VisitSeries],
    window_hours: int,
    sampling_factor_applied: float = 1.0,
) -> SimulationInput:
    """Join venue and visit tables into a :class:`SimulationInput`.

    Venues with no visit series get an implicit all-zero series so that
    venue counts stay aligned across scenarios. No venue is dropped and
    no count is invented.

    Raises:
        DatasetError: a visit series references an unknown venue_id, or
            a series length disagrees with ``window_hours``.
    """
    if window_hours < 1:
        raise ValueError(f"window_hours must be >= 1, got {window_hours}")
    unknown = sorted(set(visits) - set(venues))
    if unknown:
        shown = ", ".join(repr(u) for u in unknown[:10]) + (", ..." if len(unknown) > 10 else "")
        raise DatasetError(f"visit series reference {len(unknown)} unknown venue id(s): {shown}")
    full: dict[str, VisitSeries] = {}
    for vid in venues:
        series = visits.get(vid)
        if series is None:
            series = VisitSeries(venue_id=vid, hourly_counts=(0.0,) * window_hours)
        elif len(series) != window_hours:
            raise DatasetError(
                f"venue {vid!r}: series length {len(series)} != window of {window_hours} hours"
            )
        full[vid] = series
    return SimulationInput(
        venues=dict(venues),
        visits=full,
        window_hours=window_hours,
        sampling_factor_applied=sampling_factor_applied,
    )


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


def write_visits(visits: Iterable[VisitSeries], sink: TextIO, comment: str | None = None) -> None:
    """Serialize visit series to the documented CSV format.

    Zero-count hours are omitted; parsing zero-fills them, so the round
    trip is exact.
    """
    if comment:
        sink.write(f"# {comment}\n")
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(VISIT_HEADER)
    for series in visits:
        for hour, count in enumerate(series.hourly_counts):
            if count != 0:
                writer.writerow([series.venue_id, hour, _format_count(count)])
