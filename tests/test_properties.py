"""Property tests of the array pipeline against its scalar references, and of the
t-test's incomplete beta function against a 50-digit one.

Examples are derandomized, so every run checks the same cases.
"""

import contextlib
import csv
import dataclasses
import io
import math
import tempfile
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from venuerisk import (
    EpiParams,
    ScenarioConfig,
    cli,
    epi,
    ingest,
    max_distanced_occupancy,
    run_scenario,
    simulate_week,
    wells_riley_probability,
)
from venuerisk.epi import hourly_infections
from venuerisk.errors import DatasetError
from venuerisk.ingest import (
    HOTSPOT_COLUMNS,
    VENUE_RESULT_COLUMNS,
    WINDOW_HOURS,
    VenueTable,
    VisitRecords,
    _parse_visits_csv,
    apply_sampling_correction,
    compute_volumes,
    join,
    parse_venues,
    parse_visits,
    write_venues,
    write_visits,
)
from venuerisk.reporting import build_manifest, venue_results_csv
from venuerisk.scenario import apply_occupancy_cap
from venuerisk.stats import combined_range, histogram, regularized_incomplete_beta
from conftest import (
    dense_counts,
    dense_hourly_infections,
    dense_weekly,
    hourly_of,
    input_from_matrix,
    input_from_records,
    make_venues,
    narrowest_count_dtype,
    parse_outcome,
    record_columns,
    record_ids,
    record_rows_of,
    runs_of,
    same_venues,
    window_counts,
)

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)

params_st = st.builds(
    EpiParams,
    documented_prevalence=st.floats(0.0, 0.1),
    q=st.floats(0.5, 200.0),
    p=st.floats(0.05, 3.0),
    ach=st.floats(0.5, 20.0),
    ceiling_height=st.floats(2.0, 10.0),
    t=st.floats(0.1, 12.0),
    underreport_factor=st.floats(1.0, 30.0),
)
# zeros are common in real traffic, so draw them on purpose
count_st = st.one_of(st.just(0.0), st.floats(0.0, 500.0), st.floats(0.0, 1e-6))


# ids a venue file carries back (no surrounding whitespace, no carriage return: the
# reading's rule, see ingest), with csv quoting, "#" at the start of a record and
# non-ASCII text
id_st = st.one_of(
    st.text(max_size=64),
    st.text(st.sampled_from(',"\n#x \u00e9\u20ac\U0001f600'), max_size=64),
    st.text(max_size=63).map("#".__add__),
).filter(lambda v: v and v == v.strip() and "\r" not in v)


@st.composite
def tables(draw, max_venues=5, max_hours=12, ids=None, counts=count_st):
    """A SimulationInput of up to ``max_hours`` records per venue, each venue's hours in any
    order, zeros included."""
    n = draw(st.integers(1, max_venues))
    areas = draw(st.lists(st.floats(0.5, 5000.0), min_size=n, max_size=n))
    venue_ids = [f"v{i}" for i in range(n)] if ids is None else draw(
        st.lists(ids, min_size=n, max_size=n, unique=True)
    )
    venues = make_venues(dict(zip(venue_ids, areas)))
    # hours near the window's edges are drawn more often than their share
    hour_st = st.one_of(st.sampled_from([0, 1, WINDOW_HOURS - 1]), st.integers(0, WINDOW_HOURS - 1))
    cells = draw(st.lists(
        st.tuples(st.integers(0, n - 1), hour_st), unique=True, max_size=n * max_hours
    ))
    rows = [row for row, _ in cells]
    hours = [hour for _, hour in cells]
    return input_from_records(
        venues, rows, hours, draw(arrays(np.float64, len(cells), elements=counts))
    )


def ulps(got, want):
    return abs(got - want) / math.ulp(want) if want else abs(got) / math.ulp(0.0)


@PROPERTY
@given(
    params_st,
    arrays(np.int64, (3, 7), elements=st.integers(-30, 13)),
    arrays(np.float64, 3, elements=st.floats(0.1, 1e5)),
)
def test_array_probability_within_one_ulp_of_scalar(params, exponents, volumes):
    # at prevalence 1/2, 2^(k+1) visitors are 2^k infectors and 2^k susceptibles, so
    # each hourly value is 2^k times the kernel's probability, exactly
    params = dataclasses.replace(params, documented_prevalence=0.5, underreport_factor=1.0)
    infectors = np.ldexp(1.0, exponents)
    probability = hourly_infections(2.0 * infectors, volumes[:, None], params) / infectors
    for (i, h), got in np.ndenumerate(probability):
        want = wells_riley_probability(infectors[i, h].item(), params, volumes[i].item())
        assert ulps(got.item(), want) <= 1


@PROPERTY
@given(tables(), params_st)
def test_infections_within_two_ulp_of_scalar_cohort(table, params):
    volumes = (table.venues.areas * params.ceiling_height)[record_rows_of(table)]
    hourly = hourly_infections(table.count, volumes, params)
    prevalence = params.effective_prevalence
    for visitors, volume, got in zip(table.count.tolist(), volumes.tolist(), hourly):
        infectors = visitors * prevalence
        want = (visitors - infectors) * wells_riley_probability(infectors, params, volume)
        assert ulps(got.item(), want) <= 2


def with_a_full_week(table, rng):
    """``table`` with a record at every hour of its first venue, of mostly distinct
    counts, and each venue's records in shuffled order: a row sum of 168 values shows the
    order in which they are added."""
    row = record_rows_of(table)
    keep = row != 0
    rows = np.concatenate([row[keep], np.zeros(WINDOW_HOURS, np.intp)])
    hours = np.concatenate([table.hour[keep], np.arange(WINDOW_HOURS, dtype=np.uint8)])
    week = [rng.choice([0.0, rng.uniform(0.0, 500.0)]) for _ in range(WINDOW_HOURS)]
    counts = np.concatenate([table.count[keep], week])
    order = list(range(len(rows)))
    rng.shuffle(order)
    return input_from_records(table.venues, rows[order], hours[order], counts[order])


@PROPERTY
@given(
    tables(max_venues=9, max_hours=40), params_st, st.floats(0.5, 20.0),
    st.none() | st.floats(0.3, 4.0), st.sampled_from([1, 7, epi._BLOCK_ROWS]),
    st.none() | st.randoms(use_true_random=False), st.booleans(),
)
def test_weekly_is_the_kernel_row_sums_whatever_the_block(
    table, params, factor, spacing, block, rng, in_hour_order
):
    # the record kernel, capped or not, gives the dense kernel's weekly values bit for bit,
    # on blocks of venue rows whose records are in hour order or in any order
    if rng is not None:
        table = with_a_full_week(table, rng)
    if in_hour_order:
        rows = record_rows_of(table)
        order = np.lexsort((table.hour, rows))
        table = input_from_records(table.venues, rows[order], table.hour[order], table.count[order])
    config = ScenarioConfig(name="c", sampling_factor=factor, spacing=spacing)
    with mock.patch.object(epi, "_BLOCK_ROWS", block):
        weekly = run_scenario(table, config, params)
    sampled = dataclasses.replace(table, count=table.count * factor)
    assert weekly.tobytes() == dense_weekly(sampled, params, spacing).tobytes()


@PROPERTY
@given(tables(), params_st, st.floats(0.3, 4.0), st.floats(0.5, 20.0))
def test_capped_rows_match_scalar_cap(table, params, spacing, factor):
    caps = max_distanced_occupancy(table.venues.areas, spacing)
    sampled = dense_counts(table) * factor
    rows = [apply_occupancy_cap(row, cap) for row, cap in zip(sampled, caps)]
    assert (np.array(rows) <= sampled).all()

    config = ScenarioConfig(name="c", sampling_factor=factor, spacing=spacing)
    capped = run_scenario(table, config, params)
    uncapped = run_scenario(table, ScenarioConfig(name="u", sampling_factor=factor), params)
    # the kernel is exact on equal inputs, so equal weekly values mean equal capped rows
    reference = simulate_week(input_from_matrix(table.venues, np.array(rows)), params)
    assert np.array_equal(capped, reference)
    assert (capped <= uncapped).all()


@PROPERTY
@given(tables(max_venues=6, max_hours=30, ids=id_st), st.floats(1e-300, 1e300))
def test_write_parse_join_round_trip(table, factor):
    venue_sink, visit_sink = io.StringIO(), io.StringIO()
    write_venues(table.venues, venue_sink, comment="round trip")
    write_visits(table, visit_sink, comment="round trip")
    venues = parse_venues(io.StringIO(venue_sink.getvalue()), names=True)
    visits = parse_visits(io.StringIO(visit_sink.getvalue()))
    back = join(venues, visits)
    assert same_venues(back.venues, table.venues)
    for column in ("offsets", "hour", "count"):
        assert getattr(back, column).tolist() == getattr(table, column).tolist()
    # SimulationInput checks no count: parsing and sampling keep every count finite, >= 0
    sampled = apply_sampling_correction(visits.count, factor)
    counts = join(venues, dataclasses.replace(visits, count=sampled)).count
    assert np.isfinite(counts).all() and (counts >= 0).all()


@PROPERTY
@given(tables(max_venues=6, max_hours=30), st.integers(1, 64))
def test_sliced_fast_parse_gives_the_csv_records(table, slice_chars):
    # a slice of 1 to 64 characters, extended to its line end, splits runs of one id
    sink = io.StringIO()
    write_visits(table, sink, comment="slices")
    text = sink.getvalue()
    with mock.patch.object(ingest, "_PARSE_BLOCK_CHARS", slice_chars):
        fast = ingest._parse_visits_fast(io.StringIO(text))
    assert fast is not None
    assert record_columns(fast) == record_columns(_parse_visits_csv(io.StringIO(text)))


@PROPERTY
@given(tables(max_venues=4, max_hours=20), st.booleans(), st.integers(1, 64), st.data())
def test_reordered_rows_and_duplicates_give_the_csv_outcome(table, shuffle, slice_chars, data):
    # rows in venue-then-hour order take the block-wise duplicate check, shuffled rows
    # the bitmap; a (venue_id, hour) pair written again anywhere is the csv parser's error
    rows = record_rows_of(table)
    order = np.lexsort((table.hour, rows))
    sink = io.StringIO()
    write_visits(input_from_records(table.venues, rows[order], table.hour[order],
                                    table.count[order]), sink)
    header, *rows = sink.getvalue().splitlines(keepends=True)
    if shuffle:
        rows = data.draw(st.permutations(rows))
    if rows and data.draw(st.booleans()):
        pair = data.draw(st.sampled_from(rows)).rsplit(",", 1)[0]
        rows.insert(data.draw(st.integers(0, len(rows))), f"{pair},7\n")
    text = header + "".join(rows)
    with mock.patch.object(ingest, "_PARSE_BLOCK_CHARS", slice_chars):
        assert parse_outcome(parse_visits, text) == parse_outcome(_parse_visits_csv, text)


def row_by_row_csv(header, rows, comments=()):
    """A ``# comment`` line per comment, then the header and ``rows`` written one
    ``csv.writer`` row at a time: the text every table the tool writes must equal."""
    sink = io.StringIO()
    sink.writelines(f"# {comment}\n" for comment in comments)
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return sink.getvalue()


def reference_visit_text(table, comment):
    """write_visits' output written one ``csv.writer`` row per record."""
    rows = (
        (table.venues.ids[row], hour, str(int(count)) if count.is_integer() else repr(count))
        for row, hour, count in zip(
            record_rows_of(table).tolist(), table.hour.tolist(), table.count.tolist()
        )
    )
    return row_by_row_csv(["venue_id", "hour", "count"], rows, [comment])


# integral and not, the extremes of the double range, and many zeros
written_count_st = st.one_of(
    st.just(0.0),
    st.sampled_from([1.0, 7.0, 0.5, 2.5e-7, 1e300, 5e-324, 2.0**53, 1e16 + 2]),
    st.integers(0, 10**6).map(float),
    st.floats(0.0, 1e6),
)


@PROPERTY
@given(
    tables(max_venues=6, max_hours=30, ids=id_st, counts=written_count_st),
    # small write blocks put row-block boundaries inside the table
    st.one_of(st.just(ingest._WRITE_BLOCK_BYTES), st.integers(1, 300)),
)
@example(input_from_matrix(make_venues({"v1": 1.0, "v2": 2.0}), np.zeros((2, WINDOW_HOURS))), 1)
@example(input_from_matrix(make_venues({"#\n\"é,": 1.0}), window_counts([[0.0, 3.0, 1e300]])), 1)
# plain ids only, so every "id," is put together without csv.writer
@example(input_from_matrix(make_venues({"v1": 1.0, "#v2": 2.0}), window_counts([[2.5], [0, 1]])), 1)
# many plain ids and one that must be quoted: the whole id table goes through csv.writer
@example(
    input_from_matrix(
        make_venues({**{f"v{i}": 1.0 for i in range(40)}, 'x,"y': 1.0}), np.ones((41, 2))
    ),
    ingest._WRITE_BLOCK_BYTES,
)
# repeated counts, 0.0 and -0.0 among them, one record per write block: each block
# looks its counts up among the distinct ones of the whole table
@example(
    input_from_records(
        make_venues({"v1": 1.0, "v2": 2.0}),
        [0, 0, 0, 0, 1, 1, 1, 1],
        [0, 1, 2, 3, 0, 1, 2, 3],
        [0.0, -0.0, 2.5, 0.0, -0.0, 2.5, 7.0, 0.0],
    ),
    1,
)
def test_write_visits_matches_row_by_row_csv(table, block_bytes):
    sink = io.StringIO()
    with mock.patch.object(ingest, "_WRITE_BLOCK_BYTES", block_bytes):
        write_visits(table, sink, comment="manifest_sha256: 00ff")
    assert sink.getvalue() == reference_visit_text(table, "manifest_sha256: 00ff")


# ids, names and categories a venue file carries back, each drawn from an alphabet
# csv.writer never quotes or from one it often must
venue_text_st = st.sampled_from(["ab1 _&'#\u00e9", 'ab ,"\n\u00e9']).flatmap(
    lambda alphabet: st.text(st.sampled_from(alphabet), max_size=12)
).filter(lambda v: v == v.strip())


@st.composite
def venue_tables(draw, max_venues=6):
    """A VenueTable of up to ``max_venues`` rows of ``venue_text_st`` texts; it may have none."""
    n = draw(st.integers(0, max_venues))
    ids = draw(st.lists(venue_text_st.filter(bool), min_size=n, max_size=n, unique=True))
    names = draw(st.lists(venue_text_st, min_size=n, max_size=n))
    categories = draw(st.lists(venue_text_st, min_size=n, max_size=n))
    areas = draw(arrays(np.float64, n, elements=st.floats(1e-300, 1e300)))
    return VenueTable(tuple(ids), tuple(names), tuple(categories), areas)


def reference_venue_text(venues, comment):
    """write_venues' output written one ``csv.writer`` row per venue."""
    rows = zip(venues.ids, venues.names, venues.categories, map(repr, venues.areas.tolist()))
    return row_by_row_csv(["venue_id", "name", "category", "area"], rows, [comment])


@PROPERTY
@given(venue_tables())
@example(make_venues({"v1": 0.1 + 0.2, "#2": 1e300}))
@example(VenueTable(("v1", "v2"), ("Soup, Salad & Co", 'The "Bar"'), ("a\nb", ""), np.ones(2)))
def test_write_venues_matches_row_by_row_csv(venues):
    sink = io.StringIO()
    write_venues(venues, sink, comment="manifest_sha256: 00ff")
    assert sink.getvalue() == reference_venue_text(venues, "manifest_sha256: 00ff")


# the two kinds of column render_table takes: texts, or Python numbers
number_st = st.one_of(st.integers(-(10**20), 10**20), st.floats())


@st.composite
def table_columns(draw):
    """A header of one to three names and one column per name, of texts or of numbers."""
    width, rows = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    header = draw(st.lists(venue_text_st, min_size=width, max_size=width))
    kind_st = st.sampled_from([venue_text_st, number_st])
    kinds = draw(st.lists(kind_st, min_size=width, max_size=width))
    return tuple(header), [draw(st.lists(kind, min_size=rows, max_size=rows)) for kind in kinds]


@PROPERTY
@given(
    table_columns(),
    st.lists(st.sampled_from(["manifest_sha256: 00ff", 'a, "b"', "", None])),
    st.integers(1, 3),
)
@example((("a",), [["", "x"]]), [], 1)  # csv.writer quotes a lone empty field
@example((("a", "b"), []), ["manifest_sha256: 00ff"], 1)  # a header and no columns
@example((("a", "b"), [[], []]), [], 1)  # columns with no rows
def test_render_table_matches_row_by_row_csv(table, comments, block_rows):
    header, columns = table
    expected = row_by_row_csv(header, zip(*columns), [comment for comment in comments if comment])
    with mock.patch.object(ingest, "_RENDER_BLOCK_ROWS", block_rows):
        assert ingest.render_table(header, columns, comments) == expected


@st.composite
def venue_reports(draw):
    """A ``venue_tables`` table, each venue's weekly infections and a severity threshold."""
    venues = draw(venue_tables())
    # values on the threshold, and ties, which hotspots breaks by venue id
    weekly_st = st.one_of(st.just(1.0), st.floats(0.0, 1e6))
    weekly = draw(arrays(np.float64, len(venues), elements=weekly_st))
    return venues, weekly, draw(st.sampled_from([0.0, 1.0, 2.5]))


@PROPERTY
@given(venue_reports())
@example((VenueTable((), (), (), np.empty(0)), np.empty(0), 1.0))
@example((
    VenueTable(
        ("v,1", "v\n2", "\u00e9"), ('The "Bar"', "Soup, Salad", ""), ("a\nb", "caf\u00e9", ""),
        np.array([1.0, 0.1, 1e300]),
    ),
    np.array([1.0, 2.5, 2.5]),
    1.0,
))
def test_venue_results_and_hotspots_match_row_by_row_csv(report):
    venues, weekly, threshold = report
    params = EpiParams(documented_prevalence=0.01)
    labels = ["severe" if value > threshold else "mild" for value in weekly.tolist()]
    volumes = [area * params.ceiling_height for area in venues.areas.tolist()]
    numbers = (venues.areas.tolist(), volumes, weekly.tolist())
    texts = (venues.ids, venues.names, venues.categories)
    rows = zip(*texts, *(map(repr, column) for column in numbers), labels)
    text = venue_results_csv(venues, weekly, params, threshold, "00ff")
    assert text == row_by_row_csv(VENUE_RESULT_COLUMNS, rows, ["manifest_sha256: 00ff"])

    listing = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(listing):
        path = Path(tmp, "venue_results.csv")
        path.write_text(text, encoding="utf-8", newline="")
        assert cli.main(["hotspots", "--results", str(path), "--threshold", repr(threshold)]) == 0
    entries = zip(weekly.tolist(), venues.ids, venues.names, labels)
    ranked = sorted(entries, key=lambda entry: (-entry[0], entry[1]))
    rows = (
        (rank, vid, name, repr(value), label)
        for rank, (value, vid, name, label) in enumerate(ranked, start=1)
    )
    assert listing.getvalue() == row_by_row_csv(HOTSPOT_COLUMNS, rows)


@PROPERTY
@given(tables(max_hours=48), params_st, st.randoms(use_true_random=False))
def test_hour_permutation_permutes_hourly_and_keeps_weekly(table, params, rng):
    permutation = list(range(table.window_hours))
    rng.shuffle(permutation)
    # hour h of the permuted table holds the records of hour permutation[h]
    new_hour = np.argsort(permutation).astype(np.uint8)
    permuted_table = dataclasses.replace(table, hour=new_hour[table.hour])
    hourly = hourly_of(table, params)
    assert np.array_equal(hourly_of(permuted_table, params), hourly[:, permutation])
    weekly = simulate_week(table, params)
    assert np.allclose(simulate_week(permuted_table, params), weekly, rtol=1e-12, atol=0.0)


# Visit files for the differential test: plain rows, which the NumPy path
# parses, with up to two of the inputs it must leave to the csv parser.
odd_field_st = st.one_of(
    st.tuples(st.just(0), st.sampled_from(
        ["", "x" * 31, "x" * 32, "x" * 33, '"v1"', "#v1", "v\x01", "v\u00e9", "v\x00"]
    )),
    # an hour value: in the window or just outside it at either edge, or not an integer
    st.tuples(st.just(1), st.one_of(
        st.integers(-2, 5).map(str),
        st.sampled_from(["167", "168", "169"]),
        st.sampled_from(
            ["5.0", "+1", "01", "-0", "1_0", "", "x", "+", "1e0", "99999999999999999999"]
        ),
    )),
    st.tuples(st.just(2), st.sampled_from(
        ["nan", "inf", "-inf", "1e400", "-0", "-0.0", "-1", "-1e-300", "1_0", "", "+.5", "0x10",
         "1d5", "5.", "1,5"]
    )),
)
padding_st = st.tuples(
    st.integers(0, 2), st.sampled_from([" ", "\t", "\v", "\f", "\x1c", "\x1f", "\r"])
)
# a field-level trigger is listed three times: it hides in one row, so it needs the most draws
TRIGGERS = [
    *["odd field", "padding"] * 3, "field count", "duplicate", "blank line", "comment row",
    "header", "quote in comment", "crlf", "bom", "no header",
]


# hours at both edges of the window, where the fast parser's checks and cell indices turn
EDGE_HOURS = [0, 1, WINDOW_HOURS - 2, WINDOW_HOURS - 1]


@st.composite
def visit_files(draw):
    keys = draw(st.lists(
        st.tuples(st.sampled_from(["v1", "v2", "v3"]), st.sampled_from(EDGE_HOURS)),
        unique=True, max_size=8,
    ))  # drawn in any order, so ids are often not grouped
    rows = [[vid, str(hour), repr(draw(count_st))] for vid, hour in keys]
    comments = draw(st.lists(st.sampled_from(["# manifest_sha256: 00ff", "#", "# caf\u00e9"])))
    header, ending, bom = "venue_id,hour,count", "\n", ""
    for trigger in draw(st.lists(st.sampled_from(TRIGGERS), max_size=2)):
        if not any(len(r) == 3 for r in rows):
            rows.append(["v1", "0", "1"])
        row = draw(st.sampled_from([r for r in rows if len(r) == 3]))
        if trigger == "odd field":
            field, value = draw(odd_field_st)
            row[field] = value
        elif trigger == "padding":
            field, pad = draw(padding_st)
            row[field] = draw(st.sampled_from([pad + row[field], row[field] + pad]))
        elif trigger == "field count":
            row[:] = row[:2] if draw(st.booleans()) else [*row, "1"]
        elif trigger == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), list(row))
        elif trigger == "blank line":
            rows.insert(draw(st.integers(0, len(rows))), [""])
        elif trigger == "comment row":
            rows.insert(draw(st.integers(0, len(rows))), ["# note"])
        elif trigger == "header":
            header = draw(st.sampled_from(["venue_id, hour ,count", "venue_id,hour", "id,hour"]))
        elif trigger == "quote in comment":
            comments.append('# "quoted,"')
        elif trigger == "crlf":
            ending = "\r\n"
        elif trigger == "bom":
            bom = "\ufeff"
        elif trigger == "no header":
            header = None
    lines = [*comments, *([header] if header is not None else []), *map(",".join, rows)]
    text = bom + ending.join(lines) + draw(st.sampled_from([ending, ""]))
    return text


@settings(max_examples=600, deadline=None, derandomize=True)
@given(visit_files())
@example("venue_id,hour,count\nv1,0,inf\n")  # rare draws, pinned
@example("venue_id,hour,count\nv1,0,1e400\n")
@example("venue_id,hour,count\n" + "x" * 32 + ",0,1\n")
@example("venue_id,hour,count\n" + "x" * 33 + ",0,1\n")
@example("venue_id,hour,count\n\x1cv1,0,1\n")
@example("venue_id,hour,count\nv1\v,0,1\n")
def test_fast_and_csv_visit_parsers_agree(text):
    # the same records (ids in the same order, repr-equal counts so -0.0 counts),
    # or the same exception type and message
    assert parse_outcome(parse_visits, text) == parse_outcome(_parse_visits_csv, text)


@st.composite
def grouped_visit_files(draw):
    """A venue table, and the rows of a visit file over it as (row, hour, count text): each
    venue's rows in one or two runs, the runs in any order, at times one venue with every
    hour of the window, and at times a run of more than 255 rows of one id."""
    n = draw(st.integers(1, 6))
    venues = make_venues({f"v{i}": draw(st.floats(1.0, 500.0)) for i in range(n)})
    full = draw(st.none() | st.integers(0, n - 1))
    runs = []
    for row in range(n):
        if row == full:
            hours = draw(st.permutations(range(WINDOW_HOURS)))
        else:
            hours = draw(st.lists(st.integers(0, WINDOW_HOURS - 1), unique=True, max_size=12))
        cut = draw(st.integers(0, len(hours)))
        runs += [[(row, hour) for hour in part] for part in (hours[:cut], hours[cut:]) if part]
    runs = draw(st.permutations(runs))
    if draw(st.booleans()):  # 256 rows of one id, so some hour comes twice
        runs.insert(draw(st.integers(0, len(runs))), [(0, h % WINDOW_HOURS) for h in range(256)])
    counts = st.integers(0, 255).map(str) | st.sampled_from(["0.5", "300", "1e3"])
    rows = [(row, hour, draw(counts)) for run in runs for row, hour in run]
    return venues, rows


@PROPERTY
@given(grouped_visit_files(), st.integers(1, 64), params_st, st.sampled_from([1.0, 10.0]))
def test_runs_of_a_visit_file_join_into_the_dense_weekly_values(case, block_chars, params, factor):
    # venues out of the venue file's order, a venue's rows in two runs or split across
    # parse blocks, a venue with all 168 hours: both parsers give the same runs, and the
    # joined records the weekly values of a dense [venue, hour] matrix bit for bit. More
    # than 255 rows of one id is the csv parser's duplicate error
    venues, rows = case
    text = "venue_id,hour,count\n" + "".join(f"v{row},{hour},{count}\n" for row, hour, count in rows)
    with mock.patch.object(ingest, "_PARSE_BLOCK_CHARS", block_chars):
        outcome = parse_outcome(parse_visits, text)
        assert outcome == parse_outcome(_parse_visits_csv, text)
        if isinstance(outcome[0], type):
            assert outcome[0] is ingest.RecordError and "duplicate hour" in outcome[1]
            return
        sim = join(venues, parse_visits(io.StringIO(text)))
    counts = np.zeros((len(venues), WINDOW_HOURS))
    for row, hour, count in rows:
        counts[row, hour] = float(count)
    volumes = compute_volumes(venues.areas, params.ceiling_height)
    with np.errstate(all="ignore"):
        weekly = simulate_week(sim, params, factor)
        dense = dense_hourly_infections(counts * factor, volumes, params).sum(axis=1)
    assert weekly.tobytes() == dense.tobytes()


# counts at the edge of one byte and beyond, and counts float() reads: a fraction, an
# exponent, an underscore, a negative zero and a huge value; and 16-digit integers, which
# the byte reader reads as digits
WIDTH_EDGE_COUNTS = (
    "0", "255", "256", "65535", "65536", "4294967295", "4294967296",
    "0.5", "1e3", "1_000", "-0", "1e300",
)
width_count_st = st.one_of(
    st.sampled_from(WIDTH_EDGE_COUNTS), st.integers(10**15, 10**16 - 1).map(str)
)


@PROPERTY
@given(
    st.lists(st.integers(0, 255).map(str), max_size=20),
    st.lists(width_count_st, max_size=10),
    st.integers(1, 64),
    st.sampled_from([1.0, 10.0]),
    st.booleans(),
)
# a negative zero among one-byte counts, in its own block and in the first one
@example(["1", "255"], ["-0"], 8, 1.0, False)
@example(["1", "255"], ["-0", "0"], 64, 10.0, True)
def test_count_column_takes_the_narrowest_exact_width(small, edge, block_chars, factor, capped):
    # one-byte counts, then edge counts, in blocks of 1 to 64 characters, so the byte reader
    # widens its column mid-file
    counts = small + edge
    rows = [f"v{i % 4},{i // 4},{count}" for i, count in enumerate(counts)]
    text = "venue_id,hour,count\n" + "".join(f"{row}\n" for row in rows)
    with mock.patch.object(ingest, "_PARSE_BLOCK_CHARS", block_chars):
        fast = ingest._parse_visits_fast(io.StringIO(text))
    assert fast is not None
    assert record_columns(fast) == record_columns(_parse_visits_csv(io.StringIO(text)))
    assert fast.count.dtype == narrowest_count_dtype(map(float, counts))
    # the kernel gives the weekly values of the same counts held as float64, bit for bit
    venues = make_venues(dict.fromkeys(fast.ids, 50.0))
    sim = join(venues, fast)
    as_float = dataclasses.replace(sim, count=sim.count.astype(float))
    caps = max_distanced_occupancy(venues.areas, 1.0) if capped else None
    params = EpiParams(documented_prevalence=0.001)
    with np.errstate(all="ignore"):
        weekly = simulate_week(sim, params, factor, caps)
        expected = simulate_week(as_float, params, factor, caps)
    assert weekly.tobytes() == expected.tobytes()


def joined_by_sorting(venues, visits):
    """The join's reference: each record given its venue row, the records sorted by row
    with a stable sort, and the offsets counted from the rows."""
    row_of = {vid: row for row, vid in enumerate(venues.ids)}
    unknown = sorted(vid for vid in visits.ids if vid not in row_of)
    if unknown:
        shown = ", ".join(map(repr, unknown[:10])) + (", ..." if len(unknown) > 10 else "")
        raise DatasetError(f"visit series reference {len(unknown)} unknown venue id(s): {shown}")
    rows = np.array([row_of[vid] for vid in visits.ids], np.intp)[record_ids(visits)]
    order = np.argsort(rows, kind="stable")
    offsets = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=len(venues)))])
    return offsets.tolist(), visits.hour[order].tolist(), visits.count[order].tolist()


@st.composite
def joins(draw):
    """A venue table and visit records: some of its ids in any order, unknown ids at times,
    one id's rows in several runs at times."""
    venue_ids = [f"v{i}" for i in range(draw(st.integers(0, 6)))]
    known = draw(st.lists(st.sampled_from(venue_ids), unique=True)) if venue_ids else []
    unknown = draw(st.lists(st.sampled_from([f"g{i}" for i in range(12)]), unique=True))
    ids = draw(st.permutations(known + draw(st.sampled_from([[], unknown]))))
    cells = draw(st.lists(
        st.tuples(st.integers(0, len(ids) - 1), st.integers(0, WINDOW_HOURS - 1)),
        unique=True, max_size=40,
    )) if ids else []
    visits = VisitRecords(
        dict(zip(ids, range(len(ids)))),
        *runs_of([index for index, _ in cells]),
        np.array([hour for _, hour in cells], np.uint8),
        np.arange(len(cells), dtype=float),
    )
    return make_venues(dict.fromkeys(venue_ids, 1.0)), visits


@PROPERTY
@given(joins())
@example((make_venues({"v0": 1.0, "v1": 1.0}), VisitRecords()))  # no records
def test_join_equals_a_stable_sort_by_row(case):
    venues, visits = case
    columns = [visits.run_venue.copy(), visits.run_length.copy(), visits.hour.copy(),
               visits.count.copy()]
    try:
        expected = (None, joined_by_sorting(venues, visits))
    except DatasetError as exc:
        expected = (DatasetError, str(exc))
    try:
        sim = join(venues, visits)
        outcome = (None, (sim.offsets.tolist(), sim.hour.tolist(), sim.count.tolist()))
    except DatasetError as exc:
        outcome = (DatasetError, str(exc))
    assert outcome == expected
    # the records are left as they were
    held = [visits.run_venue, visits.run_length, visits.hour, visits.count]
    assert [column.tolist() for column in held] == [column.tolist() for column in columns]
    if outcome[0] is None:
        # runs whose rows never decrease are handed on as they are, others gathered once
        rows = [venues.ids.index(vid) for vid in visits.ids]
        in_order = all(rows[a] <= rows[b] for a, b in zip(visits.run_venue, visits.run_venue[1:]))
        assert (sim.hour is visits.hour and sim.count is visits.count) == in_order
        assert sim.offsets.dtype == ingest.OFFSET_DTYPE


json_st = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


def reversed_keys(value):
    """``value`` with the keys of every mapping in it in reverse order."""
    if isinstance(value, dict):
        return {key: reversed_keys(value[key]) for key in reversed(value)}
    if isinstance(value, list):
        return [reversed_keys(item) for item in value]
    return value


@PROPERTY
@given(
    st.dictionaries(st.text(max_size=8), json_st, max_size=6),
    st.none() | st.text(),
    st.none() | st.text(),
)
def test_manifest_hash_ignores_timestamp_and_key_order(payload, stamp_a, stamp_b):
    first = build_manifest([], payload, stamp_a)
    second = build_manifest([], reversed_keys(payload), stamp_b)
    assert first["manifest_sha256"] == second["manifest_sha256"]
    if stamp_a is not None:
        assert first["timestamp"] == stamp_a
    # and the hash is of the payload: another payload gets another hash
    assert build_manifest([], {"payload": payload}, stamp_a)["manifest_sha256"] != (
        first["manifest_sha256"]
    )


# every finite double, the largest ones included, where the range and the edges
# come near overflowing
histogram_values_st = st.lists(
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1.7976931348623157e308]),
    max_size=20,
)


@PROPERTY
@given(
    histogram_values_st, histogram_values_st, st.sampled_from(["linear", "log10"]),
    st.integers(1, 12),
)
@example(a=[0.3196698954857542, 1.0, 2.0], b=[3.0, 5.0], scale="log10", bins=4)
@example(a=[1.7976931348623155e308], b=[], scale="linear", bins=1)  # the degenerate bin's pad
@example(a=[0.0, 1.7976931348623157e308], b=[], scale="linear", bins=3)  # np.linspace
@example(a=[1e308, -1e308], b=[], scale="linear", bins=3)  # the range
@example(a=[1.797693134861975e308], b=[], scale="log10", bins=1)  # 10.0 ** edges
def test_histograms_on_the_combined_range_share_edges_and_bin_every_binnable_value(
    a, b, scale, bins
):
    span = combined_range([np.array(a, float), np.array(b, float)], scale)
    hists = [histogram(sample, bins, scale, value_range=span) for sample in (a, b)]
    # one sample's range is the one its histogram derives by itself
    own = combined_range([np.array(a, float)], scale)
    assert histogram(a, bins, scale, value_range=own) == histogram(a, bins, scale)
    assert len({hist.bin_edges for hist in hists if hist.counts}) <= 1
    assert all(math.isfinite(edge) for hist in hists for edge in hist.bin_edges)
    for sample, hist in zip((a, b), hists):
        values = np.array(sample, float)
        binnable = np.isfinite(values) & ((values > 0) if scale == "log10" else True)
        assert hist.excluded_count == len(sample) - np.count_nonzero(binnable)


def betainc_reference(a: float, b: float, x: float):
    """I_x(a, b) at 50 digits. Past the mean a / (a + b) it is taken as the equal
    1 - I_{1-x}(b, a): there mpmath's series for I_x converges too slowly."""
    with mpmath.workdps(50):
        if x <= a / (a + b):
            return mpmath.betainc(a, b, 0, x, regularized=True)
        return 1 - mpmath.betainc(b, a, 0, 1 - mpmath.mpf(x), regularized=True)


@PROPERTY
@given(
    st.floats(1e-2, 1e6),
    st.floats(0.5, 1e3),
    st.floats(0.0, 1e-3, exclude_min=True) | st.floats(1e-16, 1e-3).map(lambda d: 1.0 - d),
)
@example(a=1e6, b=0.5, x=1.0 - 1e-5)  # the t-test's b, at the largest a, on the fraction's side
@example(a=1e5, b=0.5, x=1.0 - 1e-6)  # 1 - I_{1-x}(b, a) where Stirling's series takes over
# 1 - I_{1-x}(b, a) near the largest a: 2.1e-8 off with lgamma(a + b) - lgamma(a)
@example(a=8.46e5, b=0.5, x=1.0 - 1.7e-6)
def test_incomplete_beta_matches_a_50_digit_reference(a, b, x):
    # x near 0 and near 1, where the front factor x^a (1 - x)^b is far from 1. The
    # tolerance is criterion 6's 1e-8 on p, which is this function at b = 1/2. Past the
    # fraction's switch point, x > (a+1)/(a+b+2), I_x is 1 - (a value near 1), which
    # multiplies the front factor's error by up to 12 at b = 1/2; both sides are checked
    # up to a = 1e6, where lgamma(a + b) - lgamma(a) alone would be 2.6e-8 off
    reference = betainc_reference(a, b, x)
    value = regularized_incomplete_beta(a, b, x)
    if reference < 1e-300:  # below the smallest double that keeps full precision
        assert value < 1e-300
    else:
        assert abs(value - reference) <= 1e-8 * reference
