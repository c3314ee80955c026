"""Property tests of the array pipeline against its scalar references.

Examples are derandomized, so every run checks the same cases.
"""

import io
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from venuerisk import (
    EpiParams,
    ScenarioConfig,
    SimulationInput,
    join,
    max_distanced_occupancy,
    parse_visits,
    run_scenario,
    simulate_week,
    wells_riley_probability,
    write_visits,
)
from venuerisk.epi import infection_probability
from venuerisk.ingest import _parse_visits_csv
from venuerisk.scenario import apply_occupancy_cap
from conftest import make_venues

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


@st.composite
def tables(draw, max_venues=5, max_hours=12):
    n = draw(st.integers(1, max_venues))
    hours = draw(st.integers(1, max_hours))
    areas = draw(st.lists(st.floats(0.5, 5000.0), min_size=n, max_size=n))
    venues = make_venues({f"v{i}": area for i, area in enumerate(areas)})
    return SimulationInput(venues, draw(arrays(np.float64, (n, hours), elements=count_st)))


def ulps(got, want):
    return abs(got - want) / math.ulp(want) if want else abs(got) / math.ulp(0.0)


@PROPERTY
@given(
    params_st,
    arrays(np.float64, (3, 7), elements=st.floats(0.0, 1e4)),
    arrays(np.float64, 3, elements=st.floats(0.1, 1e5)),
)
def test_array_probability_within_one_ulp_of_scalar(params, infectors, volumes):
    probability = infection_probability(infectors, params, volumes[:, None])
    for (i, h), got in np.ndenumerate(probability):
        want = wells_riley_probability(infectors[i, h].item(), params, volumes[i].item())
        assert ulps(got.item(), want) <= 1


@PROPERTY
@given(tables(), params_st)
def test_infections_within_two_ulp_of_scalar_cohort(table, params):
    hourly = simulate_week(table, params).hourly
    prevalence = params.effective_prevalence
    for (i, h), got in np.ndenumerate(hourly):
        visitors = table.counts[i, h].item()
        volume = table.venues.areas[i].item() * params.ceiling_height
        infectors = visitors * prevalence
        want = (visitors - infectors) * wells_riley_probability(infectors, params, volume)
        assert ulps(got.item(), want) <= 2


@PROPERTY
@given(tables(), params_st, st.floats(0.3, 4.0), st.floats(0.5, 20.0))
def test_capped_rows_match_scalar_cap(table, params, spacing, factor):
    caps = max_distanced_occupancy(table.venues.areas, spacing)
    sampled = table.counts * factor
    rows = [apply_occupancy_cap(row, cap) for row, cap in zip(sampled, caps)]
    assert (np.array(rows) <= sampled).all()

    capped = run_scenario(
        table, ScenarioConfig(name="c", sampling_factor=factor, spacing=spacing), params
    )
    uncapped = run_scenario(table, ScenarioConfig(name="u", sampling_factor=factor), params)
    # the kernel is exact on equal inputs, so equal weekly values mean equal capped rows
    reference = simulate_week(SimulationInput(table.venues, np.array(rows)), params)
    assert np.array_equal(capped.weekly, reference.weekly)
    assert (capped.weekly <= uncapped.weekly).all()


@PROPERTY
@given(tables(max_venues=6, max_hours=30))
def test_write_parse_join_round_trip(table):
    sink = io.StringIO()
    write_visits(table, sink, comment="round trip")
    visits = parse_visits(io.StringIO(sink.getvalue()), table.window_hours)
    back = join(table.venues, visits, table.window_hours)
    assert np.array_equal(back.counts, table.counts)


@PROPERTY
@given(tables(max_hours=48), params_st, st.randoms(use_true_random=False))
def test_hour_permutation_permutes_hourly_and_keeps_weekly(table, params, rng):
    permutation = list(range(table.window_hours))
    rng.shuffle(permutation)
    permuted_table = SimulationInput(table.venues, table.counts[:, permutation])
    result = simulate_week(table, params)
    permuted = simulate_week(permuted_table, params)
    assert np.array_equal(permuted.hourly, result.hourly[:, permutation])
    assert np.allclose(permuted.weekly, result.weekly, rtol=1e-12, atol=0.0)


# Visit files for the differential test: plain rows, which the NumPy path
# parses, with up to two of the inputs it must leave to the csv parser.
odd_field_st = st.one_of(
    st.tuples(st.just(0), st.sampled_from(
        ["", "x" * 31, "x" * 32, "x" * 33, '"v1"', "#v1", "v\x01", "v\u00e9", "v\x00"]
    )),
    st.tuples(st.just(1), st.one_of(st.integers(-2, 5).map(str), st.sampled_from(
        ["5.0", "+1", "01", "-0", "1_0", "", "x", "+", "1e0", "99999999999999999999"]
    ))),
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


@st.composite
def visit_files(draw):
    window_hours = draw(st.integers(1, 4))
    keys = draw(st.lists(
        st.tuples(st.sampled_from(["v1", "v2", "v3"]), st.integers(0, window_hours - 1)),
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
    return text, window_hours


def parse_outcome(parse, text, window_hours):
    try:
        visits = parse(io.StringIO(text), window_hours)
    except Exception as exc:  # the csv parser defines every error, so compare them all
        return type(exc), str(exc)
    return [(vid, repr(row.tolist())) for vid, row in visits.items()]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(visit_files())
@example(("venue_id,hour,count\nv1,0,inf\n", 1))  # rare draws, pinned
@example(("venue_id,hour,count\nv1,0,1e400\n", 1))
@example(("venue_id,hour,count\n" + "x" * 32 + ",0,1\n", 1))
@example(("venue_id,hour,count\n" + "x" * 33 + ",0,1\n", 1))
@example(("venue_id,hour,count\n\x1cv1,0,1\n", 1))
@example(("venue_id,hour,count\nv1\v,0,1\n", 1))
def test_fast_and_csv_visit_parsers_agree(case):
    # same keys in the same order and repr-equal rows (so -0.0 counts),
    # or the same exception type and message
    text, window_hours = case
    assert parse_outcome(parse_visits, text, window_hours) == parse_outcome(
        _parse_visits_csv, text, window_hours
    )
