import io
from pathlib import Path

import numpy as np
import pytest

from venuerisk import (
    DatasetError,
    RecordError,
    SimulationInput,
    VenueTable,
    apply_sampling_correction,
    compute_volumes,
    join,
    parse_venues,
    parse_visits,
    write_venues,
    write_visits,
)
from venuerisk.ingest import SQFT_TO_SQM, _parse_visits_csv, _parse_visits_fast, open_input
from conftest import make_venues, same_venues

SAMPLE_DATA = Path(__file__).resolve().parent.parent / "sample_data"


def venues_csv(*rows):
    return io.StringIO("venue_id,name,category,area\n" + "\n".join(rows) + "\n")


def visits_csv(*rows):
    return io.StringIO("venue_id,hour,count\n" + "\n".join(rows) + "\n")


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
        table = parse_venues(venues_csv('v1,"Soup, Salad & Co",restaurant,100'))
        assert column(table, "names", "v1") == "Soup, Salad & Co"

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

    def test_unknown_area_unit(self):
        with pytest.raises(ValueError, match="area unit"):
            parse_venues(venues_csv("v1,Cafe,restaurant,100"), area_unit="acre")


class TestParseVisits:
    def test_missing_hours_zero_filled(self):
        table = parse_visits(visits_csv("v1,0,5", "v1,3,2"), window_hours=168)
        series = table["v1"]
        assert len(series) == 168
        assert series[0] == 5.0 and series[3] == 2.0
        assert sum(series) == 7.0

    def test_empty_source(self):
        # a 0-byte visit file is a missing header, not a total closure
        with pytest.raises(DatasetError, match="no header"):
            parse_visits(io.StringIO(""), window_hours=168)
        with pytest.raises(DatasetError, match="no header"):
            parse_visits(io.StringIO("# provenance comment only\n"), window_hours=168)
        # a header with no rows is a legal file with no visits
        assert parse_visits(visits_csv(), window_hours=168) == {}

    def test_hour_at_window_boundary_rejected(self):
        with pytest.raises(RecordError, match=r"outside \[0, 168\)"):
            parse_visits(visits_csv("v1,168,1"), window_hours=168)

    def test_negative_hour_rejected(self):
        with pytest.raises(RecordError):
            parse_visits(visits_csv("v1,-1,1"), window_hours=168)

    def test_negative_count_rejected(self):
        with pytest.raises(RecordError, match="non-negative"):
            parse_visits(visits_csv("v1,0,-2"), window_hours=168)

    def test_fractional_counts_allowed(self):
        table = parse_visits(visits_csv("v1,0,2.5"), window_hours=24)
        assert table["v1"][0] == 2.5

    def test_duplicate_hour_rejected(self):
        with pytest.raises(RecordError, match="duplicate"):
            parse_visits(visits_csv("v1,0,1", "v1,0,2"), window_hours=24)

    def test_non_integer_hour_rejected(self):
        with pytest.raises(RecordError, match="not an integer"):
            parse_visits(visits_csv("v1,1.5,1"), window_hours=24)

    def test_comment_after_header_is_a_malformed_record(self):
        with pytest.raises(RecordError, match="line 3: expected 3 fields, got 1"):
            parse_visits(visits_csv("v1,0,1", "# note"), window_hours=24)


class TestFastVisitParse:
    """The NumPy path must be the one taken on the files the program writes and ships."""

    def assert_fast_and_exact(self, text, window_hours):
        fast = _parse_visits_fast(text, window_hours)
        assert fast is not None
        slow = _parse_visits_csv(io.StringIO(text), window_hours)
        assert list(fast) == list(slow)
        assert all(fast[vid].tolist() == slow[vid].tolist() for vid in slow)

    def test_taken_on_written_visits(self):
        venues = make_venues({f"v{i}": 10.0 for i in range(3)})
        counts = np.array([[0.0, 2.0, 0.5], [0.0, 0.0, 0.0], [7.0, 1e-9, 123456.789]])
        sink = io.StringIO()
        write_visits(SimulationInput(venues, counts), sink, comment="manifest_sha256: 00ff")
        assert sink.getvalue().startswith("# manifest_sha256: 00ff\n")
        self.assert_fast_and_exact(sink.getvalue(), 3)

    def test_taken_on_sample_data(self):
        with open_input(SAMPLE_DATA / "visits.csv") as handle:
            self.assert_fast_and_exact(handle.read(), 168)


class TestSamplingCorrection:
    def test_factor_ten(self):
        out = apply_sampling_correction(np.array([[1.0, 2.0, 0.0]]), 10.0)
        assert out.tolist() == [[10.0, 20.0, 0.0]]

    def test_identity_factor(self):
        counts = np.array([[3.0, 0.25, 7.0]])
        out = apply_sampling_correction(counts, 1.0)
        assert np.array_equal(out, counts)

    def test_fractional_factor(self):
        out = apply_sampling_correction(np.array([[3.0]]), 2.5)
        assert out.tolist() == [[7.5]]

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_factor(self, factor):
        with pytest.raises(ValueError):
            apply_sampling_correction(np.zeros((0, 24)), factor)

    def test_linearity(self):
        # applying a then b equals applying a*b, up to fp associativity
        import random

        rng = random.Random(11)
        for _ in range(200):
            counts = np.array([[rng.uniform(0, 50) for _ in range(24)]])
            a = rng.uniform(0.1, 20)
            b = rng.uniform(0.1, 20)
            two_step = apply_sampling_correction(apply_sampling_correction(counts, a), b)
            one_step = apply_sampling_correction(counts, a * b)
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

    def test_bad_height(self):
        with pytest.raises(ValueError):
            compute_volumes(np.array([]), 0.0)


class TestJoin:
    def _venues(self, *ids):
        return make_venues(dict.fromkeys(ids, 100.0))

    def test_missing_series_zero_filled(self):
        venues = self._venues("v1", "v2")
        visits = {"v1": np.ones(24)}
        sim = join(venues, visits, 24)
        assert list(sim.venues) == ["v1", "v2"]
        assert sim.counts[1].tolist() == [0.0] * 24

    def test_unknown_venue_named_in_error(self):
        venues = self._venues("v1")
        visits = {"ghost": np.zeros(24)}
        with pytest.raises(DatasetError, match="ghost"):
            join(venues, visits, 24)

    def test_unknown_ids_listed_up_to_ten_with_count(self):
        venues = self._venues("v1")
        visits = {f"g{i:02d}": np.zeros(24) for i in range(48)}
        with pytest.raises(DatasetError) as info:
            join(venues, visits, 24)
        message = str(info.value)
        assert "48 unknown venue id(s)" in message
        assert "'g09'" in message and "'g10'" not in message
        assert message.endswith(", ...")

    def test_full_size_join(self):
        ids = [f"v{i}" for i in range(1034)]
        venues = self._venues(*ids)
        visits = {vid: np.ones(24) for vid in ids}
        sim = join(venues, visits, 24)
        assert len(sim.venues) == 1034 and sim.counts.shape == (1034, 24)
        assert (sim.counts == 1.0).all()

    def test_never_drops_or_invents(self):
        venues = self._venues("a", "b", "c")
        visits = {"b": np.array([2.0, 0.0, 5.0])}
        sim = join(venues, visits, 3)
        assert list(sim.venues) == list(venues)
        assert sim.counts.tolist() == [[0.0] * 3, [2.0, 0.0, 5.0], [0.0] * 3]

    @pytest.mark.parametrize("length", [1, 2, 25])
    def test_length_mismatch(self, length):
        # a one-hour row must not be broadcast across the window
        venues = self._venues("a")
        visits = {"a": np.arange(1.0, length + 1)}
        with pytest.raises(DatasetError, match="length"):
            join(venues, visits, 24)


class TestRoundTrip:
    def test_serialize_parse_is_exact(self):
        # awkward floats on purpose; repr-based serialization is lossless
        venues = VenueTable(
            ids=("v1", "v2"),
            names=("Cafe, The", "Bar"),
            categories=("restaurant", "drinking place"),
            areas=np.array([0.1 + 0.2, 1234.5678901234567]),
        )
        counts = np.array([[0.0, 1e-9, 2.5, 0.0, 123456.789], [0.0] * 5])
        venue_buf = io.StringIO()
        write_venues(venues, venue_buf)
        visit_buf = io.StringIO()
        write_visits(SimulationInput(venues, counts), visit_buf)

        back_venues = parse_venues(io.StringIO(venue_buf.getvalue()))
        back_visits = parse_visits(io.StringIO(visit_buf.getvalue()), window_hours=5)
        for vid in venues:
            assert column(back_venues, "areas", vid) == column(venues, "areas", vid)
            assert column(back_venues, "names", vid) == column(venues, "names", vid)
        assert back_visits["v1"].tolist() == counts[0].tolist()
        # all-zero series vanish from the sparse file and come back via join
        assert "v2" not in back_visits
        assert np.array_equal(join(back_venues, back_visits, 5).counts, counts)

    def test_hash_id_survives_the_round_trip(self):
        # "#" is a comment only before the header, so this venue is neither dropped nor unknown
        venues = make_venues({"#12": 80.0, "v2": 120.0})
        counts = np.array([[3.0, 0.0, 1.5], [0.0, 2.0, 0.0]])
        venue_buf, visit_buf = io.StringIO(), io.StringIO()
        write_venues(venues, venue_buf, comment="manifest_sha256: 00ff")
        write_visits(SimulationInput(venues, counts), visit_buf, comment="manifest_sha256: 00ff")

        back_venues = parse_venues(io.StringIO(venue_buf.getvalue()))
        back_visits = parse_visits(io.StringIO(visit_buf.getvalue()), window_hours=3)
        assert same_venues(back_venues, venues)
        assert np.array_equal(join(back_venues, back_visits, 3).counts, counts)


class TestTypeInvariants:
    def test_venue_rejects_bad_area(self):
        with pytest.raises(ValueError):
            make_venues({"v": 0.0})
        with pytest.raises(ValueError):
            make_venues({"v": float("nan")})

    def test_venue_table_is_a_sequence_of_ids(self):
        venues = make_venues({"b": 2.0, "a": 1.0})
        assert len(venues) == 2
        assert list(venues) == ["b", "a"]

    @pytest.mark.parametrize(
        "columns",
        [
            (("a", "b"), ("n",), ("c", "c"), np.array([1.0, 2.0])),  # ragged names
            (("a", "b"), ("n", "n"), ("c", "c"), np.array([1.0])),  # ragged areas
            (("a",), ("n",), ("c",), np.array([[1.0]])),  # areas not a vector
            (("",), ("n",), ("c",), np.array([1.0])),  # empty id
            (("a", "a"), ("n", "n"), ("c", "c"), np.array([1.0, 2.0])),  # duplicate id
            (("a", "b"), ("n", "n"), ("c", "c"), np.array([1.0, np.inf])),  # infinite area
            (("a", "b"), ("n", "n"), ("c", "c"), np.array([1.0, -2.0])),  # negative area
        ],
        ids=["names", "areas", "area-matrix", "empty-id", "duplicate-id", "inf-area", "neg-area"],
    )
    def test_venue_table_rejects_bad_columns(self, columns):
        with pytest.raises(ValueError):
            VenueTable(*columns)

    def test_series_rejects_negative_count(self):
        venues = make_venues({"v": 1.0})
        with pytest.raises(ValueError):
            SimulationInput(venues, np.array([[1.0, -0.5]]))
        with pytest.raises(ValueError):
            SimulationInput(venues, np.array([[1.0, float("nan")]]))
