import importlib.util
import io
import math
from pathlib import Path

import numpy as np
import pytest

from venuerisk import synthetic
from venuerisk.ingest import join, parse_venues, parse_visits, write_venues, write_visits
from venuerisk.synthetic import GeneratorConfig, generate_dataset
from venuerisk.cli import main
from venuerisk.synthetic import (
    AREA_RANGE_M2,
    DIURNAL_SHAPE,
    DRINKING_PLACE_SHARE,
    POPULARITY_SIGMA,
    PRE_PANDEMIC_LEVEL,
)
from conftest import (
    FIXTURE_N_VENUES,
    FIXTURE_SEED,
    dense_counts,
    narrowest_count_dtype,
    record_rows_of,
    same_venues,
)


def test_diurnal_shape_is_documented_and_positive():
    assert len(DIURNAL_SHAPE) == 24
    assert all(w > 0 for w in DIURNAL_SHAPE)
    assert sum(DIURNAL_SHAPE) / 24 == pytest.approx(1.0, rel=1e-12)


def test_same_seed_same_dataset():
    config = GeneratorConfig(n_venues=50, profile="lockdown", seed=7)
    first = generate_dataset(config)
    second = generate_dataset(config)
    assert same_venues(first.venues, second.venues)
    for column in ("offsets", "hour", "count"):
        assert np.array_equal(getattr(first, column), getattr(second, column))


def test_generated_table_shares_one_string_per_category():
    venues = generate_dataset(GeneratorConfig(n_venues=200, profile="lockdown", seed=7)).venues
    assert len(set(map(id, venues.categories))) == 2
    assert set(venues.categories) == {"restaurant", "drinking_place"}


def test_same_seed_byte_identical_files():
    config = GeneratorConfig(n_venues=40, profile="pre_pandemic", seed=3)
    blobs = []
    for _ in range(2):
        table = generate_dataset(config)
        vbuf, tbuf = io.StringIO(), io.StringIO()
        write_venues(table.venues, vbuf)
        write_visits(table, tbuf)
        blobs.append((vbuf.getvalue(), tbuf.getvalue()))
    assert blobs[0] == blobs[1]


def test_requested_venue_count():
    table = generate_dataset(
        GeneratorConfig(n_venues=FIXTURE_N_VENUES, profile="lockdown", seed=FIXTURE_SEED)
    )
    assert len(table.venues) == FIXTURE_N_VENUES
    # one record per non-zero draw, in venue order, then hour
    assert (table.count > 0).all()
    assert (np.diff(record_rows_of(table) * 168 + table.hour) > 0).all()


def whole_matrix_dataset(config):
    """The generator's draws made with one rng.poisson call over every venue's rates, at
    its traffic level as it stands: (areas, drinking-place flags, rows, hours, counts) of
    the non-zero draws."""
    rng = np.random.default_rng(config.seed)
    n = config.n_venues
    lo, hi = AREA_RANGE_M2
    areas = np.exp(rng.uniform(math.log(lo), math.log(hi), size=n))
    is_bar = rng.random(size=n) < DRINKING_PLACE_SHARE
    popularity = rng.lognormal(mean=0.0, sigma=POPULARITY_SIGMA, size=n)
    level = 1.0 if config.profile == "lockdown" else PRE_PANDEMIC_LEVEL
    shape = np.array([DIURNAL_SHAPE[h % 24] for h in range(168)])
    draws = rng.poisson(synthetic.BASE_HOURLY_VISITS * level * popularity[:, None] * shape[None, :])
    rows, hours = np.nonzero(draws)
    return areas, is_bar, rows, hours, draws[rows, hours].astype(float)


@pytest.mark.parametrize("block", [1, 7, 4096])
@pytest.mark.parametrize("n_venues", [1, 7, 8, 13, 4099])
def test_blocked_draws_are_one_whole_matrix_draw(monkeypatch, block, n_venues):
    # Poisson draws block by block take the bit stream as one call over every venue
    # does, however the venues fall into blocks
    config = GeneratorConfig(n_venues, "pre_pandemic", seed=11)
    monkeypatch.setattr(synthetic, "_BLOCK_ROWS", block)
    table = generate_dataset(config)
    areas, is_bar, rows, hours, counts = whole_matrix_dataset(config)
    assert table.venues.areas.tobytes() == areas.tobytes()
    assert table.venues.categories == tuple(
        "drinking_place" if bar else "restaurant" for bar in is_bar.tolist()
    )
    assert record_rows_of(table).tolist() == rows.tolist()
    assert table.hour.tolist() == hours.tolist()
    # the same counts, held at the narrowest width that holds each exactly
    assert table.count.tolist() == counts.tolist()
    assert table.count.dtype == narrowest_count_dtype(counts)


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_a_draw_above_255_widens_the_counts_mid_dataset(monkeypatch, block):
    # at this traffic level venue 4 of seed 1 draws 500 visitors, after four venues whose
    # draws all fit one byte
    monkeypatch.setattr(synthetic, "BASE_HOURLY_VISITS", 5.0)
    monkeypatch.setattr(synthetic, "_BLOCK_ROWS", block)
    config = GeneratorConfig(13, "pre_pandemic", seed=1)
    table = generate_dataset(config)
    *_, rows, _, counts = whole_matrix_dataset(config)
    assert counts[rows < 4].max() < 256 <= counts[rows == 4].max()
    assert table.count.tolist() == counts.tolist()
    assert table.count.dtype == narrowest_count_dtype(counts) == np.float64


def test_generated_and_joined_records_share_dtypes():
    table = generate_dataset(GeneratorConfig(n_venues=30, profile="lockdown", seed=5))
    venue_sink, visit_sink = io.StringIO(), io.StringIO()
    write_venues(table.venues, venue_sink)
    write_visits(table, visit_sink)
    venues = parse_venues(io.StringIO(venue_sink.getvalue()))
    joined = join(venues, parse_visits(io.StringIO(visit_sink.getvalue())))
    for column in ("offsets", "hour", "count"):
        assert getattr(table, column).dtype == getattr(joined, column).dtype, column


def test_profiles_share_the_venue_table():
    lock = generate_dataset(GeneratorConfig(n_venues=200, profile="lockdown", seed=FIXTURE_SEED))
    pre = generate_dataset(GeneratorConfig(n_venues=200, profile="pre_pandemic", seed=FIXTURE_SEED))
    assert same_venues(lock.venues, pre.venues)


def test_pre_pandemic_busier_at_every_hour():
    lock = generate_dataset(
        GeneratorConfig(n_venues=FIXTURE_N_VENUES, profile="lockdown", seed=FIXTURE_SEED)
    )
    pre = generate_dataset(
        GeneratorConfig(n_venues=FIXTURE_N_VENUES, profile="pre_pandemic", seed=FIXTURE_SEED)
    )
    # SimulationInput checks no count: the draws must keep every count finite and >= 0
    for table in (lock, pre):
        assert np.isfinite(table.count).all() and (table.count >= 0).all()
    lock_mean = dense_counts(lock).mean(axis=0)
    pre_mean = dense_counts(pre).mean(axis=0)
    assert (pre_mean > lock_mean).all()


def test_areas_within_documented_range():
    config = GeneratorConfig(n_venues=500, profile="lockdown", seed=1)
    lo, hi = AREA_RANGE_M2
    for area in generate_dataset(config).venues.areas.tolist():
        assert lo <= area <= hi


DATAGEN = Path(__file__).resolve().parents[1] / "perfbench" / "datagen.py"


@pytest.mark.parametrize("profile", ["lockdown", "pre_pandemic"])
def test_gen_synthetic_rows_match_the_benchmark_generator(tmp_path, profile):
    # the benchmark checks gen-synthetic's bytes against its own NumPy generator;
    # this catches a drift at 2 000 venues in seconds
    spec = importlib.util.spec_from_file_location("datagen", DATAGEN)
    datagen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(datagen)
    data = datagen.generate(2000, profile, 42)
    out = tmp_path / "gen"
    assert main([
        "gen-synthetic", "--n-venues", "2000", "--profile", profile, "--seed", "42",
        "--out", str(out),
    ]) == 0

    def data_rows(name, header):
        comment, first, rest = (out / name).read_bytes().decode("utf-8").split("\n", 2)
        assert comment.startswith("# manifest_sha256: ") and first == header
        return rest

    assert data_rows("venues.csv", "venue_id,name,category,area") == datagen.venue_rows(data)
    assert data_rows("visits.csv", "venue_id,hour,count") == datagen.visit_rows(data)
