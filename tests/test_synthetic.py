import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

from venuerisk.ingest import write_venues, write_visits
from venuerisk.synthetic import GeneratorConfig, generate_dataset
from venuerisk.cli import main
from venuerisk.synthetic import AREA_RANGE_M2, DIURNAL_SHAPE
from conftest import FIXTURE_N_VENUES, FIXTURE_SEED, dense_counts, same_venues


def test_diurnal_shape_is_documented_and_positive():
    assert len(DIURNAL_SHAPE) == 24
    assert all(w > 0 for w in DIURNAL_SHAPE)
    assert sum(DIURNAL_SHAPE) / 24 == pytest.approx(1.0, rel=1e-12)


def test_same_seed_same_dataset():
    config = GeneratorConfig(n_venues=50, profile="lockdown", seed=7)
    first = generate_dataset(config)
    second = generate_dataset(config)
    assert same_venues(first.venues, second.venues)
    for column in ("row", "hour", "count"):
        assert np.array_equal(getattr(first, column), getattr(second, column))


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
    assert (np.diff(table.row.astype(np.int64) * 168 + table.hour) > 0).all()


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


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        GeneratorConfig(n_venues=0, profile="lockdown", seed=1)
    with pytest.raises(ValueError):
        GeneratorConfig(n_venues=5, profile="weekend", seed=1)


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
