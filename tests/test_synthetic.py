import io

import numpy as np
import pytest

from venuerisk import GeneratorConfig, generate_dataset, write_venues, write_visits
from venuerisk.synthetic import DIURNAL_SHAPE
from conftest import FIXTURE_N_VENUES, FIXTURE_SEED


def test_diurnal_shape_is_documented_and_positive():
    assert len(DIURNAL_SHAPE) == 24
    assert all(w > 0 for w in DIURNAL_SHAPE)
    assert sum(DIURNAL_SHAPE) / 24 == pytest.approx(1.0, rel=1e-12)


def test_same_seed_same_dataset():
    config = GeneratorConfig(n_venues=50, profile="lockdown", seed=7)
    first = generate_dataset(config)
    second = generate_dataset(config)
    assert first.venues == second.venues
    assert np.array_equal(first.counts, second.counts)


def test_same_seed_byte_identical_files():
    config = GeneratorConfig(n_venues=40, profile="pre_pandemic", seed=3)
    blobs = []
    for _ in range(2):
        table = generate_dataset(config)
        vbuf, tbuf = io.StringIO(), io.StringIO()
        write_venues(table.venues.values(), vbuf)
        write_visits(table, tbuf)
        blobs.append((vbuf.getvalue(), tbuf.getvalue()))
    assert blobs[0] == blobs[1]


def test_requested_venue_count():
    table = generate_dataset(
        GeneratorConfig(n_venues=FIXTURE_N_VENUES, profile="lockdown", seed=FIXTURE_SEED)
    )
    assert len(table.venues) == FIXTURE_N_VENUES
    assert table.counts.shape == (FIXTURE_N_VENUES, 168)


def test_profiles_share_the_venue_table():
    lock = generate_dataset(GeneratorConfig(n_venues=200, profile="lockdown", seed=FIXTURE_SEED))
    pre = generate_dataset(GeneratorConfig(n_venues=200, profile="pre_pandemic", seed=FIXTURE_SEED))
    assert lock.venues == pre.venues


def test_pre_pandemic_busier_at_every_hour():
    lock = generate_dataset(
        GeneratorConfig(n_venues=FIXTURE_N_VENUES, profile="lockdown", seed=FIXTURE_SEED)
    )
    pre = generate_dataset(
        GeneratorConfig(n_venues=FIXTURE_N_VENUES, profile="pre_pandemic", seed=FIXTURE_SEED)
    )
    lock_mean = lock.counts.mean(axis=0)
    pre_mean = pre.counts.mean(axis=0)
    assert (pre_mean > lock_mean).all()


def test_areas_within_documented_range():
    config = GeneratorConfig(n_venues=500, profile="lockdown", seed=1)
    lo, hi = config.area_range_m2
    for venue in generate_dataset(config).venues.values():
        assert lo <= venue.area <= hi


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        GeneratorConfig(n_venues=0, profile="lockdown", seed=1)
    with pytest.raises(ValueError):
        GeneratorConfig(n_venues=5, profile="weekend", seed=1)
