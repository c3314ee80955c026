"""Acceptance gate: one test per release criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL
lines. Criterion 8 checks, in exact rational arithmetic, that the
small-exponent probability is correctly rounded and that the exact value
meets the strict second-order bound (analysis in its docstring).
"""

import json
import math
import random
import statistics
from fractions import Fraction

import pytest

from venuerisk import (
    EpiParams,
    ScenarioConfig,
    Severity,
    classify,
    max_distanced_occupancy,
    run_scenario,
    simulate_week,
    welch_t_test,
    wells_riley_probability,
)
from venuerisk.cli import main as cli_main
from conftest import FIXTURE_N_VENUES, FIXTURE_SEED, hourly_of, make_input

SIX_FEET = 1.8288


def _report(num, ok, text):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}")


def _exact_probability(dose):
    """1 - exp(-dose) at 50 significant digits, via an independent library."""
    mp = pytest.importorskip("mpmath").mp
    import mpmath

    mp.dps = 50
    return 1 - mpmath.e ** (-mpmath.mpf(dose))


def test_criterion_1_wells_riley_exactness(default_params):
    """P(1 infector, q=20, p=0.48, t=1, V=300) == 1 - e^(-0.008) to 1e-12 relative."""
    computed = wells_riley_probability(1.0, default_params, 300.0)
    reference = float(_exact_probability("0.008"))
    ok = math.isclose(computed, reference, rel_tol=1e-12)
    _report(1, ok, f"P = {computed!r}, high-precision reference {reference!r}")
    assert ok


def test_criterion_2_pipeline_oracle(default_params):
    """50 visitors at prevalence 0.015 in a 300 m3 room: weekly ~ 0.294615 to 1e-9."""
    import mpmath

    sim = make_input({"cafe": 100.0}, {"cafe": {12: 50.0}})  # 100 m2 * 3 m = 300 m3
    weekly = simulate_week(sim, default_params).tolist()[0]
    reference = float(mpmath.mpf("49.25") * _exact_probability("0.006"))
    ok = math.isclose(weekly, reference, rel_tol=1e-9)
    _report(2, ok, f"weekly = {weekly!r}, hand-derived reference {reference!r}")
    assert ok


def test_criterion_3_distancing_cap_unit_disc():
    """A circular room of radius 6 ft admits exactly one person at 6 ft spacing."""
    area = math.pi * SIX_FEET ** 2
    cap = max_distanced_occupancy(area, SIX_FEET)
    ok = cap == 1
    _report(3, ok, f"cap(area={area!r} m2, spacing 6 ft) = {cap}")
    assert ok


def test_criterion_4_monotonicity_suite(default_params):
    """1000+ random tuples: P strictly monotone; capped runs never beat uncapped."""
    # tuples are drawn with the bumped dose below 20: past ~37 the
    # probability saturates within one ulp of 1 and float64 cannot
    # resolve a strict ordering any more
    rng = random.Random(4)
    checked = 0
    while checked < 1000:
        base = dict(
            infectors=rng.uniform(0.01, 50),
            q=rng.uniform(1, 100),
            p=rng.uniform(0.1, 2),
            t=rng.uniform(0.1, 8),
            ach=rng.uniform(1, 10),
            volume=rng.uniform(10, 5000),
        )
        bump = rng.uniform(1.2, 3.0)
        dose = (
            base["infectors"] * base["q"] * base["p"] * base["t"]
            / (base["ach"] * base["volume"])
        )
        if dose * bump > 20.0:
            continue

        def prob(infectors, q, p, t, ach, volume):
            params = EpiParams(documented_prevalence=0.001, q=q, p=p, t=t, ach=ach)
            return wells_riley_probability(infectors, params, volume)

        reference = prob(**base)
        for key in ("infectors", "q", "p", "t"):
            assert prob(**{**base, key: base[key] * bump}) > reference
        assert prob(**{**base, "volume": base["volume"] * bump}) < reference
        checked += 1

    # paired capped vs uncapped re-simulation over random venues
    areas = {f"v{i}": rng.uniform(20, 1500) for i in range(60)}
    counts = {
        vid: {h: rng.uniform(0, 30) for h in range(0, 168, rng.randrange(1, 7))}
        for vid in areas
    }
    base_input = make_input(areas, counts)
    pair_checks = 0
    for spacing in (0.5, 1.0, SIX_FEET, 3.0):
        uncapped = run_scenario(
            base_input, ScenarioConfig(name="u", sampling_factor=10.0), default_params
        )
        capped = run_scenario(
            base_input,
            ScenarioConfig(name="c", sampling_factor=10.0, spacing=spacing),
            default_params,
        )
        for capped_weekly, uncapped_weekly in zip(capped, uncapped):
            assert capped_weekly <= uncapped_weekly
            pair_checks += 1
    ok = checked >= 1000 and pair_checks >= 200
    _report(4, ok, f"{checked} monotonicity tuples, {pair_checks} capped-vs-uncapped pairs")
    assert ok


def test_criterion_5_directional_reproduction(fixture_inputs, default_params):
    """Pre-pandemic traffic: strictly more severe venues, right-shifted
    distribution, and equality rejected at the 99% level on the shipped
    1034-venue fixture (seed pinned in conftest)."""
    weekly_lockdown = simulate_week(fixture_inputs["lockdown"], default_params).tolist()
    weekly_pre = simulate_week(fixture_inputs["pre_pandemic"], default_params).tolist()
    severe_lockdown = sum(1 for w in weekly_lockdown if classify(w) is Severity.SEVERE)
    severe_pre = sum(1 for w in weekly_pre if classify(w) is Severity.SEVERE)

    comparison = welch_t_test(weekly_pre, weekly_lockdown)
    mean_pre, mean_lockdown = statistics.fmean(weekly_pre), statistics.fmean(weekly_lockdown)
    mean_shift = mean_pre > mean_lockdown
    median_shift = sorted(weekly_pre)[len(weekly_pre) // 2] > sorted(weekly_lockdown)[
        len(weekly_lockdown) // 2
    ]

    ok = (
        severe_pre > severe_lockdown
        and mean_shift
        and median_shift
        and comparison.p_value < 0.01
    )
    _report(
        5,
        ok,
        f"severe {severe_lockdown} -> {severe_pre}, means {mean_lockdown:.4f} -> "
        f"{mean_pre:.4f}, p = {comparison.p_value:.3e}",
    )
    assert ok
    # freeze the shipped-fixture behavior (values pinned from the first run;
    # small tolerance on p covers libm ulp differences across platforms)
    assert len(weekly_lockdown) == FIXTURE_N_VENUES
    assert severe_lockdown == 8
    assert severe_pre == 102
    assert comparison.p_value == pytest.approx(2.5412660122227383e-17, rel=1e-6)


def test_criterion_6_t_test_oracle(fixture_inputs, default_params):
    """t, df, p match a direct-formula + 50-digit incomplete-beta reference to 1e-8."""
    import mpmath

    def reference_welch(a, b):
        mp = mpmath.mp
        mp.dps = 50
        na, nb = len(a), len(b)
        mean_a = mpmath.fsum(a) / na
        mean_b = mpmath.fsum(b) / nb
        var_a = mpmath.fsum((mpmath.mpf(x) - mean_a) ** 2 for x in a) / (na - 1)
        var_b = mpmath.fsum((mpmath.mpf(x) - mean_b) ** 2 for x in b) / (nb - 1)
        qa, qb = var_a / na, var_b / nb
        t = (mean_a - mean_b) / mpmath.sqrt(qa + qb)
        df = (qa + qb) ** 2 / (qa**2 / (na - 1) + qb**2 / (nb - 1))
        x = df / (df + t**2)
        p = mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, x, regularized=True)
        return float(t), float(df), float(p)

    weekly_lockdown = simulate_week(fixture_inputs["lockdown"], default_params).tolist()
    weekly_pre = simulate_week(fixture_inputs["pre_pandemic"], default_params).tolist()
    samples = [
        ([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 3.0, 4.0, 5.0, 6.0]),
        ([0.1, 0.5, 0.2, 0.9], [1.4, 0.3, 2.2, 0.05, 0.6]),
        (weekly_pre[:200], weekly_lockdown[:200]),
        (weekly_pre, weekly_lockdown),
    ]
    worst = 0.0
    for a, b in samples:
        mine = welch_t_test(a, b)
        t_ref, df_ref, p_ref = reference_welch(a, b)
        for got, ref in (
            (mine.t_stat, t_ref),
            (mine.degrees_of_freedom, df_ref),
            (mine.p_value, p_ref),
        ):
            rel = abs(got - ref) / abs(ref)
            worst = max(worst, rel)
            assert rel <= 1e-8

    identical = welch_t_test(weekly_lockdown, weekly_lockdown)
    exact = identical.t_stat == 0.0 and identical.p_value == 1.0
    ok = exact and worst <= 1e-8
    _report(6, ok, f"worst relative error {worst:.2e}; identical sample t=0, p=1 exact")
    assert ok


def test_criterion_7_conservation_and_determinism(
    fixture_inputs, default_params, tmp_path
):
    """weekly == sum(hourly) to 1e-9 relative everywhere; CLI reruns byte-identical."""
    worst = 0.0
    for sim_input in fixture_inputs.values():
        weekly_all = simulate_week(sim_input, default_params)
        for hourly, weekly in zip(hourly_of(sim_input, default_params), weekly_all):
            total = math.fsum(hourly)
            if total == 0.0:
                assert weekly == 0.0
                continue
            rel = abs(weekly - total) / abs(total)
            worst = max(worst, rel)
            assert rel <= 1e-9

    data = tmp_path / "fixture"
    assert cli_main(
        ["gen-synthetic", "--n-venues", str(FIXTURE_N_VENUES), "--profile", "lockdown",
         "--seed", str(FIXTURE_SEED), "--out", str(data)]
    ) == 0
    report_names = ("venue_results.csv", "summary.json", "histogram.csv")
    runs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert cli_main(
            ["simulate", "--venues", str(data / "venues.csv"),
             "--visits", str(data / "visits.csv"),
             "--prevalence", "0.001", "--out", str(out)]
        ) == 0
        runs.append(out)
    identical = all(
        (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
        for name in report_names
    )
    manifests = [json.loads((run / "manifest.json").read_text()) for run in runs]
    for manifest in manifests:
        manifest.pop("timestamp")
    identical = identical and manifests[0] == manifests[1]

    ok = identical and worst <= 1e-9
    _report(7, ok, f"worst conservation error {worst:.2e}; reruns byte-identical: {identical}")
    assert ok


def test_criterion_8_stable_small_exponent():
    """For dose x = 1e-12, P is the correctly rounded 1 - exp(-x) and the
    exact P satisfies |P - x| <= x^2/2.

    The bound is exact-arithmetic: the true deviation is
    x^2/2 - x^3/6 + ..., so the exact P lies only x^3/6 ~ 1.7e-37 inside
    it, nine orders below ulp(x) ~ 2.0e-28. Read literally on the binary64
    result, the bound cannot be met by an accurate evaluation: the
    correctly rounded P lies 0.12 ulp below the exact value and so
    2.4e-29 outside the bound, and the only double inside it is the next
    one up, 0.88 ulp from the exact value.

    The criterion is therefore checked in exact rational arithmetic on
    the exact binary64 input X = Fraction(x) (the decimal 1e-12 is a
    different input, ~0.1 ulp away). The alternating Taylor series
    encloses the exact P in [hi - X^4/24, hi] with
    hi = X - X^2/2 + X^3/6. The bound X^2/2 is asserted with no slack at
    both ends of the enclosure, and the binary64 P must lie within half
    an ulp of every point of it, i.e. be correctly rounded. This rejects
    the rounded-up double that met the literal bound, the next double
    down, P = x, and the naive 1 - exp(-x), which cancels and misses the
    bound by more than six orders of magnitude.
    """
    x = 1e-12
    params = EpiParams(documented_prevalence=0.001, q=1.0, p=1.0, ach=1.0, t=1.0)
    computed = wells_riley_probability(x, params, 1.0)  # dose is exactly x
    naive = 1.0 - math.exp(-x)
    bound = x * x / 2

    X = Fraction(x)
    exact_bound = X * X / 2
    hi = X - X**2 / 2 + X**3 / 6
    lo = hi - X**4 / 24  # exact P = -expm1(-X) lies in [lo, hi]
    assert computed != 0.0
    assert abs(naive - x) > 1e6 * bound

    margin = exact_bound - max(abs(end - X) for end in (lo, hi))
    within_bound = margin >= 0
    half_ulp = Fraction(math.ulp(computed)) / 2
    correctly_rounded = all(abs(Fraction(computed) - end) <= half_ulp for end in (lo, hi))
    ulps_off = (Fraction(computed) - (lo + hi) / 2) / Fraction(math.ulp(x))

    ok = within_bound and correctly_rounded
    _report(
        8,
        ok,
        f"exact P inside x^2/2 by {float(margin):.2e}; P - exact = "
        f"{float(ulps_off):+.2f} ulp; naive evaluation error {abs(naive - x):.1e}",
    )
    assert within_bound, f"exact P misses x^2/2 by {float(-margin):.2e}"
    assert correctly_rounded, (
        f"P = {computed!r} is {float(ulps_off):+.2f} ulp from the exact "
        "1 - exp(-x); a correctly rounded result is within 0.5 ulp"
    )
