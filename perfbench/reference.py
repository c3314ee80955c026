"""Workload inputs and the independent NumPy/SciPy reference for their outputs.

Usage:
    python3 perfbench/reference.py prepare WORKLOAD N_VENUES SEED WORKDIR
    python3 perfbench/reference.py contract

``prepare`` writes a workload's input files into WORKDIR together with
``expected.json``: the CLI arguments to run and every figure ``oracle.py``
checks the reports against. It runs in its own process, so the benchmark
process never grows: a child's ``ru_maxrss`` on Linux starts at its parent's
peak, which would otherwise leak into the measured peak RSS.

Nothing here imports ``venuerisk``: the expected figures come from the
generated arrays and the model's formulas, so a change to the package cannot
move the reference along with its own output. ``contract`` checks this
reference against the acceptance figures of the 1 034-venue fixture.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.special import betainc

import datagen

# the CLI's defaults for every parameter the benchmark does not pass
DOCUMENTED_PREVALENCE = 0.001
UNDERREPORT_FACTOR = 15.0
Q = 20.0  # quanta/h
P = 0.48  # m3/h
ACH = 4.0  # 1/h
CEILING_HEIGHT = 3.0  # m
T = 1.0  # h
SAMPLING_FACTOR = 10.0
SEVERITY_THRESHOLD = 1.0
SIX_FEET_M = 6.0 * 0.3048

_BELOW_ONE = math.nextafter(1.0, 0.0)

FIXTURE_VENUES = 1034
FIXTURE_SEED = 42
CONTRACT_SEVERE = (8, 102)  # lockdown -> pre-pandemic, acceptance criterion 5
CONTRACT_P = 2.5412660122227383e-17
CONTRACT_P_RTOL = 1e-6


def weekly_infections(visitors: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """Wells-Riley expected infections per venue, summed over the window.

    ``visitors`` is the corrected [venue, hour] matrix; each cell's cohort
    holds I = v * prevalence infectors and S = v - I susceptibles and yields
    S * min(-expm1(-dose), 1-) with dose = I q p t / (ach * volume).
    """
    prevalence = min(1.0, DOCUMENTED_PREVALENCE * UNDERREPORT_FACTOR)
    ventilation = (ACH * (areas * CEILING_HEIGHT))[:, None]
    infectors = visitors * prevalence
    dose = infectors * Q * P * T / ventilation
    probability = np.minimum(-np.expm1(-dose), _BELOW_ONE)
    return ((visitors - infectors) * probability).sum(axis=1)


def distanced_cap(areas: np.ndarray, spacing_m: float) -> np.ndarray:
    """floor(area / (pi * s^2)): one exclusion disc of radius s per person."""
    return np.floor(areas / (math.pi * spacing_m * spacing_m))


def severe_count(weekly: np.ndarray) -> int:
    return int(np.count_nonzero(weekly > SEVERITY_THRESHOLD))


@dataclass(frozen=True)
class Welch:
    t_stat: float
    degrees_of_freedom: float
    p_value: float


def welch(a: np.ndarray, b: np.ndarray) -> Welch:
    na, nb = a.size, b.size
    qa = a.var(ddof=1) / na
    qb = b.var(ddof=1) / nb
    t_stat = float((a.mean() - b.mean()) / math.sqrt(qa + qb))
    df = float((qa + qb) ** 2 / (qa * qa / (na - 1) + qb * qb / (nb - 1)))
    p_value = float(betainc(0.5 * df, 0.5, df / (df + t_stat * t_stat)))
    return Welch(t_stat, df, p_value)


def _scenario_summary(weekly: np.ndarray) -> dict:
    severe = severe_count(weekly)
    return {
        "severe_count": severe,
        "mild_count": int(weekly.size) - severe,
        "mean_weekly_infections": math.fsum(weekly.tolist()) / weekly.size,
    }


def _corrected(data: datagen.Dataset) -> np.ndarray:
    return data.counts * SAMPLING_FACTOR


# ---------------------------------------------------------------------------
# workloads: inputs on disk plus the expected figures
# ---------------------------------------------------------------------------

def prepare_simulate(n: int, seed: int, work: Path) -> dict:
    lock = datagen.generate(n, "lockdown", seed)
    datagen.write_venues(lock, work / "venues.csv")
    rows = datagen.write_visits(lock, work / "visits_lockdown.csv")
    weekly = weekly_infections(_corrected(lock), lock.areas)
    return {
        "args": ["simulate", "--venues", "venues.csv", "--visits", "visits_lockdown.csv",
                 "--prevalence", "0.001"],
        "visit_rows": rows,
        "check": "simulate",
        "weekly": weekly.tolist(),
        "total_expected_infections": math.fsum(weekly.tolist()),
        **_scenario_summary(weekly),
    }


def prepare_compare(n: int, seed: int, work: Path) -> dict:
    lock = datagen.generate(n, "lockdown", seed)
    pre = datagen.generate(n, "pre_pandemic", seed)
    datagen.write_venues(lock, work / "venues.csv")
    rows = datagen.write_visits(lock, work / "visits_lockdown.csv")
    rows += datagen.write_visits(pre, work / "visits_prepandemic.csv")
    (work / "scenario_a.txt").write_text(
        "name = lockdown_distanced\nvisits = baseline\nsampling_factor = 10\nspacing = 6ft\n",
        encoding="utf-8",
    )
    (work / "scenario_b.txt").write_text(
        "name = reopened\nvisits = visits_prepandemic.csv\nsampling_factor = 10\n",
        encoding="utf-8",
    )
    cap = distanced_cap(lock.areas, SIX_FEET_M)
    weekly_a = weekly_infections(np.minimum(_corrected(lock), cap[:, None]), lock.areas)
    weekly_b = weekly_infections(_corrected(pre), pre.areas)
    return {
        "args": ["compare", "--venues", "venues.csv", "--visits", "visits_lockdown.csv",
                 "--scenario-a", "scenario_a.txt", "--scenario-b", "scenario_b.txt",
                 "--prevalence", "0.001"],
        "visit_rows": rows,
        "check": "compare",
        "scenario_a": _scenario_summary(weekly_a),
        "scenario_b": _scenario_summary(weekly_b),
        **asdict(welch(weekly_a, weekly_b)),
    }


def prepare_gen(n: int, seed: int, work: Path) -> dict:
    pre = datagen.generate(n, "pre_pandemic", seed)
    datagen.write_venues(pre, work / "expected_venues.csv")
    rows = datagen.write_visits(pre, work / "expected_visits.csv")
    return {
        "args": ["gen-synthetic", "--n-venues", str(n), "--profile", "pre_pandemic",
                 "--seed", str(seed)],
        "visit_rows": rows,
        "check": "generated",
        "venues.csv": "expected_venues.csv",
        "visits.csv": "expected_visits.csv",
    }


PREPARE = {
    "simulate_lockdown_50k": prepare_simulate,
    "compare_reopen_50k": prepare_compare,
    "gen_prepandemic_50k": prepare_gen,
}


def contract() -> bool:
    """Lockdown vs pre-pandemic on the fixture: 8 -> 102 severe, p = 2.54e-17."""
    n, seed = FIXTURE_VENUES, FIXTURE_SEED
    lock = datagen.generate(n, "lockdown", seed)
    pre = datagen.generate(n, "pre_pandemic", seed)
    weekly_lock = weekly_infections(_corrected(lock), lock.areas)
    weekly_pre = weekly_infections(_corrected(pre), pre.areas)
    severe = (severe_count(weekly_lock), severe_count(weekly_pre))
    p_value = welch(weekly_pre, weekly_lock).p_value
    ok = severe == CONTRACT_SEVERE and math.isclose(p_value, CONTRACT_P, rel_tol=CONTRACT_P_RTOL)
    print(f"reference at {n} venues, seed {seed}: severe {severe[0]} -> {severe[1]}, "
          f"p = {p_value!r} (contract: {CONTRACT_SEVERE[0]} -> {CONTRACT_SEVERE[1]}, "
          f"p = {CONTRACT_P!r} within {CONTRACT_P_RTOL} relative): {'PASS' if ok else 'FAIL'}")
    return ok


def main(argv: list[str]) -> int:
    if argv[:1] == ["contract"]:
        return 0 if contract() else 1
    if len(argv) != 5 or argv[0] != "prepare" or argv[1] not in PREPARE:
        print(__doc__, file=sys.stderr)
        return 2
    workload, n, seed, work = argv[1], int(argv[2]), int(argv[3]), Path(argv[4])
    expected = {**PREPARE[workload](n, seed, work), "numpy": np.__version__}
    (work / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
