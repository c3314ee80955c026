"""Hotspot classification, histograms, and the two-sample t-test.

:func:`severity_labels` holds the one severity rule; every severe or
mild count and label in the reports comes from it. Neither it nor
:func:`classify` checks the values it labels, and :func:`welch_t_test`
takes its samples as finite: the weekly values are checked where they
are made, by :func:`~venuerisk.scenario.run_scenario` (finite, with a
finite total) and by :func:`~venuerisk.ingest.parse_results` (finite and
>= 0). :func:`histogram` takes a bin count that the ``--bins`` flag has
checked. A direct caller checks its own values.

The t-test is Welch's unequal-variance form: the two scenario
distributions typically have very different spreads, and a test that
assumes equal variances would be wrong for them. Two-sided p-values
come from the Student-t distribution evaluated through the regularized
incomplete beta function implemented below, so the test carries no
external numerical dependency.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_LARGEST = sys.float_info.max


class Severity(str, enum.Enum):
    """Hotspot label: severe venues exceed the weekly-infection threshold."""

    MILD = "mild"
    SEVERE = "severe"


class Scale(str, enum.Enum):
    """Histogram binning scale."""

    LINEAR = "linear"
    LOG10 = "log10"


@dataclass(frozen=True)
class Histogram:
    """Equal-width binning of a value set, in linear or log10 space.

    ``bin_edges`` are always in original units (for log10 they are
    geometrically spaced). ``excluded_count`` holds every input value
    that landed in no bin: non-finite values, non-positives on a log
    scale, and values outside a ``value_range`` given by hand. A range
    derived from the data, the default or a :func:`combined_range`,
    leaves no binnable value out. Conservation holds by construction:
    sum(counts) + excluded_count == number of inputs.
    """

    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    scale: Scale
    excluded_count: int = 0


@dataclass(frozen=True)
class ComparisonResult:
    """Welch's t statistic, its degrees of freedom and its two-sided p-value."""

    t_stat: float
    degrees_of_freedom: float
    p_value: float


# the labels as 0-d object arrays: a label array then holds references to these two
# strings, and its list makes no string of its own per venue
_SEVERE, _MILD = (np.array(s.value, dtype=object) for s in (Severity.SEVERE, Severity.MILD))


def severity_labels(weekly: np.ndarray | float, threshold: float) -> np.ndarray:
    """The ``Severity`` value of each weekly expected-infections value, in an array of its shape.

    The array holds objects: every entry is one of the two value strings.
    A value is severe when it exceeds ``threshold`` and mild otherwise.
    The comparison is strict, so a venue sitting exactly on the
    threshold is mild. This is the one severity rule: every count and
    label in the reports comes from it.
    """
    return np.where(weekly > threshold, _SEVERE, _MILD)


def classify(weekly_infections: float, threshold: float = 1.0) -> Severity:
    """One venue's label under :func:`severity_labels`, for a value that is finite and >= 0.

    The value is not checked here: :func:`~venuerisk.ingest.parse_results`
    checks each value ``hotspots`` labels, naming the file and line.
    """
    return Severity(severity_labels(weekly_infections, threshold).item())


def histogram(
    values: Sequence[float] | np.ndarray,
    bins: int,
    scale: Scale | str = Scale.LINEAR,
    value_range: tuple[float, float] | None = None,
) -> Histogram:
    """Bin values into ``bins`` equal-width intervals in the chosen scale.

    Bins are half-open with the last bin closed on the right. By default
    the edges span [min, max] of the binnable values; pass
    ``value_range`` to align histograms from different samples for
    overlay plots. The range is in binning units, log10 of the value on
    the log10 scale, as :func:`combined_range` gives it. On the log10
    scale, zeros and negatives cannot be binned and are counted in
    ``excluded_count`` instead of being silently dropped. ``bins`` must
    be at least 1; it is checked where it is made, by the ``--bins``
    flag.
    """
    scale = Scale(scale)
    arr = np.asarray(values, dtype=float)
    points = _binning_points(arr, scale)
    if points.size == 0:
        return Histogram(bin_edges=(), counts=(), scale=scale, excluded_count=arr.size)

    lo, hi = value_range if value_range is not None else (points.min().item(), points.max().item())
    lo, hi = float(lo), float(hi)
    if lo == hi:
        # all values identical: one degenerate bin, edges nudged apart but kept finite
        pad = sys.float_info.epsilon * max(1.0, abs(lo))
        edges = np.array([max(lo - pad, -_LARGEST), min(hi + pad, _LARGEST)])
    elif max(abs(lo), abs(hi)) > _LARGEST / 4:
        # the range, a step or an edge would overflow: the same edges, computed at a
        # quarter of the size, where scaling by a power of two is exact
        edges = np.linspace(lo / 4, hi / 4, bins + 1) * 4
    else:
        edges = np.linspace(lo, hi, bins + 1)

    counts, _ = np.histogram(points, bins=edges)
    if scale is Scale.LOG10:
        # 10 ** log10(x) can round past the largest double; every value is below it
        with np.errstate(over="ignore"):
            edges = np.minimum(10.0 ** edges, _LARGEST)
    return Histogram(
        bin_edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
        scale=scale,
        excluded_count=arr.size - int(counts.sum()),
    )


def _binning_points(values: np.ndarray, scale: Scale) -> np.ndarray:
    """The values a histogram on ``scale`` can bin, in binning units.

    Those are the finite values; on the log10 scale only the positive
    ones, through ``np.log10``.
    """
    mask = np.isfinite(values)
    if scale is Scale.LOG10:
        mask &= values > 0
        return np.log10(values[mask])
    return values[mask]


def combined_range(
    samples: Sequence[np.ndarray], scale: Scale | str
) -> tuple[float, float] | None:
    """The [min, max] of every sample's binnable values, in :func:`histogram`'s binning units.

    Passed as :func:`histogram`'s ``value_range``, it puts the samples'
    histograms on the same bins, so they overlay. It is taken from the
    same values the histograms bin, so it leaves none of them out; for
    one sample it is the range :func:`histogram` derives by default.
    None when no sample has a value to bin.
    """
    pool = _binning_points(np.concatenate(samples), Scale(scale))
    return (pool.min().item(), pool.max().item()) if pool.size else None


def welch_t_test(
    a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray
) -> ComparisonResult:
    """Welch's two-sample, two-sided t-test on independent samples.

    The unequal-variance statistic with Welch-Satterthwaite degrees of
    freedom. Swapping the samples negates t and preserves p.

    Every value must be finite. That is not checked here but where the
    values are made: :func:`~venuerisk.scenario.run_scenario` checks
    each weekly value it gives, naming the scenario.

    Raises:
        ValueError: a sample has fewer than 2 values or has zero
            variance; or a variance, or the degrees of freedom,
            overflows. Exception: when both samples are constant with
            equal means the test degenerates to t = 0, p = 1 by
            convention (documented), with
            degrees_of_freedom = len(a) + len(b) - 2.
    """
    xs = np.asarray(a, dtype=float)
    ys = np.asarray(b, dtype=float)
    na, nb = xs.size, ys.size
    if na < 2 or nb < 2:
        raise ValueError(f"each sample needs at least 2 values, got {na} and {nb}")

    mean_a, var_a = _mean_and_variance(xs, "a")
    mean_b, var_b = _mean_and_variance(ys, "b")

    if var_a == 0.0 and var_b == 0.0:
        if mean_a == mean_b:
            return ComparisonResult(t_stat=0.0, degrees_of_freedom=float(na + nb - 2), p_value=1.0)
        raise ValueError("both samples have zero variance with unequal means")
    if var_a == 0.0 or var_b == 0.0:
        raise ValueError(f"sample {'a' if var_a == 0.0 else 'b'} has zero variance")

    qa = var_a / na
    qb = var_b / nb
    t_stat = (mean_a - mean_b) / math.sqrt(qa + qb)
    try:
        df = (qa + qb) ** 2 / (qa * qa / (na - 1) + qb * qb / (nb - 1))
    except OverflowError:  # raised by the float power, where a product would give inf
        raise ValueError("the degrees of freedom overflow: the variances are too large") from None
    return ComparisonResult(
        t_stat=t_stat, degrees_of_freedom=df, p_value=student_t_two_sided_p(t_stat, df)
    )


def _mean_and_variance(x: np.ndarray, name: str) -> tuple[float, float]:
    """Mean and sample variance of the finite sample ``name``.

    The mean is ``fsum(x) / n``, bit for bit ``statistics.fmean``; the
    variance is the ``fsum`` of the squared deviations over ``n - 1``. A
    constant sample (min == max) has variance exactly 0, even where its
    mean is not exactly its value.

    Raises:
        ValueError: the variance overflows; the message names the sample.
    """
    n = x.size
    mean = math.fsum(x) / n
    if x.min() == x.max():
        return mean, 0.0
    with np.errstate(over="ignore"):
        squares = (x - mean) ** 2
    try:
        variance = math.fsum(squares) / (n - 1)
    except OverflowError:  # a partial sum overflowed
        variance = math.inf
    if not math.isfinite(variance):
        raise ValueError(f"the variance of sample {name} overflows to infinity")
    return mean, variance


def student_t_two_sided_p(t_stat: float, df: float) -> float:
    """Two-sided tail probability of the Student-t distribution.

    Uses the identity p = I_x(df/2, 1/2) with x = df / (df + t^2), where
    I is the regularized incomplete beta function.
    """
    if not (math.isfinite(df) and df > 0):
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if not math.isfinite(t_stat):
        raise ValueError(f"t statistic must be finite, got {t_stat}")
    x = df / (df + t_stat * t_stat)
    p = regularized_incomplete_beta(0.5 * df, 0.5, x)
    return min(1.0, max(0.0, p))


# the shape a from which ln Γ(a + b) - ln Γ(a) is taken from Stirling's series: the
# difference of the two lgamma values loses about eps * a * ln(a) to cancellation, which
# is 1.3e-10 here, and up to 12 times that as 1 - I_{1-x}(b, a) past the fraction's
# switch point: near 1e6 that is above criterion 6's 1e-8. Below, lgamma is exact enough,
# and the p-values of the runs at hand keep their bits
_STIRLING_FROM = 1e5


def _log_gamma_ratio(a: float, b: float) -> float:
    """ln Γ(a + b) - ln Γ(a), for a > 0 and b > 0.

    From ``_STIRLING_FROM`` on, it is Stirling's series
    ln Γ(z) = (z - 1/2) ln z - z + ln(2π)/2 + 1/(12 z) - 1/(360 z^3) + ...
    taken at a + b less at a, with the large terms put together first:
    (a - 1/2) log1p(b/a) + b ln(a + b) - b, which has no cancellation.
    The terms left out are below 1e-27 there.
    """
    if a < _STIRLING_FROM:
        return math.lgamma(a + b) - math.lgamma(a)

    def tail(z):
        return (1.0 / 12.0 - 1.0 / (360.0 * z * z)) / z

    return (a - 0.5) * math.log1p(b / a) + b * math.log(a + b) - b + (tail(a + b) - tail(a))


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), evaluated by the standard continued-fraction expansion.

    The fraction converges quickly for x < (a+1)/(a+b+2); the symmetry
    I_x(a, b) = 1 - I_{1-x}(b, a) covers the other half of the domain.
    The front factor's ln Γ(a + b) - ln Γ(a) comes from
    :func:`_log_gamma_ratio`, which keeps it accurate for large a.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = _log_gamma_ratio(a, b) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # modified Lentz iteration; FLOOR guards against division by ~0
    FLOOR = 1e-300
    max_iterations = 300
    eps = np.finfo(float).eps

    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < FLOOR:
        d = FLOOR
    d = 1.0 / d
    h = d
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        # the even then the odd step of the fraction, each one Lentz update
        for coeff in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + coeff * d
            if abs(d) < FLOOR:
                d = FLOOR
            c = 1.0 + coeff / c
            if abs(c) < FLOOR:
                c = FLOOR
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")

