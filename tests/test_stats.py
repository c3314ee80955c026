import math
import random

import numpy as np
import pytest

from venuerisk import Severity, classify, welch_t_test
from venuerisk.stats import (
    combined_range,
    histogram,
    regularized_incomplete_beta,
    student_t_two_sided_p,
)

# frozen from scipy.stats.ttest_ind(a, b, equal_var=False) and confirmed
# with a 50-digit incomplete-beta evaluation
WELCH_SHIFTED_P = 0.34659350708733416


class TestClassify:
    def test_above_threshold_is_severe(self):
        assert classify(1.5) is Severity.SEVERE

    def test_below_threshold_is_mild(self):
        assert classify(0.3) is Severity.MILD

    def test_boundary_is_mild(self):
        assert classify(1.0) is Severity.MILD

    def test_custom_threshold(self):
        assert classify(1.5, threshold=2.0) is Severity.MILD

    def test_monotone(self):
        rank = {Severity.MILD: 0, Severity.SEVERE: 1}
        rng = random.Random(2)
        for _ in range(500):
            x = rng.uniform(0, 3)
            y = x + rng.uniform(0, 3)
            assert rank[classify(x)] <= rank[classify(y)]


class TestHistogram:
    def test_linear_hand_binning(self):
        hist = histogram([1, 2, 3, 4], bins=2)
        assert hist.bin_edges == (1.0, 2.5, 4.0)
        assert hist.counts == (2, 2)
        assert hist.excluded_count == 0

    def test_degenerate_single_bin(self):
        hist = histogram([5.0, 5.0, 5.0], bins=4)
        assert len(hist.counts) == 1
        assert hist.counts == (3,)
        assert hist.bin_edges[0] < 5.0 < hist.bin_edges[1]

    def test_log10_hand_binning(self):
        hist = histogram([0.1, 1.0, 10.0], bins=2, scale="log10")
        assert hist.bin_edges == pytest.approx((0.1, 1.0, 10.0), rel=1e-12)
        # boundary value 1 goes to the second bin by the half-open rule
        assert hist.counts == (1, 2)

    def test_log10_excludes_nonpositive(self):
        hist = histogram([0.0, -1.0, 0.5, 2.0], bins=1, scale="log10")
        assert hist.excluded_count == 2
        assert sum(hist.counts) == 2

    def test_empty_included_set_flagged(self):
        hist = histogram([0.0, 0.0], bins=3, scale="log10")
        assert hist.counts == ()
        assert hist.excluded_count == 2

    def test_conservation(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randrange(1, 60)
            values = [rng.choice([0.0, rng.uniform(-5, 5), float("nan")]) for _ in range(n)]
            scale = rng.choice(["linear", "log10"])
            hist = histogram(values, bins=rng.randrange(1, 10), scale=scale)
            assert sum(hist.counts) + hist.excluded_count == n

    def test_explicit_range_aligns_edges(self):
        a = histogram([1.0, 2.0], bins=4, value_range=(0.0, 10.0))
        b = histogram([7.0, 9.5], bins=4, value_range=(0.0, 10.0))
        assert a.bin_edges == b.bin_edges

    def test_out_of_range_counts_as_excluded(self):
        hist = histogram([1.0, 5.0, 20.0], bins=2, value_range=(0.0, 10.0))
        assert sum(hist.counts) == 2
        assert hist.excluded_count == 1

    def test_all_inputs_binned_exactly_once(self):
        rng = np.random.default_rng(4)
        values = rng.normal(0, 2, size=500)
        hist = histogram(values, bins=17)
        assert sum(hist.counts) == 500

    @pytest.mark.parametrize(
        "scale, expected", [("linear", (-1.0, 5.0)), ("log10", (np.log10(0.5), np.log10(5.0)))]
    )
    def test_combined_range_spans_what_both_histograms_bin(self, scale, expected):
        a = np.array([0.0, 0.5, math.nan, math.inf])
        b = np.array([-1.0, 5.0, -math.inf])
        span = combined_range([a, b], scale)
        assert span == expected
        hist_a = histogram(a, bins=3, scale=scale, value_range=span)
        hist_b = histogram(b, bins=3, scale=scale, value_range=span)
        assert hist_a.bin_edges == hist_b.bin_edges
        # each value the shared range leaves out is one the histogram cannot bin
        assert (hist_a.excluded_count, hist_b.excluded_count) == (
            histogram(a, bins=3, scale=scale).excluded_count,
            histogram(b, bins=3, scale=scale).excluded_count,
        )

    def test_combined_range_none_when_nothing_can_be_binned(self):
        assert combined_range([np.array([0.0, -2.0]), np.array([math.nan])], "log10") is None
        assert combined_range([np.array([]), np.array([])], "linear") is None
        assert combined_range([np.array([])], "linear") is None


class TestWelchTTest:
    def test_identical_samples(self):
        result = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.t_stat == 0.0
        assert result.p_value == 1.0

    def test_shifted_samples_reference_values(self):
        result = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert result.t_stat == pytest.approx(-1.0, abs=1e-12)
        assert result.degrees_of_freedom == pytest.approx(8.0, abs=1e-12)
        assert result.p_value == pytest.approx(WELCH_SHIFTED_P, rel=1e-10)

    def test_swap_negates_t_preserves_p(self):
        a = [1.2, 3.4, 2.2, 5.1]
        b = [2.0, 2.5, 7.5, 0.1, 4.4]
        fwd = welch_t_test(a, b)
        rev = welch_t_test(b, a)
        assert rev.t_stat == -fwd.t_stat
        assert rev.p_value == fwd.p_value
        assert rev.degrees_of_freedom == fwd.degrees_of_freedom

    def test_location_and_scale_invariance(self):
        rng = random.Random(31)
        for _ in range(100):
            a = [rng.gauss(0, 1) for _ in range(rng.randrange(3, 12))]
            b = [rng.gauss(0.5, 2) for _ in range(rng.randrange(3, 12))]
            base = welch_t_test(a, b)
            shift = rng.uniform(-50, 50)
            shifted = welch_t_test([x + shift for x in a], [x + shift for x in b])
            assert shifted.t_stat == pytest.approx(base.t_stat, rel=1e-10, abs=1e-10)
            assert shifted.degrees_of_freedom == pytest.approx(base.degrees_of_freedom, rel=1e-10)
            assert shifted.p_value == pytest.approx(base.p_value, rel=1e-10, abs=1e-12)
            scale = rng.uniform(0.01, 100)
            scaled = welch_t_test([x * scale for x in a], [x * scale for x in b])
            assert scaled.t_stat == pytest.approx(base.t_stat, rel=1e-10, abs=1e-10)
            assert scaled.p_value == pytest.approx(base.p_value, rel=1e-10, abs=1e-12)

    def test_small_sample_analytic_oracle(self):
        # direct Welch formulas plus the t-distribution tail, evaluated by an
        # independent library path (scipy), for every small-sample fixture
        scipy_stats = pytest.importorskip("scipy.stats")
        fixtures = [
            ([1.0, 2.0], [3.0, 5.0, 9.0]),
            ([0.1, 0.2, 0.15, 0.4], [0.3, 0.35]),
            ([10, 12, 9, 14, 11, 13], [9, 8, 7, 11, 10]),
            ([1, 2, 3, 4, 5], [2, 3, 4, 5, 6]),
            ([0.0, 1.0, 0.0, 2.0], [5.0, 6.0, 7.0, 8.0, 9.0, 10.0]),
        ]
        for a, b in fixtures:
            mine = welch_t_test(a, b)
            ref = scipy_stats.ttest_ind(a, b, equal_var=False)
            assert mine.t_stat == pytest.approx(ref.statistic, rel=1e-8)
            assert mine.degrees_of_freedom == pytest.approx(ref.df, rel=1e-8)
            assert mine.p_value == pytest.approx(ref.pvalue, rel=1e-8)

    def test_sample_too_small(self):
        with pytest.raises(ValueError, match="at least 2"):
            welch_t_test([1.0], [1.0, 2.0])

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            welch_t_test([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_both_constant_equal_means_convention(self):
        result = welch_t_test([3.0, 3.0], [3.0, 3.0, 3.0])
        assert result.t_stat == 0.0
        assert result.p_value == 1.0

    def test_constant_sample_with_inexact_mean_has_zero_variance(self):
        # fsum([c] * 50) / 50 is one ulp off c, so no deviation from the mean is 0
        c = 0.8444218515250481
        assert math.fsum([c] * 50) / 50 != c
        with pytest.raises(ValueError, match="sample a has zero variance"):
            welch_t_test([c] * 50, [1.0, 2.0])
        result = welch_t_test([c] * 50, [c] * 3)
        assert (result.t_stat, result.degrees_of_freedom, result.p_value) == (0.0, 51.0, 1.0)

    def test_both_constant_unequal_means_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            welch_t_test([3.0, 3.0], [4.0, 4.0])

    @pytest.mark.parametrize("sample", ["a", "b"])
    def test_variance_whose_sum_of_squares_overflows_names_the_sample(self, sample):
        # each squared deviation is 1e308, finite; their fsum overflows
        wide, narrow = [1e154, -1e154], [1.0, 2.0]
        a, b = (wide, narrow) if sample == "a" else (narrow, wide)
        assert math.isfinite(1e154 ** 2)
        with pytest.raises(ValueError, match=f"^the variance of sample {sample} overflows"):
            welch_t_test(a, b)


class TestIncompleteBeta:
    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_against_reference(self):
        scipy_special = pytest.importorskip("scipy.special")
        rng = random.Random(41)
        for _ in range(2000):
            a = 10 ** rng.uniform(-1, 3)
            b = 10 ** rng.uniform(-1, 1)
            x = rng.uniform(0.001, 0.999)
            ref = scipy_special.betainc(a, b, x)
            if ref < 1e-300:
                continue
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(ref, rel=1e-10)

    def test_p_value_against_reference(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = random.Random(43)
        for _ in range(1000):
            df = 10 ** rng.uniform(0, 3)
            t = rng.gauss(0, 3)
            ref = 2 * scipy_stats.t.sf(abs(t), df)
            assert student_t_two_sided_p(t, df) == pytest.approx(ref, rel=1e-10)

    def test_p_always_in_unit_interval(self):
        rng = random.Random(47)
        for _ in range(2000):
            df = 10 ** rng.uniform(-0.3, 4)
            t = rng.gauss(0, 10)
            assert 0.0 <= student_t_two_sided_p(t, df) <= 1.0

    @pytest.mark.parametrize("df", [0.0, -1.0, math.nan, math.inf])
    def test_p_rejects_degrees_of_freedom_that_are_not_positive_and_finite(self, df):
        with pytest.raises(ValueError, match="^degrees of freedom must be positive"):
            student_t_two_sided_p(1.0, df)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_p_rejects_a_t_statistic_that_is_not_finite(self, t):
        with pytest.raises(ValueError, match="^t statistic must be finite"):
            student_t_two_sided_p(t, 10.0)

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -0.5)])
    def test_rejects_shapes_that_are_not_positive(self, a, b):
        with pytest.raises(ValueError, match="^shape parameters must be positive"):
            regularized_incomplete_beta(a, b, 0.5)

    @pytest.mark.parametrize("x", [-1e-12, 1.0 + 1e-12, math.nan])
    def test_rejects_x_outside_the_unit_interval(self, x):
        with pytest.raises(ValueError, match="^x must be in \\[0, 1\\]"):
            regularized_incomplete_beta(2.0, 3.0, x)

    def test_continued_fraction_that_does_not_converge_raises(self):
        # at a = b = 1e6 and x = 0.5 the fraction needs far more than its 300 iterations
        with pytest.raises(ArithmeticError, match="^incomplete beta did not converge"):
            regularized_incomplete_beta(1e6, 1e6, 0.5)
