"""Correlation, regression, and t-test checks.

scipy.stats serves as the independent oracle for the hand-rolled statistics;
the package itself never imports it, so agreement here is meaningful.
"""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from size_lens.adclus import WeightSolution, fit, predict
from size_lens.errors import (
    LengthMismatch,
    NoActiveFeatures,
    TooFewPoints,
    ZeroSizeActiveFeature,
    ZeroVariance,
)
from size_lens.matrices import validate_feature_matrix
from size_lens.sizelaw import (
    analyze,
    extract_points,
    fit_line,
    one_sample_ttest_negative,
    pearson,
    spearman,
    zscores,
)

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def make_solution(sizes, weights):
    """Hand-assembled solution for statistics tests; no solver involved."""
    k = len(sizes)
    names = tuple(f"f{i}" for i in range(k))
    w = np.asarray(weights, dtype=np.float64)
    return WeightSolution(
        feature_names=names,
        weights=w,
        nonzero_feature_indices=tuple(int(i) for i in np.flatnonzero(w > 0.0)),
        feature_sizes=np.asarray(sizes, dtype=np.int64),
        r_squared=1.0,
        feature_ratio=(int((w > 0).sum()), k),
        residual_norm=0.0,
        iterations=k,
        converged=True,
    )


class TestPearson:
    def test_worked_example(self):
        assert pearson([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 3.0, 2.0]) == pytest.approx(0.6)

    def test_matches_scipy(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(3, 30))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            expected = scipy.stats.pearsonr(x, y).statistic
            assert pearson(x, y) == pytest.approx(expected, abs=1e-12)

    def test_clamped_to_unit_interval(self):
        x = np.linspace(1.0, 2.0, 50)
        assert pearson(x, 3.0 * x + 1.0) == 1.0
        assert pearson(x, -2.0 * x) == -1.0

    def test_constant_input_rejected(self):
        with pytest.raises(ZeroVariance):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ZeroVariance):
            pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_near_constant_relative_jitter_rejected(self):
        # a few ulps of spread around a large mean is still "constant"
        base = 1e6
        x = np.array([base, base * (1 + 1e-15), base * (1 - 1e-15)])
        with pytest.raises(ZeroVariance):
            pearson(x, [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(LengthMismatch):
            pearson([1.0], [2.0])


class TestSpearman:
    def test_tied_worked_example(self):
        assert spearman([1.0, 1.0, 2.0], [3.0, 3.0, 1.0]) == pytest.approx(-1.0)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(3, 30))
            x = rng.integers(0, 5, n).astype(float)  # heavy ties
            y = rng.integers(0, 5, n).astype(float)
            if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
                continue
            expected = scipy.stats.spearmanr(x, y).statistic
            assert spearman(x, y) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.001, 1e6), min_size=3, max_size=12))
    def test_invariant_under_log(self, values):
        # The log preserves order, but in floating point it can map adjacent
        # distinct values to the same number, which turns them into a tie.
        # The identity holds exactly when the logs stay as distinct as the
        # values, so that is the precondition.
        x = np.asarray(values)
        y = np.arange(x.size, dtype=float)
        assume(np.ptp(x) > 0.0)
        assume(np.unique(np.log(x)).size == np.unique(x).size)
        assert spearman(x, y) == spearman(np.log(x), y)


class TestFitLine:
    def test_exact_line(self):
        slope, intercept = fit_line([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(1.0)

    def test_matches_scipy(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        expected = scipy.stats.linregress(x, y)
        slope, intercept = fit_line(x, y)
        assert slope == pytest.approx(expected.slope, abs=1e-12)
        assert intercept == pytest.approx(expected.intercept, abs=1e-12)

    def test_slope_on_zscores_equals_pearson(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.normal(size=10)
            y = rng.normal(size=10)
            slope, _ = fit_line(zscores(x), zscores(y))
            assert slope == pytest.approx(pearson(x, y), abs=1e-12)


class TestZscores:
    def test_worked_example(self):
        z = zscores([1.0, 2.0, 3.0])
        assert z.tolist() == pytest.approx([-1.224744871391589, 0.0, 1.224744871391589])

    def test_population_not_sample_sd(self):
        z = zscores([0.0, 2.0])  # population sd 1, sample sd sqrt(2)
        assert z.tolist() == pytest.approx([-1.0, 1.0])

    def test_constant_vector_maps_to_zeros(self):
        assert zscores([4.0, 4.0, 4.0]).tolist() == [0.0, 0.0, 0.0]
        assert zscores([7.0]).tolist() == [0.0]

    def test_empty_vector(self):
        assert zscores([]).size == 0


class TestTTest:
    def test_worked_example(self):
        result = one_sample_ttest_negative([-0.5, -0.7, -0.6])
        assert result.t_statistic == pytest.approx(-10.392304845413264)
        assert result.degrees_of_freedom == 2
        assert result.mean == pytest.approx(-0.6)
        assert result.sample_sd == pytest.approx(0.1)
        expected_p = scipy.stats.ttest_1samp(
            [-0.5, -0.7, -0.6], 0.0, alternative="less"
        ).pvalue
        assert result.p_value_one_sided == pytest.approx(expected_p, abs=1e-12)

    def test_matches_scipy_on_random_draws(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.normal(-0.3, 0.5, int(rng.integers(3, 25)))
            result = one_sample_ttest_negative(v)
            expected = scipy.stats.ttest_1samp(v, 0.0, alternative="less")
            assert result.t_statistic == pytest.approx(expected.statistic, abs=1e-10)
            assert result.p_value_one_sided == pytest.approx(expected.pvalue, abs=1e-12)

    def test_constant_values_rejected(self):
        with pytest.raises(ZeroVariance):
            one_sample_ttest_negative([-0.5, -0.5, -0.5])

    def test_positive_mean_gives_large_p(self):
        result = one_sample_ttest_negative([0.4, 0.6, 0.5])
        assert result.p_value_one_sided > 0.99


class TestExtractPoints:
    def test_only_active_features_become_points(self):
        solution = make_solution([2, 3, 4, 6], [0.5, 0.0, 0.25, 1.0 / 6.0])
        points = extract_points(solution)
        assert points.feature_names == ("f0", "f2", "f3")
        assert points.raw_sizes.tolist() == [2, 4, 6]
        assert points.n_points == 3
        assert points.log_weights.tolist() == pytest.approx(
            np.log([0.5, 0.25, 1.0 / 6.0]).tolist()
        )

    def test_no_active_features(self):
        with pytest.raises(NoActiveFeatures):
            extract_points(make_solution([2, 3], [0.0, 0.0]))

    def test_zero_size_active_feature(self):
        with pytest.raises(ZeroSizeActiveFeature):
            extract_points(make_solution([2, 0, 3], [0.1, 0.2, 0.3]))

    def test_z_columns_are_standardized(self):
        points = extract_points(make_solution([2, 3, 4, 6], [0.5, 0.3, 0.25, 0.1]))
        assert points.z_log_sizes.mean() == pytest.approx(0.0, abs=1e-12)
        assert np.mean(points.z_log_sizes**2) == pytest.approx(1.0, abs=1e-12)


class TestAnalyze:
    def test_exact_inverse_law(self):
        sizes = [2, 3, 4, 6]
        solution = make_solution(sizes, [1.0 / s for s in sizes])
        stats = analyze(solution)
        assert stats.pearson == -1.0
        assert stats.spearman == pytest.approx(-1.0)
        assert stats.slope == pytest.approx(-1.0, abs=1e-12)
        assert stats.intercept == pytest.approx(0.0, abs=1e-12)
        assert stats.n_points == 4
        assert stats.pearson_p_value == 0.0

    def test_inverse_square_law_slope(self):
        sizes = [2, 3, 4, 6]
        solution = make_solution(sizes, [1.0 / s**2 for s in sizes])
        stats = analyze(solution)
        assert stats.slope == pytest.approx(-2.0, abs=1e-12)
        assert stats.pearson == -1.0

    def test_two_points_rejected(self):
        solution = make_solution([2, 4], [0.5, 0.25])
        with pytest.raises(TooFewPoints):
            analyze(solution)

    def test_equal_sizes_degenerate(self):
        solution = make_solution([3, 3, 3], [0.5, 0.25, 0.1])
        with pytest.raises(ZeroVariance):
            analyze(solution)

    def test_p_value_matches_scipy(self):
        solution = make_solution([2, 3, 4, 6, 8], [0.6, 0.31, 0.24, 0.18, 0.11])
        stats = analyze(solution)
        expected = scipy.stats.pearsonr(
            np.log([2, 3, 4, 6, 8]), np.log([0.6, 0.31, 0.24, 0.18, 0.11])
        )
        assert stats.pearson == pytest.approx(expected.statistic, abs=1e-12)
        assert stats.pearson_p_value == pytest.approx(expected.pvalue, abs=1e-12)


class TestEndToEndRecovery:
    def test_fitted_weights_reproduce_inverse_law(self):
        # plant 1/size weights on a concrete feature set, fit, analyze
        cells = np.array(
            [
                [1, 0, 0, 1],
                [1, 1, 0, 1],
                [0, 1, 1, 1],
                [0, 0, 1, 1],
                [1, 1, 1, 1],
                [0, 1, 0, 1],
            ]
        )
        names = [f"o{i}" for i in range(6)]
        features = validate_feature_matrix(names, ["f0", "f1", "f2", "f3"], cells)
        sizes = cells.sum(axis=0)
        planted = 1.0 / sizes
        similarity = predict(features, planted)
        solution = fit(features, similarity)
        stats = analyze(solution)
        assert stats.pearson == pytest.approx(-1.0, abs=1e-9)
        assert stats.slope == pytest.approx(-1.0, abs=1e-6)
