"""Design construction, prediction round-trips, and fit recovery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from size_lens.adclus import build_design, fit, predict, r_squared, upper_triangle_values
from size_lens.errors import LabelMismatch, LengthMismatch, ZeroVariance
from size_lens.matrices import validate_feature_matrix, validate_similarity_matrix
from size_lens.sizelaw import pearson


def small_features():
    # three objects, three features: a shared one, then {a,b} and {a,c}
    cells = [[1, 1, 1], [1, 1, 0], [1, 0, 1]]
    return validate_feature_matrix(["a", "b", "c"], ["f1", "f2", "f3"], cells)


class TestBuildDesign:
    def test_rows_are_pairwise_products(self):
        design = build_design(small_features())
        assert design.dtype == np.float64
        # rows follow the row-major pair order (a,b), (a,c), (b,c)
        assert design.tolist() == [
            [1, 1, 0],  # (a,b): share f1 and f2
            [1, 0, 1],  # (a,c): share f1 and f3
            [1, 0, 0],  # (b,c): share only f1
        ]

    def test_row_count_is_n_choose_two(self):
        rng = np.random.default_rng(3)
        cells = rng.integers(0, 2, (6, 4))
        features = validate_feature_matrix(
            [f"o{i}" for i in range(6)], [f"f{j}" for j in range(4)], cells
        )
        assert build_design(features).shape == (15, 4)


class TestPredict:
    def test_weighted_common_features(self):
        features = small_features()
        predicted = predict(features, [0.5, 0.3, 0.2])
        values = upper_triangle_values(predicted)
        assert values.tolist() == pytest.approx([0.8, 0.7, 0.5], abs=1e-15)
        # symmetric by construction, diagonal carries self-similarity
        cells = np.asarray(predicted.cells)
        assert np.array_equal(cells, cells.T)
        assert predicted.cells[0, 0] == pytest.approx(1.0)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            predict(small_features(), [0.5, -0.1, 0.2])

    def test_rejects_wrong_length(self):
        with pytest.raises(LengthMismatch):
            predict(small_features(), [0.5, 0.3])


class TestRSquared:
    def test_perfect_prediction_gives_one(self):
        features = small_features()
        predicted = predict(features, [0.5, 0.3, 0.2])
        assert r_squared(predicted, predicted) == pytest.approx(1.0, abs=1e-12)

    def test_label_mismatch_rejected(self):
        features = small_features()
        predicted = predict(features, [0.5, 0.3, 0.2])
        other = validate_similarity_matrix(["a", "b", "x"], np.asarray(predicted.cells))
        with pytest.raises(LabelMismatch):
            r_squared(predicted, other)

    def test_constant_observation_raises_then_fit_reports_nan(self):
        features = small_features()
        predicted = predict(features, [0.5, 0.3, 0.2])
        flat = validate_similarity_matrix(["a", "b", "c"], np.full((3, 3), 0.4))
        with pytest.raises(ZeroVariance):
            r_squared(predicted, flat)
        # fit swallows the degeneracy and reports the statistic as NaN
        solution = fit(features, flat)
        assert np.isnan(solution.r_squared)


class TestFit:
    def test_exact_recovery_of_planted_weights(self):
        features = small_features()
        target = predict(features, [0.5, 0.3, 0.2])
        solution = fit(features, target)
        assert solution.weights.tolist() == pytest.approx([0.5, 0.3, 0.2], abs=1e-10)
        assert solution.r_squared == pytest.approx(1.0, abs=1e-10)
        assert solution.converged
        assert solution.nonzero_feature_indices == (0, 1, 2)
        assert solution.feature_sizes.tolist() == [3, 2, 2]
        assert solution.feature_ratio == (3, 3)
        assert solution.intercept_weight == 0.0

    def test_reported_r_squared_is_literal_recompute(self):
        # contract: the stored value equals r_squared(predict(...), observed) exactly
        rng = np.random.default_rng(9)
        cells = rng.integers(0, 2, (5, 6))
        cells[:, 0] = 1
        features = validate_feature_matrix(
            [f"o{i}" for i in range(5)], [f"f{j}" for j in range(6)], cells
        )
        noisy = np.asarray(predict(features, rng.uniform(0.1, 1.0, 6)).cells).copy()
        jitter = rng.normal(0.0, 0.05, noisy.shape)
        noisy += jitter + jitter.T
        observed = validate_similarity_matrix([f"o{i}" for i in range(5)], noisy)
        solution = fit(features, observed)
        recomputed = r_squared(predict(features, solution.weights), observed)
        assert solution.r_squared == recomputed

    def test_intercept_absorbs_constant_shift(self):
        # No feature covers every pair, so the constant column is identifiable.
        cells = [[1, 0, 1], [1, 0, 0], [0, 1, 1], [0, 1, 0]]
        features = validate_feature_matrix(
            ["a", "b", "c", "d"], ["f1", "f2", "f3"], cells
        )
        base = np.asarray(predict(features, [0.5, 0.3, 0.2]).cells).copy()
        shifted = validate_similarity_matrix(["a", "b", "c", "d"], base + 0.25)
        solution = fit(features, shifted, with_intercept=True)
        assert solution.intercept_weight == pytest.approx(0.25, abs=1e-8)
        assert solution.weights.tolist() == pytest.approx([0.5, 0.3, 0.2], abs=1e-8)
        # the intercept never appears among the feature indices
        assert set(solution.nonzero_feature_indices) <= set(range(3))
        # R² is the squared Pearson of the pair-space prediction plus the intercept
        fitted = (
            upper_triangle_values(predict(features, solution.weights))
            + solution.intercept_weight
        )
        r = pearson(fitted, upper_triangle_values(shifted))
        assert solution.r_squared == r * r

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_duplicate_feature_columns_keep_fit_finite(self, seed):
        rng = np.random.default_rng(seed)
        cells = rng.integers(0, 2, (5, 3))
        cells[:, 0] = 1  # keep every pair covered by at least one feature
        doubled = np.hstack([cells, cells[:, :1]])
        features = validate_feature_matrix(
            [f"o{i}" for i in range(5)], [f"f{j}" for j in range(4)], doubled
        )
        target = predict(features, [0.4, 0.3, 0.2, 0.1])
        solution = fit(features, target)
        assert (solution.weights >= 0.0).all()
        assert solution.residual_norm <= 1e-8

    def test_clamped_feature_is_exactly_zero(self):
        # The unconstrained solution wants w1 = -0.1; the solver must pin it
        # to an exact 0.0 and leave it out of the active set.
        features = small_features()
        observed = validate_similarity_matrix(
            ["a", "b", "c"],
            [[0.0, 0.3, 0.2], [0.3, 0.0, -0.1], [0.2, -0.1, 0.0]],
        )
        solution = fit(features, observed)
        assert solution.feature_names == ("f1", "f2", "f3")
        assert solution.weights[0] == 0.0
        assert solution.nonzero_feature_indices == (1, 2)
        assert solution.weights[1:].tolist() == pytest.approx([0.3, 0.2], abs=1e-12)
        assert solution.residual_norm == pytest.approx(0.1, abs=1e-12)
