"""Design construction, prediction round-trips, and fit recovery."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense_nnls import dense_fit
from size_lens import bayesgen, sizelaw
from size_lens.adclus import build_design, fit, predict, r_squared, upper_triangle_values
from size_lens.errors import LabelMismatch, LengthMismatch, StatsError, ZeroVariance
from size_lens.ingest import align_objects, filter_features
from size_lens.matrices import (
    FeatureMatrix,
    SimilarityMatrix,
    validate_feature_matrix,
    validate_similarity_matrix,
)
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

    def test_duplicate_feature_ties_toward_lowest_index(self):
        # A duplicated feature has the same Gram column and h entry as its
        # original, bit for bit, so the original (the lower index) enters
        # and the copy never does. BLAS products round columns by their
        # position and broke this tie for some of these seeds.
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n, k = int(rng.integers(6, 13)), int(rng.integers(3, 7))
            cells = (rng.random((n, k)) < 0.5).astype(np.uint8)
            cells[:2, -1] = 1
            features = validate_feature_matrix(
                [f"o{i}" for i in range(n)],
                [f"f{j}" for j in range(k + 1)],
                np.hstack([cells, cells[:, -1:]]),
            )
            observed = _noisy_similarity(rng, features)
            solution = fit(features, observed)
            assert k not in solution.nonzero_feature_indices
            assert solution.weights[k] == 0.0

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


def _statistics(solution):
    try:
        stats = sizelaw.analyze(solution)
    except StatsError as exc:
        return type(exc)
    return stats


def assert_matches_dense_oracle(features, similarity, with_intercept=False):
    """Same active set, weights within 1e-9 relative, statistics within 1e-9.

    Features with identical pair columns are one feature to the fit. The
    Gram-form solver breaks their tie toward the lowest index; the dense
    oracle's BLAS products round identical columns differently, so its pick
    among them is arbitrary. Each such group is therefore compared through
    its lowest index and the sum of its weights.
    """
    solution = fit(features, similarity, with_intercept=with_intercept)
    oracle = dense_fit(features, similarity, with_intercept=with_intercept)
    assert solution.converged and oracle.converged
    _, first, group = np.unique(
        build_design(features).T, axis=0, return_index=True, return_inverse=True
    )
    lowest = first[group.ravel()]
    assert set(solution.nonzero_feature_indices) <= set(lowest.tolist())
    assert solution.nonzero_feature_indices == tuple(
        sorted({int(lowest[i]) for i in oracle.nonzero_feature_indices})
    )
    k = features.n_features
    weights = np.bincount(lowest, weights=solution.weights, minlength=k)
    expected = np.bincount(lowest, weights=oracle.weights, minlength=k)
    scale = max(1.0, float(np.abs(expected).max()))
    assert float(np.abs(weights - expected).max()) <= 1e-9 * scale
    assert solution.intercept_weight == pytest.approx(oracle.intercept_weight, abs=1e-9 * scale)
    if np.isnan(oracle.r_squared):
        assert np.isnan(solution.r_squared)
    else:
        assert solution.r_squared == pytest.approx(oracle.r_squared, abs=1e-9)
    stats, oracle_stats = _statistics(solution), _statistics(oracle)
    if isinstance(oracle_stats, type):
        assert stats is oracle_stats
        return
    assert not isinstance(stats, type)
    for name in ("pearson", "slope", "intercept"):
        assert getattr(stats, name) == pytest.approx(getattr(oracle_stats, name), abs=1e-9)
    assert stats.n_points == oracle_stats.n_points
    # Spearman ranks the weights, so equal weights (an equal-size pair under
    # a noiseless size law) rank by their last bits; compare it only when no
    # two active weights tie to within the weight tolerance.
    active = np.sort(expected[list(solution.nonzero_feature_indices)])
    if np.diff(active).min(initial=np.inf) > 1e-8 * scale:
        assert stats.spearman == pytest.approx(oracle_stats.spearman, abs=1e-9)


def _full_column_rank(features):
    design = build_design(features)
    kept = design[:, design.any(axis=0)]
    unique = np.unique(kept, axis=1)
    return np.linalg.matrix_rank(unique) == unique.shape[1]


def _noisy_similarity(rng, features, noise_sd=0.05):
    weights = rng.uniform(0.05, 1.0, features.n_features)
    cells = np.asarray(predict(features, weights).cells).copy()
    noise = np.triu(rng.normal(0.0, noise_sd, cells.shape), k=1)
    return SimilarityMatrix(features.object_names, cells + noise + noise.T)


def _named(cells, prefix="o"):
    n, k = cells.shape
    return FeatureMatrix(
        tuple(f"{prefix}{i}" for i in range(n)), tuple(f"f{j}" for j in range(k)), cells
    )


DEGENERATE_FAMILIES = ("duplicate", "nested", "all-zero", "size-0-after-intersect", "all-objects")


class TestDenseOracle:
    """The Gram-form fit against the dense solver it replaced."""

    def test_noiseless_plants(self):
        # the C2 plants: unique solutions, weights 1/size
        for seed in range(100):
            features, similarity, _ = bayesgen.plant_dataset(8 + seed % 5, 4 + seed % 4, seed=seed)
            assert_matches_dense_oracle(features, similarity)

    def test_paper_sized_cells(self):
        laws = ("inverse_size", "inverse_size_squared", "uniform")
        for cell in range(90):
            features, similarity, _ = bayesgen.plant_dataset(
                10 + cell % 7,
                6 + cell % 3,
                weight_law=laws[cell % 3],
                noise_sd=(0.0, 0.01, 0.05)[(cell // 3) % 3],
                seed=1000 + cell,
            )
            assert_matches_dense_oracle(features, similarity)

    def test_intercept(self):
        for seed in range(20):
            features, similarity, _ = bayesgen.plant_dataset(9, 5, noise_sd=0.05, seed=seed)
            shifted = SimilarityMatrix(similarity.object_names, similarity.cells + 0.3)
            assert_matches_dense_oracle(features, shifted, with_intercept=True)

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(DEGENERATE_FAMILIES),
        n_objects=st.integers(5, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_degenerate_features(self, family, n_objects, seed):
        rng = np.random.default_rng(seed)
        base = (rng.random((n_objects, int(rng.integers(3, 6)))) < 0.5).astype(np.uint8)
        base[:, base.sum(axis=0) < 2] = 0
        base[rng.integers(n_objects, size=2), np.arange(2) % base.shape[1]] = 1
        pick = int(rng.integers(base.shape[1]))
        if family == "duplicate":
            cells = np.hstack([base, base[:, [pick]]])
        elif family == "nested":
            inner = base[:, pick] * (rng.random(n_objects) < 0.6)
            cells = np.hstack([base, inner[:, None]])
        elif family == "all-zero":
            # size 0 and size 1 columns pass --min-feature-size 0 and 1 but
            # cover no pair
            single = np.zeros((n_objects, 1), np.uint8)
            single[int(rng.integers(n_objects))] = 1
            cells = np.hstack([base, np.zeros((n_objects, 1), np.uint8), single])
            cells = filter_features(_named(cells), int(rng.integers(0, 2))).cells
        elif family == "all-objects":
            cells = np.hstack([np.ones((n_objects, 1), np.uint8), base])
        else:
            cells = base
        features = _named(cells)
        similarity = _noisy_similarity(rng, features)
        if family == "size-0-after-intersect":
            # the last feature lives only on objects the similarity lacks
            extra = np.zeros((2, cells.shape[1] + 1), np.uint8)
            extra[:, -1] = 1
            wide = np.vstack([np.hstack([cells, np.zeros((n_objects, 1), np.uint8)]), extra])
            names = features.object_names + ("x0", "x1")
            bundle = align_objects(
                similarity,
                FeatureMatrix(names, tuple(f"f{j}" for j in range(wide.shape[1])), wide),
                policy="intersect",
            )
            features, similarity = bundle.features, bundle.similarity
            assert features.feature_sizes[-1] == 0
        assume(_full_column_rank(features))
        assert_matches_dense_oracle(features, similarity)
