import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from size_lens.errors import (
    AsymmetryExceedsTolerance,
    DuplicateLabel,
    NonBinaryCell,
    NonFiniteCell,
    NotSquare,
    TooFewObjects,
)
from size_lens.matrices import (
    validate_feature_matrix,
    validate_similarity_matrix,
)


class TestValidateFeatureMatrix:
    def test_accepts_binary_grid(self):
        fm = validate_feature_matrix(["a", "b"], ["f1", "f2"], [[0, 1], [1, 1]])
        assert fm.n_objects == 2
        assert fm.n_features == 2
        assert fm.cells.dtype == np.uint8
        assert fm.feature_sizes.tolist() == [1, 2]

    def test_rejects_non_binary_cell(self):
        with pytest.raises(NonBinaryCell):
            validate_feature_matrix(["a", "b"], ["f1"], [[0.5], [1]])

    def test_rejects_nan_cell(self):
        with pytest.raises(NonBinaryCell):
            validate_feature_matrix(["a", "b"], ["f1"], [[float("nan")], [1]])

    def test_rejects_duplicate_object_label(self):
        with pytest.raises(DuplicateLabel):
            validate_feature_matrix(["a", "a"], ["f1"], [[0], [1]])

    def test_rejects_duplicate_feature_label(self):
        with pytest.raises(DuplicateLabel):
            validate_feature_matrix(["a", "b"], ["f1", "f1"], [[0, 1], [1, 0]])

    def test_rejects_single_object(self):
        with pytest.raises(TooFewObjects):
            validate_feature_matrix(["a"], ["f1"], [[1]])

    def test_cells_are_read_only(self):
        fm = validate_feature_matrix(["a", "b"], ["f1"], [[0], [1]])
        with pytest.raises(ValueError):
            fm.cells[0, 0] = 1

    def test_feature_sizes_are_column_sums(self):
        rng = np.random.default_rng(3)
        cells = (rng.random((6, 4)) < 0.5).astype(int)
        fm = validate_feature_matrix(
            [f"o{i}" for i in range(6)], [f"f{k}" for k in range(4)], cells
        )
        assert fm.feature_sizes.tolist() == cells.sum(axis=0).tolist()


class TestValidateSimilarityMatrix:
    def test_symmetrizes_within_tolerance(self):
        sm = validate_similarity_matrix(
            ["a", "b"], [[1.0, 0.5], [0.4, 1.0]], symmetry_tolerance=0.2
        )
        assert sm.cells[0, 1] == pytest.approx(0.45)
        assert sm.cells[1, 0] == pytest.approx(0.45)

    def test_rejects_asymmetry_beyond_tolerance(self):
        with pytest.raises(AsymmetryExceedsTolerance):
            validate_similarity_matrix(
                ["a", "b"], [[1.0, 0.5], [0.1, 1.0]], symmetry_tolerance=0.2
            )

    def test_rejects_non_square(self):
        with pytest.raises(NotSquare):
            validate_similarity_matrix(["a", "b"], [[1.0, 0.5]])

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteCell):
            validate_similarity_matrix(["a", "b"], [[1.0, float("nan")], [0.5, 1.0]])

    def test_rejects_inf(self):
        with pytest.raises(NonFiniteCell):
            validate_similarity_matrix(["a", "b"], [[1.0, float("inf")], [0.5, 1.0]])

    def test_default_tolerance_scales_with_max_cell(self):
        # asymmetry 5e-9 on cells of magnitude 100 -> within 1e-9 * 100
        grid = [[100.0, 50.0], [50.0 + 5e-9, 100.0]]
        sm = validate_similarity_matrix(["a", "b"], grid)
        assert sm.cells[0, 1] == sm.cells[1, 0]
        # same absolute asymmetry on magnitude-1 cells -> rejected
        with pytest.raises(AsymmetryExceedsTolerance):
            validate_similarity_matrix(["a", "b"], [[1.0, 0.5], [0.5 + 5e-9, 1.0]])

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 6),
        seed=st.integers(0, 10_000),
        scale=st.floats(0.1, 100.0),
    )
    def test_output_is_exactly_symmetric(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        base = rng.random((n, n)) * scale
        noisy = base + rng.random((n, n)) * 1e-12 * scale
        sm = validate_similarity_matrix(
            [f"o{i}" for i in range(n)], noisy, symmetry_tolerance=scale
        )
        assert np.array_equal(sm.cells, sm.cells.T)
