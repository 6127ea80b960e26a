"""Additive clustering with fixed binary features.

Pairwise similarity is modeled as a non-negatively weighted sum of shared
features: s_ij = sum_k w_k f_ik f_jk over i < j. With the feature matrix
fixed, the weights are the least-squares solution over the strict upper
triangle, constrained to w >= 0. Diagonal cells never enter the fit or the
fit statistic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LabelMismatch, LengthMismatch, ZeroVariance
from .matrices import FeatureMatrix, SimilarityMatrix
from .nnls import solve_nnls
from .sizelaw import pearson

__all__ = [
    "WeightSolution",
    "build_design",
    "fit",
    "predict",
    "r_squared",
    "upper_triangle_values",
]


@dataclass(frozen=True)
class WeightSolution:
    """Fitted non-negative feature weights plus fit diagnostics.

    ``nonzero_feature_indices`` is the solver's active set; a weight counts
    as non-zero exactly when it is in that set. ``r_squared`` is the squared
    Pearson correlation between predicted and observed off-diagonal
    similarities (NaN when either side is constant). ``kkt_residual``,
    ``gram_columns`` and ``degenerate_drops`` are the solver's diagnostics
    (see ``NnlsSolution``).
    """

    feature_names: tuple[str, ...]
    weights: np.ndarray
    nonzero_feature_indices: tuple[int, ...]
    feature_sizes: np.ndarray
    r_squared: float
    feature_ratio: tuple[int, int]
    residual_norm: float
    iterations: int
    converged: bool
    intercept_weight: float = 0.0
    kkt_residual: float = 0.0
    gram_columns: int = 0
    degenerate_drops: int = 0


def upper_triangle_values(similarity: SimilarityMatrix) -> np.ndarray:
    """Off-diagonal cells in row-major pair order."""
    n = similarity.n_objects
    ii, jj = np.triu_indices(n, k=1)
    return similarity.cells[ii, jj]


def build_design(features: FeatureMatrix) -> np.ndarray:
    """Pairs x features float64 array: row p = (i, j) holds f_ik * f_jk.

    Rows follow the row-major upper-triangle pair order of
    ``upper_triangle_values``.
    """
    ii, jj = np.triu_indices(features.n_objects, k=1)
    return (features.cells[ii] * features.cells[jj]).astype(np.float64)


def predict(features: FeatureMatrix, weights) -> SimilarityMatrix:
    """Model similarities for the given weights.

    The diagonal holds each object's self-sum of weighted features; it is a
    model-internal quantity and stays out of every fit statistic.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (features.n_features,):
        raise LengthMismatch(
            f"weights have shape {w.shape}, expected ({features.n_features},)"
        )
    if (w < 0.0).any():
        raise ValueError("weights must be non-negative")
    f = features.cells.astype(np.float64)
    full = (f * w) @ f.T
    # Mirror the upper triangle so the stored matrix is exactly symmetric.
    cells = np.triu(full) + np.triu(full, k=1).T
    return SimilarityMatrix(features.object_names, cells)


def _squared_pearson(predicted_values: np.ndarray, observed_values: np.ndarray) -> float:
    r = pearson(predicted_values, observed_values)
    return r * r


def r_squared(predicted: SimilarityMatrix, observed: SimilarityMatrix) -> float:
    """Squared Pearson correlation between off-diagonal similarities."""
    if predicted.object_names != observed.object_names:
        raise LabelMismatch("predicted and observed matrices label different objects")
    return _squared_pearson(upper_triangle_values(predicted), upper_triangle_values(observed))


class _PairProblem:
    """Gram form of the pair design, built from the feature matrix alone.

    Pair row (i, j) of the design holds f_ik f_jk, so with c_j = F^T f_j the
    Gram column is G[:, j] = c_j (c_j - 1) / 2 and h_j = f_j^T U f_j, where U
    is the strict upper triangle of the similarity grid. The intercept's
    constant pair column is that of a feature every object shares, so it is
    fitted as one more column of ones in F. The pairs x features design
    itself is never formed.
    """

    def __init__(self, features: FeatureMatrix, similarity: SimilarityMatrix, intercept: bool):
        self.features = features
        self.target = upper_triangle_values(similarity)
        cells = features.cells.astype(np.float64)
        if intercept:
            cells = np.hstack([cells, np.ones((features.n_objects, 1))])
        self._cells = cells
        self.n_columns = cells.shape[1]
        sizes = cells.sum(axis=0)
        self.gram_diagonal = sizes * (sizes - 1.0) / 2.0
        # einsum, unlike BLAS, rounds every column alike, so duplicate
        # features get bit-identical h and tie-break toward the lower index.
        upper = np.triu(similarity.cells, k=1)
        self.gram_rhs = (np.einsum("ik,kj->ij", upper, cells) * cells).sum(axis=0)

    def gram_column(self, j: int) -> np.ndarray:
        shared = self._cells.T @ self._cells[:, j]
        return shared * (shared - 1.0) / 2.0

    def fitted(self, x: np.ndarray) -> np.ndarray:
        k = self.features.n_features
        intercept_weight = float(x[k]) if self.n_columns > k else 0.0
        return upper_triangle_values(predict(self.features, x[:k])) + intercept_weight


def fit(
    features: FeatureMatrix,
    similarity: SimilarityMatrix,
    kkt_tolerance: float | None = None,
    max_iterations: int | None = None,
    with_intercept: bool = False,
) -> WeightSolution:
    """Fit non-negative feature weights to observed similarities.

    The optional intercept adds a constant pair column; its coefficient
    shares the non-negativity constraint and is reported separately from
    the feature weights.
    """
    if features.object_names != similarity.object_names:
        raise LabelMismatch(
            "feature and similarity matrices label different objects "
            f"({features.object_names[:3]}... vs {similarity.object_names[:3]}...)"
        )
    problem = _PairProblem(features, similarity, with_intercept)
    solution = solve_nnls(
        problem, kkt_tolerance=kkt_tolerance, max_iterations=max_iterations
    )
    k = features.n_features
    active = tuple(i for i in solution.active_set if i < k)
    # The fitted pair values add the intercept weight, which is an exact
    # 0.0 without one, so the stored R² equals
    # r_squared(predict(features, weights), similarity) bit for bit.
    try:
        r2 = _squared_pearson(solution.fitted, problem.target)
    except ZeroVariance:
        r2 = float("nan")
    return WeightSolution(
        feature_names=features.feature_names,
        weights=solution.weights[:k],
        nonzero_feature_indices=active,
        feature_sizes=features.feature_sizes,
        r_squared=r2,
        feature_ratio=(len(active), k),
        residual_norm=solution.residual_norm,
        iterations=solution.iterations,
        converged=solution.converged,
        intercept_weight=float(solution.weights[k]) if with_intercept else 0.0,
        kkt_residual=solution.kkt_residual,
        gram_columns=solution.gram_columns,
        degenerate_drops=solution.degenerate_drops,
    )
