"""The dense active-set solver that the Gram-form solver replaced.

Kept as a differential oracle: it forms the pairs x features design and
re-solves every passive subproblem from scratch with a rank-revealing
orthogonal factorization (QR with column pivoting). It follows the same
outer and inner iterations as ``size_lens.nnls.solve_nnls``, so on a
problem with a unique solution both must reach the same active set and the
same weights up to rounding. Its cost grows with pairs x features per
step: keep it to small problems.
"""

import warnings

import numpy as np
import scipy.linalg

from size_lens.adclus import WeightSolution, build_design, predict, upper_triangle_values
from size_lens.errors import DegenerateColumn, DegenerateColumnWarning, ZeroVariance
from size_lens.sizelaw import pearson


def _least_squares(a_passive, b):
    solution, _, _, _ = scipy.linalg.lstsq(
        a_passive, b, lapack_driver="gelsy", check_finite=False
    )
    return solution


def dense_nnls(a, b, kkt_tolerance=None, max_iterations=None):
    """Return (weights, active_set, iterations, converged) of min ||a x - b||, x >= 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a.shape
    if kkt_tolerance is None:
        kkt_tolerance = 1e-10 * (1.0 + float(np.linalg.norm(a, axis=0).max()))
    if max_iterations is None:
        max_iterations = 3 * k

    x = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    reentry_at = np.zeros(k, dtype=np.int64)
    outer = 0
    stalled_drops = 0
    converged = False

    def restore_feasibility(entered):
        nonlocal stalled_drops
        first = True
        while True:
            cols = np.flatnonzero(passive)
            if cols.size == 0:
                x[:] = 0.0
                return
            sub = _least_squares(a[:, cols], b)
            if first and sub[np.searchsorted(cols, entered)] <= 0.0:
                passive[entered] = False
                x[entered] = 0.0
                reentry_at[entered] = outer + 1
                stalled_drops += 1
                warnings.warn(
                    f"dropped numerically degenerate column {entered}",
                    DegenerateColumnWarning,
                    stacklevel=3,
                )
                return
            first = False
            z = np.zeros(k)
            z[cols] = sub
            negative = passive & (z <= 0.0)
            if not negative.any():
                x[:] = 0.0
                x[cols] = sub
                return
            numer = x[negative]
            denom = numer - z[negative]
            shrink = np.divide(numer, denom, out=np.zeros_like(numer), where=denom > 0.0)
            alpha = float(shrink.min())
            x[:] = x + alpha * (z - x)
            leaving = np.flatnonzero(negative)[shrink <= alpha]
            passive[leaving] = False
            reentry_at[leaving] = outer + 1
            x[~passive] = 0.0
            np.maximum(x, 0.0, out=x)

    best_sq = np.inf
    while True:
        residual = b - a @ x
        gradient_neg = a.T @ residual
        residual_sq = float(residual @ residual)
        if residual_sq < best_sq:
            best_sq = residual_sq
            stalled_drops = 0
        violating = ~passive & (gradient_neg > kkt_tolerance)
        if not violating.any():
            converged = True
            break
        if outer >= max_iterations:
            break
        eligible = violating & (reentry_at <= outer)
        outer += 1
        if not eligible.any():
            continue
        if stalled_drops > k:
            raise DegenerateColumn(f"no progress after {stalled_drops} degenerate column drops")
        scores = np.where(eligible, gradient_neg, -np.inf)
        entering = int(np.argmax(scores))
        passive[entering] = True
        restore_feasibility(entering)

    return x, tuple(int(i) for i in np.flatnonzero(passive)), outer, converged


def dense_fit(features, similarity, with_intercept=False):
    """``adclus.fit`` as it was: the dense pair design solved by ``dense_nnls``."""
    columns = build_design(features)
    target = upper_triangle_values(similarity)
    if with_intercept:
        columns = np.hstack([columns, np.ones((columns.shape[0], 1))])
    x, active_set, iterations, converged = dense_nnls(columns, target)
    k = features.n_features
    weights = x[:k]
    intercept_weight = float(x[k]) if with_intercept else 0.0
    active = tuple(i for i in active_set if i < k)
    fitted = upper_triangle_values(predict(features, weights)) + intercept_weight
    try:
        r = pearson(fitted, target)
    except ZeroVariance:
        r = float("nan")
    return WeightSolution(
        feature_names=features.feature_names,
        weights=weights,
        nonzero_feature_indices=active,
        feature_sizes=features.feature_sizes,
        r_squared=r * r,
        feature_ratio=(len(active), k),
        residual_norm=float(np.linalg.norm(fitted - target)),
        iterations=iterations,
        converged=converged,
        intercept_weight=intercept_weight,
    )
