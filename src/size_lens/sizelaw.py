"""Statistics for the weight-versus-size relationship.

Weights and sizes are compared on natural logs: Pearson correlation and the
least-squares line live in raw log space, Spearman ranks the raw values,
and z-scores exist only for plotting. The log preserves order, so ranking
logs would give the same Spearman only where the floating-point log keeps
distinct values distinct; ranking the raw values avoids that condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.special

from .errors import (
    LengthMismatch,
    NoActiveFeatures,
    TooFewPoints,
    ZeroSizeActiveFeature,
    ZeroVariance,
)

if TYPE_CHECKING:  # pragma: no cover
    from .adclus import WeightSolution

__all__ = [
    "SizeLawPoints",
    "SizeLawStats",
    "TTestResult",
    "extract_points",
    "pearson",
    "spearman",
    "fit_line",
    "one_sample_ttest_negative",
    "analyze",
    "zscores",
]

# A vector whose population sd falls below this relative threshold is treated
# as constant. Solver rounding jitters mathematically identical weights by a
# few ulps; the threshold keeps such vectors degenerate instead of letting
# noise masquerade as variance.
ZERO_VARIANCE_RTOL = 1e-12


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise LengthMismatch(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size < 2:
        raise LengthMismatch(f"{name} needs at least 2 values, got {arr.size}")
    if not np.isfinite(arr).all():
        raise LengthMismatch(f"{name} must be finite")
    return arr


def _check_same_length(x: np.ndarray, y: np.ndarray):
    if x.size != y.size:
        raise LengthMismatch(f"paired vectors differ in length: {x.size} vs {y.size}")


def _is_constant(arr: np.ndarray) -> bool:
    mean = float(arr.mean())
    sd = float(np.sqrt(np.mean((arr - mean) ** 2)))
    return sd <= ZERO_VARIANCE_RTOL * max(1.0, abs(mean))


def pearson(x, y) -> float:
    """Pearson correlation, clamped into [-1, 1]."""
    x = _as_vector(x, "x")
    y = _as_vector(y, "y")
    _check_same_length(x, y)
    if _is_constant(x):
        raise ZeroVariance("x is constant; correlation undefined")
    if _is_constant(y):
        raise ZeroVariance("y is constant; correlation undefined")
    dx = x - x.mean()
    dy = y - y.mean()
    r = float(dx @ dy) / math.sqrt(float(dx @ dx) * float(dy @ dy))
    return min(1.0, max(-1.0, r))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    # Fractional ranks starting at 1; tied values share the mean of the
    # positions they occupy.
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    ranks = np.empty(values.size, dtype=np.float64)
    start = 0
    while start < values.size:
        stop = start
        while stop + 1 < values.size and sorted_values[stop + 1] == sorted_values[start]:
            stop += 1
        ranks[order[start : stop + 1]] = (start + stop) / 2.0 + 1.0
        start = stop + 1
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation with average ranks for ties."""
    x = _as_vector(x, "x")
    y = _as_vector(y, "y")
    _check_same_length(x, y)
    return pearson(_average_ranks(x), _average_ranks(y))


def fit_line(x, y) -> tuple[float, float]:
    """Ordinary least-squares line of y on x; returns (slope, intercept)."""
    x = _as_vector(x, "x")
    y = _as_vector(y, "y")
    _check_same_length(x, y)
    if _is_constant(x):
        raise ZeroVariance("x is constant; line undefined")
    dx = x - x.mean()
    slope = float(dx @ (y - y.mean())) / float(dx @ dx)
    intercept = float(y.mean()) - slope * float(x.mean())
    return slope, intercept


def zscores(values) -> np.ndarray:
    """Standardize with the population standard deviation.

    Vectors without at least two distinct values come back as zeros, so a
    single point still plots at the origin.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0 or float(np.ptp(arr)) == 0.0:
        return np.zeros(arr.shape)
    mean = arr.mean()
    sd = np.sqrt(np.mean((arr - mean) ** 2))
    return (arr - mean) / sd


def _correlation_p_two_sided(r: float, n: int) -> float:
    # Student-t transform of a correlation on n points, n - 2 df.
    if abs(r) >= 1.0:
        return 0.0
    t = abs(r) * math.sqrt((n - 2) / (1.0 - r * r))
    return float(2.0 * scipy.special.stdtr(n - 2, -t))


@dataclass(frozen=True)
class SizeLawPoints:
    """One point per actively weighted feature, on raw, log, and z scales."""

    feature_names: tuple[str, ...]
    raw_weights: np.ndarray
    raw_sizes: np.ndarray
    log_weights: np.ndarray
    log_sizes: np.ndarray
    z_log_weights: np.ndarray
    z_log_sizes: np.ndarray

    @property
    def n_points(self) -> int:
        return len(self.feature_names)


@dataclass(frozen=True)
class SizeLawStats:
    pearson: float
    spearman: float
    slope: float
    intercept: float
    n_points: int
    pearson_p_value: float
    spearman_p_value: float


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    degrees_of_freedom: int
    p_value_one_sided: float
    mean: float
    sample_sd: float


def extract_points(solution: "WeightSolution") -> SizeLawPoints:
    """Collect (size, weight) points for the features the solver kept.

    Only active-set features count; zero weights never produce points.
    """
    active = list(solution.nonzero_feature_indices)
    if not active:
        raise NoActiveFeatures("all fitted weights are zero")
    sizes = np.asarray(solution.feature_sizes, dtype=np.int64)[active]
    if (sizes == 0).any():
        offender = active[int(np.argmax(sizes == 0))]
        raise ZeroSizeActiveFeature(
            f"feature {solution.feature_names[offender]!r} has positive weight but size 0"
        )
    weights = np.asarray(solution.weights, dtype=np.float64)[active]
    log_weights = np.log(weights)
    log_sizes = np.log(sizes.astype(np.float64))
    return SizeLawPoints(
        feature_names=tuple(solution.feature_names[i] for i in active),
        raw_weights=weights,
        raw_sizes=sizes,
        log_weights=log_weights,
        log_sizes=log_sizes,
        z_log_weights=zscores(log_weights),
        z_log_sizes=zscores(log_sizes),
    )


def analyze(solution: "WeightSolution") -> SizeLawStats:
    """Correlations and regression of log weight on log size.

    Needs at least three active features; raises ZeroVariance when either
    the sizes or the weights are (numerically) constant.
    """
    points = extract_points(solution)
    n = points.n_points
    if n < 3:
        raise TooFewPoints(f"need at least 3 active features, got {n}")
    r = pearson(points.log_sizes, points.log_weights)
    rho = spearman(points.raw_sizes, points.raw_weights)
    slope, intercept = fit_line(points.log_sizes, points.log_weights)
    return SizeLawStats(
        pearson=r,
        spearman=rho,
        slope=slope,
        intercept=intercept,
        n_points=n,
        pearson_p_value=_correlation_p_two_sided(r, n),
        spearman_p_value=_correlation_p_two_sided(rho, n),
    )


def one_sample_ttest_negative(values) -> TTestResult:
    """One-sample t-test of mean < 0; one-sided p from the t distribution."""
    v = _as_vector(values, "values")
    n = v.size
    mean = float(v.mean())
    sample_sd = float(np.sqrt(np.sum((v - mean) ** 2) / (n - 1)))
    if sample_sd <= ZERO_VARIANCE_RTOL * max(1.0, abs(mean)):
        raise ZeroVariance("values are constant; t statistic undefined")
    t = mean / (sample_sd / math.sqrt(n))
    df = n - 1
    p = float(scipy.special.stdtr(df, t))
    return TTestResult(
        t_statistic=t,
        degrees_of_freedom=df,
        p_value_one_sided=p,
        mean=mean,
        sample_sd=sample_sd,
    )
