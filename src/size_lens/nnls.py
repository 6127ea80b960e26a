"""Non-negative least squares by active-set iteration.

The solver keeps a passive set of columns allowed positive weight. Each
outer iteration moves the most-violating zero column into the passive set
(ties broken toward the lowest column index), re-solves the unconstrained
problem restricted to passive columns through a rank-revealing orthogonal
factorization, and, whenever that solution leaves the feasible region,
walks back along the segment toward it, dropping every column that hits
zero. A dropped column may not re-enter for one outer iteration, which
breaks the rare numerical cycles near degenerate subproblems.

On termination the weights satisfy the first-order conditions at the
requested tolerance: the gradient of the squared residual is >= -tol on
zero coordinates and within +-tol of zero on positive ones.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateColumn, DegenerateColumnWarning, LengthMismatch

__all__ = [
    "NnlsProblem",
    "NnlsSolution",
    "solve_nnls",
    "kkt_residual",
    "default_kkt_tolerance",
]


@dataclass(frozen=True)
class NnlsProblem:
    """Least-squares data: minimize ||design @ x - target|| subject to x >= 0."""

    design: np.ndarray  # M x K
    target: np.ndarray  # M

    def __post_init__(self):
        design = np.asarray(self.design, dtype=np.float64)
        target = np.asarray(self.target, dtype=np.float64)
        if design.ndim != 2:
            raise LengthMismatch(f"design must be 2-D, got shape {design.shape}")
        if design.shape[0] < 1 or design.shape[1] < 1:
            raise LengthMismatch(f"design must be at least 1 x 1, got {design.shape}")
        if target.shape != (design.shape[0],):
            raise LengthMismatch(
                f"target has shape {target.shape}, expected ({design.shape[0]},)"
            )
        if not np.isfinite(design).all() or not np.isfinite(target).all():
            raise LengthMismatch("design and target must be finite")
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "target", target)

    @property
    def n_columns(self) -> int:
        return self.design.shape[1]


@dataclass(frozen=True)
class NnlsSolution:
    """Solver output.

    ``active_set`` is exactly ``{k : weights[k] > 0}`` on termination; zero
    coordinates are stored as exact 0.0, so downstream code may test
    positivity without an epsilon. ``converged`` is False when the
    iteration budget ran out; the best iterate found is still returned.
    """

    weights: np.ndarray
    residual_norm: float
    iterations: int
    active_set: tuple[int, ...]
    converged: bool


def default_kkt_tolerance(design: np.ndarray) -> float:
    """Default stationarity tolerance, scaled by the largest column norm."""
    design = np.asarray(design, dtype=np.float64)
    return 1e-10 * (1.0 + float(np.linalg.norm(design, axis=0).max()))


def _least_squares(a_passive: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Complete orthogonal factorization (QR with column pivoting); returns
    # the minimum-norm solution even when the submatrix is rank deficient.
    solution, _, _, _ = scipy.linalg.lstsq(
        a_passive, b, lapack_driver="gelsy", check_finite=False
    )
    return solution


def solve_nnls(
    problem: NnlsProblem,
    kkt_tolerance: float | None = None,
    max_iterations: int | None = None,
) -> NnlsSolution:
    """Solve min ||A x - b|| subject to x >= 0.

    Parameters
    ----------
    problem : NnlsProblem
        Design matrix and target vector.
    kkt_tolerance : float, optional
        Stationarity tolerance. Defaults to ``1e-10 * (1 + max column norm)``.
    max_iterations : int, optional
        Outer-iteration budget. Defaults to three times the column count.
        When exhausted, the best iterate is returned with converged=False.
    """
    a = problem.design
    b = problem.target
    m, k = a.shape
    if kkt_tolerance is None:
        kkt_tolerance = default_kkt_tolerance(a)
    if kkt_tolerance <= 0.0:
        raise ValueError("kkt_tolerance must be positive")
    if max_iterations is None:
        max_iterations = 3 * k
    if max_iterations < 0:
        raise ValueError("max_iterations must be non-negative")

    x = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    # Outer-iteration number from which a dropped column may re-enter.
    reentry_at = np.zeros(k, dtype=np.int64)
    outer = 0
    stalled_drops = 0
    converged = False

    def restore_feasibility(entered: int) -> None:
        # Inner loop: accept the subproblem solution if it is positive on
        # every passive column, otherwise step toward it until the first
        # column hits zero and drop every column that does.
        nonlocal stalled_drops
        first = True
        while True:
            cols = np.flatnonzero(passive)
            if cols.size == 0:
                x[:] = 0.0
                return
            sub = _least_squares(a[:, cols], b)
            if first and sub[np.searchsorted(cols, entered)] <= 0.0:
                # The entering column gained nothing: its coefficient is
                # pinned at or below zero, which only happens when the
                # passive submatrix is numerically singular. Drop it.
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
            # denom == 0 only when a column sits at zero already; it leaves at alpha 0.
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
        gradient_neg = a.T @ residual  # minus the gradient; positive entries violate
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
            continue  # only freshly dropped columns violate; let the guard lapse
        if stalled_drops > k:
            raise DegenerateColumn(
                f"no progress after {stalled_drops} degenerate column drops"
            )
        scores = np.where(eligible, gradient_neg, -np.inf)
        entering = int(np.argmax(scores))  # argmax takes the lowest index on ties
        passive[entering] = True
        restore_feasibility(entering)

    active = np.flatnonzero(passive)
    residual_norm = float(np.linalg.norm(a @ x - b))
    x.flags.writeable = False
    return NnlsSolution(
        weights=x,
        residual_norm=residual_norm,
        iterations=outer,
        active_set=tuple(int(i) for i in active),
        converged=converged,
    )


def kkt_residual(problem: NnlsProblem, weights) -> float:
    """Largest first-order violation of a feasible point.

    For positive coordinates the gradient must vanish; for zero coordinates
    it must be non-negative. Returns the largest absolute shortfall.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (problem.n_columns,):
        raise LengthMismatch(
            f"weights have shape {w.shape}, expected ({problem.n_columns},)"
        )
    if (w < 0.0).any():
        raise ValueError("weights must be non-negative")
    gradient = problem.design.T @ (problem.design @ w - problem.target)
    positive = w > 0.0
    violation_positive = float(np.abs(gradient[positive]).max(initial=0.0))
    violation_zero = float(np.maximum(-gradient[~positive], 0.0).max(initial=0.0))
    return max(violation_positive, violation_zero)
