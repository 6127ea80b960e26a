"""Non-negative least squares by active-set iteration in Gram form.

This is the Lawson-Hanson active set in the Gram form of Bro & De Jong
(1997): it never touches the design A of min ||A x - b||, x >= 0, only
h = A^T b, the diagonal of G = A^T A and a column oracle for G[:, j]. A
column of G is built when its index first enters the passive set, so K
columns with |P| positive weights cost O(K |P|) memory.

Each outer iteration moves the most-violating zero column into the passive
set (ties broken toward the lowest column index), solves G[P, P] z = h[P]
through a Cholesky factor, and, whenever that solution leaves the feasible
region, walks back along the segment toward it, dropping every column that
hits zero. An entering column whose Cholesky pivot d^2 is at most
``DEGENERATE_PIVOT_RTOL * G_jj`` is numerically in the span of the passive
columns and is dropped with a ``DegenerateColumnWarning``. A dropped column
may not re-enter for one outer iteration, which breaks the rare numerical
cycles near degenerate subproblems.

The gradient g = h - G[:, P] x_P is recomputed from the built columns at
every outer iteration. On convergence no zero coordinate has g > tol, and
the largest first-order violation over all coordinates is reported.

A problem provides ``n_columns``, ``target``, ``gram_rhs`` (h),
``gram_diagonal``, ``gram_column(j)`` and ``fitted(x)`` (A x).
``NnlsProblem`` is the adapter for an explicit design.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumn, DegenerateColumnWarning, LengthMismatch

__all__ = [
    "NnlsProblem",
    "NnlsSolution",
    "solve_nnls",
    "kkt_residual",
    "default_kkt_tolerance",
]

# An entering column's squared Cholesky pivot at or below this fraction of
# its squared norm marks it as numerically dependent on the passive columns.
DEGENERATE_PIVOT_RTOL = 1e-12


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

    # einsum rounds every output element alike, so identical columns get
    # bit-identical Gram entries and gradients and tie-breaking stays exact.
    @property
    def gram_rhs(self) -> np.ndarray:
        return np.einsum("ij,i->j", self.design, self.target)

    @property
    def gram_diagonal(self) -> np.ndarray:
        return np.einsum("ij,ij->j", self.design, self.design)

    def gram_column(self, j: int) -> np.ndarray:
        return np.einsum("ij,i->j", self.design, self.design[:, j])

    def fitted(self, x: np.ndarray) -> np.ndarray:
        return self.design @ x


@dataclass(frozen=True)
class NnlsSolution:
    """Solver output.

    ``active_set`` is exactly ``{k : weights[k] > 0}`` on termination; zero
    coordinates are stored as exact 0.0, so downstream code may test
    positivity without an epsilon. ``converged`` is False when the
    iteration budget ran out; the best iterate found is still returned.
    ``fitted`` is the model's value for the target at ``weights``.
    ``kkt_residual`` is the largest first-order violation of the final
    gradient, ``gram_columns`` the number of Gram columns built and
    ``degenerate_drops`` the number of entering columns dropped as
    numerically dependent.
    """

    weights: np.ndarray
    fitted: np.ndarray
    residual_norm: float
    iterations: int
    active_set: tuple[int, ...]
    converged: bool
    kkt_residual: float
    gram_columns: int
    degenerate_drops: int


def _tolerance(gram_diagonal: np.ndarray) -> float:
    return 1e-10 * (1.0 + float(np.sqrt(gram_diagonal.max())))


def default_kkt_tolerance(design: np.ndarray) -> float:
    """Default stationarity tolerance, scaled by the largest column norm."""
    design = np.asarray(design, dtype=np.float64)
    return _tolerance(np.einsum("ij,ij->j", design, design))


def solve_nnls(
    problem,
    kkt_tolerance: float | None = None,
    max_iterations: int | None = None,
) -> NnlsSolution:
    """Solve min ||A x - b|| subject to x >= 0.

    Parameters
    ----------
    problem : NnlsProblem or another Gram-form problem (see the module doc)
        Normal-equation data: h = A^T b, diag(A^T A) and a column oracle.
    kkt_tolerance : float, optional
        Stationarity tolerance. Defaults to ``1e-10 * (1 + max column norm)``.
    max_iterations : int, optional
        Outer-iteration budget. Defaults to three times the column count.
        When exhausted, the best iterate is returned with converged=False.
    """
    k = problem.n_columns
    h = problem.gram_rhs
    diagonal = problem.gram_diagonal
    if kkt_tolerance is None:
        kkt_tolerance = _tolerance(diagonal)
    if kkt_tolerance <= 0.0:
        raise ValueError("kkt_tolerance must be positive")
    if max_iterations is None:
        max_iterations = 3 * k
    if max_iterations < 0:
        raise ValueError("max_iterations must be non-negative")

    x = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    order: list[int] = []  # passive columns in the order they entered
    # Outer-iteration number from which a dropped column may re-enter.
    reentry_at = np.zeros(k, dtype=np.int64)
    # Built Gram columns, one per row of `built`; `slot[j]` is column j's row.
    built = np.empty((min(k, 16), k))
    built_columns = np.empty(built.shape[0], dtype=np.int64)
    slot = np.full(k, -1, dtype=np.int64)
    n_built = 0
    outer = 0
    stalled_drops = 0
    drops = 0
    converged = False

    def build(j: int) -> None:
        nonlocal built, built_columns, n_built
        if n_built == built.shape[0]:
            grown = np.empty((min(k, 2 * n_built), k))
            grown[:n_built] = built
            built = grown
            built_columns = np.resize(built_columns, grown.shape[0])
        built[n_built] = problem.gram_column(j)
        built_columns[n_built] = j
        slot[j] = n_built
        n_built += 1

    def restore_feasibility(entered: int) -> None:
        # Inner loop: accept the subproblem solution if it is positive on
        # every passive column, otherwise step toward it until the first
        # column hits zero and drop every column that does.
        nonlocal order, stalled_drops, drops
        first = True
        while order:
            cols = np.array(order)
            try:
                factor = np.linalg.cholesky(built[slot[cols][:, None], cols])
            except np.linalg.LinAlgError:
                if not first:
                    raise  # a block that factored once keeps factoring as it shrinks
                pivot_sq = 0.0  # the entering column broke positive definiteness
            else:
                pivot_sq = factor[-1, -1] ** 2
                z = np.linalg.solve(factor.T, np.linalg.solve(factor, h[cols]))
            if first and (pivot_sq <= DEGENERATE_PIVOT_RTOL * diagonal[entered] or z[-1] <= 0.0):
                # The entering column lies in the span of the passive ones:
                # its pivot vanishes, or its coefficient is pinned at or
                # below zero. Drop it.
                order.pop()
                passive[entered] = False
                reentry_at[entered] = outer + 1
                stalled_drops += 1
                drops += 1
                warnings.warn(
                    f"dropped numerically degenerate column {entered}",
                    DegenerateColumnWarning,
                    stacklevel=3,
                )
                return
            first = False
            negative = z <= 0.0
            if not negative.any():
                x[cols] = z
                return
            numer = x[cols][negative]
            denom = numer - z[negative]
            # denom == 0 only when a column sits at zero already; it leaves at alpha 0.
            shrink = np.divide(numer, denom, out=np.zeros_like(numer), where=denom > 0.0)
            alpha = float(shrink.min())
            x[cols] += alpha * (z - x[cols])
            leaving = cols[negative][shrink <= alpha]
            passive[leaving] = False
            reentry_at[leaving] = outer + 1
            x[leaving] = 0.0
            np.maximum(x, 0.0, out=x)
            order = [j for j in order if passive[j]]
        x[:] = 0.0

    best = np.inf
    while True:
        # Minus the gradient of ||A x - b||^2 / 2; positive entries violate.
        # einsum, unlike BLAS, rounds every column alike: duplicate columns
        # keep equal gradients, so ties break toward the lowest index.
        gradient = h - np.einsum("s,sj->j", x[built_columns[:n_built]], built[:n_built])
        # ||A x - b||^2 - ||b||^2, enough to tell whether a step made progress
        objective = -float(x @ (h + gradient))
        if objective < best:
            best = objective
            stalled_drops = 0
        violating = ~passive & (gradient > kkt_tolerance)
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
        scores = np.where(eligible, gradient, -np.inf)
        entering = int(np.argmax(scores))  # argmax takes the lowest index on ties
        if slot[entering] < 0:
            build(entering)
        passive[entering] = True
        order.append(entering)
        restore_feasibility(entering)

    fitted = problem.fitted(x)
    kkt = max(
        float(np.abs(gradient[passive]).max(initial=0.0)),
        float(gradient[~passive].max(initial=0.0)),
    )
    x.flags.writeable = False
    return NnlsSolution(
        weights=x,
        fitted=fitted,
        residual_norm=float(np.linalg.norm(fitted - problem.target)),
        iterations=outer,
        active_set=tuple(int(i) for i in np.flatnonzero(passive)),
        converged=converged,
        kkt_residual=kkt,
        gram_columns=n_built,
        degenerate_drops=drops,
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
