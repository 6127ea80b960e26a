"""Validated matrix types: binary feature matrices and symmetric similarities.

All downstream computation assumes these invariants, so the validators here
are the only sanctioned way to bring external data into the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetryExceedsTolerance,
    DuplicateLabel,
    NonBinaryCell,
    NonFiniteCell,
    NotSquare,
    ParseError,
    TooFewFeatures,
    TooFewObjects,
)

__all__ = [
    "FeatureMatrix",
    "SimilarityMatrix",
    "validate_feature_matrix",
    "validate_similarity_matrix",
]

# Relative factor for the default similarity symmetrization tolerance.
DEFAULT_SYMMETRY_RTOL = 1e-9


def _check_unique(labels, axis):
    seen = set()
    for label in labels:
        if label in seen:
            raise DuplicateLabel(f"duplicate {axis} label: {label!r}")
        seen.add(label)


@dataclass(frozen=True)
class FeatureMatrix:
    """N objects by K binary features; cell (i, k) means object i has feature k."""

    object_names: tuple[str, ...]
    feature_names: tuple[str, ...]
    cells: np.ndarray  # uint8, N x K, read-only

    def __post_init__(self):
        object.__setattr__(self, "object_names", tuple(self.object_names))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        cells = np.array(self.cells, dtype=np.uint8, order="C")
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    @property
    def n_objects(self) -> int:
        return len(self.object_names)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def feature_sizes(self) -> np.ndarray:
        """Number of objects carrying each feature (column sums)."""
        return self.cells.sum(axis=0, dtype=np.int64)


@dataclass(frozen=True)
class SimilarityMatrix:
    """N x N similarity grid, exactly symmetric as stored, finite cells."""

    object_names: tuple[str, ...]
    cells: np.ndarray  # float64, N x N, read-only

    def __post_init__(self):
        object.__setattr__(self, "object_names", tuple(self.object_names))
        cells = np.array(self.cells, dtype=np.float64, order="C")
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    @property
    def n_objects(self) -> int:
        return len(self.object_names)


def validate_feature_matrix(object_names, feature_names, cells) -> FeatureMatrix:
    """Check a labeled numeric grid and return it as a FeatureMatrix.

    Cells must be exactly 0 or 1, labels unique, and there must be at least
    two objects and one feature.
    """
    arr = np.asarray(cells, dtype=np.float64)
    if arr.ndim != 2:
        raise ParseError("feature grid is not rectangular")
    object_names = tuple(str(s) for s in object_names)
    feature_names = tuple(str(s) for s in feature_names)
    n, k = arr.shape
    if len(object_names) != n:
        raise ParseError(f"{len(object_names)} object labels for {n} rows")
    if len(feature_names) != k:
        raise ParseError(f"{len(feature_names)} feature labels for {k} columns")
    if n < 2:
        raise TooFewObjects(f"need at least 2 objects, got {n}")
    if k < 1:
        raise TooFewFeatures("need at least 1 feature column")
    _check_unique(object_names, "object")
    _check_unique(feature_names, "feature")
    binary = (arr == 0.0) | (arr == 1.0)
    if not binary.all():
        i, j = np.argwhere(~binary)[0]
        raise NonBinaryCell(
            f"cell ({object_names[i]!r}, {feature_names[j]!r}) is {arr[i, j]!r}, expected 0 or 1"
        )
    return FeatureMatrix(object_names, feature_names, arr)


def validate_similarity_matrix(object_names, cells, symmetry_tolerance=None) -> SimilarityMatrix:
    """Check a labeled numeric grid, symmetrize it, and return a SimilarityMatrix.

    Asymmetric inputs are averaged with their transpose when the largest
    absolute asymmetry is within tolerance. The default tolerance is
    ``1e-9 * max(|cell|)``; pass an explicit value to widen or tighten it.
    """
    arr = np.asarray(cells, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotSquare(f"similarity grid has shape {arr.shape}, expected square")
    object_names = tuple(str(s) for s in object_names)
    n = arr.shape[0]
    if len(object_names) != n:
        raise ParseError(f"{len(object_names)} object labels for {n} rows")
    if n < 2:
        raise TooFewObjects(f"need at least 2 objects, got {n}")
    _check_unique(object_names, "object")
    finite = np.isfinite(arr)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise NonFiniteCell(
            f"cell ({object_names[i]!r}, {object_names[j]!r}) is {arr[i, j]!r}"
        )
    if symmetry_tolerance is None:
        symmetry_tolerance = DEFAULT_SYMMETRY_RTOL * float(np.abs(arr).max())
    asymmetry = float(np.abs(arr - arr.T).max())
    if asymmetry > symmetry_tolerance:
        raise AsymmetryExceedsTolerance(
            f"max asymmetry {asymmetry:.6g} exceeds tolerance {symmetry_tolerance:.6g}"
        )
    # (s_ij + s_ji) / 2 == (s_ji + s_ij) / 2, so the result is exactly symmetric.
    return SimilarityMatrix(object_names, (arr + arr.T) / 2.0)
