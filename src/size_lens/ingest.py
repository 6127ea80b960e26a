"""CSV ingestion, feature filtering, and object alignment.

Both file formats are labeled grids: the first row carries column labels,
the first column carries row labels, and the corner cell is ignored.
Feature files hold 0/1 cells; similarity files hold a square numeric grid
whose row and column labels must agree.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllFeaturesFiltered,
    DuplicateLabel,
    EmptyIntersection,
    LabelAxisMismatch,
    ParseError,
    StrictMismatch,
    ZeroVariance,
)
from .matrices import (
    FeatureMatrix,
    SimilarityMatrix,
    validate_feature_matrix,
    validate_similarity_matrix,
)

__all__ = [
    "Provenance",
    "DatasetBundle",
    "read_feature_csv",
    "read_similarity_csv",
    "write_feature_csv",
    "write_similarity_csv",
    "normalize_similarity",
    "filter_features",
    "align_objects",
    "ALIGNMENT_POLICIES",
]

ALIGNMENT_POLICIES = ("strict", "intersect")


@dataclass(frozen=True)
class Provenance:
    """How a bundle was aligned: the policy and the objects each side lost."""

    alignment_policy: str = "strict"
    dropped_from_features: tuple[str, ...] = ()
    dropped_from_similarity: tuple[str, ...] = ()


@dataclass(frozen=True)
class DatasetBundle:
    """A matched feature/similarity pair ready for fitting."""

    name: str
    features: FeatureMatrix
    similarity: SimilarityMatrix
    provenance: Provenance = field(default_factory=Provenance)


def _read_grid(path):
    # Returns (column_labels, row_labels, float rows); raises ParseError with
    # 1-based file coordinates on anything malformed.
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            lines = list(csv.reader(handle))
    except OSError:
        raise
    lines = [row for row in lines if row]  # ignore fully blank lines
    if not lines:
        raise ParseError("file is empty", path=path)
    header = lines[0]
    if len(header) < 2:
        raise ParseError("header needs a corner cell and at least one label", path=path, row=1)
    column_labels = [cell.strip() for cell in header[1:]]
    width = len(header)
    row_labels = []
    rows = []
    for r, line in enumerate(lines[1:], start=2):
        if len(line) != width:
            raise ParseError(
                f"expected {width} cells, found {len(line)}", path=path, row=r
            )
        row_labels.append(line[0].strip())
        values = []
        for c, cell in enumerate(line[1:], start=2):
            text = cell.strip()
            try:
                values.append(float(text))
            except ValueError:
                raise ParseError(
                    f"cell {text!r} is not numeric", path=path, row=r, column=c
                ) from None
        rows.append(values)
    if not rows:
        raise ParseError("no data rows", path=path, row=1)
    return column_labels, row_labels, np.array(rows, dtype=np.float64)


def read_feature_csv(path) -> FeatureMatrix:
    """Read a labeled 0/1 grid: feature names across, object names down."""
    feature_names, object_names, grid = _read_grid(path)
    return validate_feature_matrix(object_names, feature_names, grid)


def read_similarity_csv(path, symmetry_tolerance=None) -> SimilarityMatrix:
    """Read a labeled square similarity grid; labels must match on both axes."""
    column_labels, row_labels, grid = _read_grid(path)
    if tuple(column_labels) != tuple(row_labels):
        raise LabelAxisMismatch(
            f"row labels {row_labels[:5]}... and column labels {column_labels[:5]}... disagree"
            if len(row_labels) > 5
            else f"row labels {row_labels} and column labels {column_labels} disagree"
        )
    return validate_similarity_matrix(row_labels, grid, symmetry_tolerance)


def _write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerows(rows)


def write_feature_csv(features: FeatureMatrix, path):
    rows = [["object", *features.feature_names]]
    for i, name in enumerate(features.object_names):
        rows.append([name, *(str(int(v)) for v in features.cells[i])])
    _write_rows(path, rows)


def write_similarity_csv(similarity: SimilarityMatrix, path):
    rows = [["object", *similarity.object_names]]
    for i, name in enumerate(similarity.object_names):
        rows.append([name, *(repr(float(v)) for v in similarity.cells[i])])
    _write_rows(path, rows)


def normalize_similarity(similarity: SimilarityMatrix) -> SimilarityMatrix:
    """Min-max rescale of every cell onto [0, 1]."""
    low = float(similarity.cells.min())
    high = float(similarity.cells.max())
    if high == low:
        raise ZeroVariance("all similarity cells are equal; cannot rescale")
    return SimilarityMatrix(
        similarity.object_names, (similarity.cells - low) / (high - low)
    )


def filter_features(
    features: FeatureMatrix,
    min_size: int = 0,
    max_size: int | None = None,
) -> FeatureMatrix:
    """Keep features whose size lies in [min_size, max_size]."""
    if min_size < 0 or (max_size is not None and max_size < min_size):
        raise ValueError(f"bad size bounds [{min_size}, {max_size}]")
    if max_size is None:
        # an out-of-range min_size falls through to AllFeaturesFiltered
        max_size = max(features.n_objects, min_size)
    sizes = features.feature_sizes
    keep = (sizes >= min_size) & (sizes <= max_size)
    if not keep.any():
        raise AllFeaturesFiltered(
            f"no feature has size in [{min_size}, {max_size}]"
        )
    kept = np.flatnonzero(keep)
    return FeatureMatrix(
        features.object_names,
        tuple(features.feature_names[k] for k in kept),
        features.cells[:, kept],
    )


def _alignment_key(name: str) -> str:
    return name.strip().lower()


def align_objects(
    similarity: SimilarityMatrix,
    features: FeatureMatrix,
    policy: str = "strict",
    name: str = "",
) -> DatasetBundle:
    """Match objects across the two matrices, ordered by similarity's order.

    Names match case-insensitively after trimming whitespace. Strict policy
    demands identical name sets; intersect keeps the shared names and
    records what was dropped.
    """
    if policy not in ALIGNMENT_POLICIES:
        raise ValueError(f"policy must be one of {ALIGNMENT_POLICIES}, got {policy!r}")
    sim_keys = [_alignment_key(n) for n in similarity.object_names]
    feat_keys = [_alignment_key(n) for n in features.object_names]
    for keys, labels, side in (
        (sim_keys, similarity.object_names, "similarity"),
        (feat_keys, features.object_names, "features"),
    ):
        if len(set(keys)) != len(keys):
            seen = {}
            for key, label in zip(keys, labels):
                if key in seen:
                    raise DuplicateLabel(
                        f"{side} names {seen[key]!r} and {label!r} collide after normalization"
                    )
                seen[key] = label
    feat_index = {key: i for i, key in enumerate(feat_keys)}
    sim_set = set(sim_keys)
    feat_set = set(feat_keys)
    if policy == "strict" and sim_set != feat_set:
        raise StrictMismatch(
            missing_in_features=tuple(
                similarity.object_names[i]
                for i, key in enumerate(sim_keys)
                if key not in feat_set
            ),
            missing_in_similarity=tuple(
                features.object_names[i]
                for i, key in enumerate(feat_keys)
                if key not in sim_set
            ),
        )
    shared_positions = [i for i, key in enumerate(sim_keys) if key in feat_set]
    if len(shared_positions) < 2:
        raise EmptyIntersection(
            f"only {len(shared_positions)} shared object name(s); need at least 2"
        )
    kept_names = tuple(similarity.object_names[i] for i in shared_positions)
    sim_cells = similarity.cells[np.ix_(shared_positions, shared_positions)]
    feature_rows = [feat_index[sim_keys[i]] for i in shared_positions]
    feat_cells = features.cells[feature_rows]
    dropped_sim = tuple(
        similarity.object_names[i]
        for i, key in enumerate(sim_keys)
        if key not in feat_set
    )
    dropped_feat = tuple(
        features.object_names[i]
        for i, key in enumerate(feat_keys)
        if key not in sim_set
    )
    return DatasetBundle(
        name=name,
        features=FeatureMatrix(kept_names, features.feature_names, feat_cells),
        similarity=SimilarityMatrix(kept_names, sim_cells),
        provenance=Provenance(
            alignment_policy=policy,
            dropped_from_features=dropped_feat,
            dropped_from_similarity=dropped_sim,
        ),
    )
