"""Bayesian generalization over discrete hypothesis spaces.

A hypothesis is a candidate extension: a non-empty subset of the objects.
Observing examples updates a prior over hypotheses by Bayes' rule, and the
probability that a target falls under the same concept is the posterior
mass of the hypotheses containing it. Under strong sampling each example is
drawn uniformly from the hypothesis, so an n-example likelihood is
(1/|h|)^n and smaller hypotheses win; under weak sampling the likelihood is
a bare consistency indicator and size never matters.

The module also plants synthetic datasets with known ground truth so the
whole fitting pipeline can be validated end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InconsistentExamples,
    InvalidHypothesisSpace,
    NegativeDistance,
    RetryLimitExceeded,
    TooFewObjects,
    UnknownObject,
)
from .matrices import FeatureMatrix, SimilarityMatrix

__all__ = [
    "HypothesisSpace",
    "PosteriorDistribution",
    "STRONG_SAMPLING",
    "WEAK_SAMPLING",
    "LIKELIHOOD_MODES",
    "WEIGHT_LAWS",
    "shepard_similarity",
    "likelihood",
    "posterior",
    "generalize",
    "generalization_matrix",
    "hypothesis_space_from_features",
    "plant_dataset",
]

STRONG_SAMPLING = "strong_sampling"
WEAK_SAMPLING = "weak_sampling"
LIKELIHOOD_MODES = (STRONG_SAMPLING, WEAK_SAMPLING)

INVERSE_SIZE = "inverse_size"
INVERSE_SIZE_SQUARED = "inverse_size_squared"
UNIFORM = "uniform"
WEIGHT_LAWS = (INVERSE_SIZE, INVERSE_SIZE_SQUARED, UNIFORM)

PRIOR_SUM_TOLERANCE = 1e-12


def shepard_similarity(distance: float) -> float:
    """Exponential-decay similarity for a non-negative distance."""
    if distance < 0:
        raise NegativeDistance(f"distance must be non-negative, got {distance}")
    return math.exp(-distance)


@dataclass(frozen=True)
class HypothesisSpace:
    """Objects, candidate extensions, priors, and a sampling mode."""

    object_names: tuple[str, ...]
    hypotheses: tuple[frozenset[str], ...]
    priors: np.ndarray
    likelihood_mode: str = STRONG_SAMPLING
    membership: np.ndarray = field(init=False, repr=False)  # N x K, uint8
    sizes: np.ndarray = field(init=False, repr=False)  # K, int64

    def __post_init__(self):
        object_names = tuple(str(s) for s in self.object_names)
        if len(object_names) < 1:
            raise InvalidHypothesisSpace("need at least one object")
        if len(set(object_names)) != len(object_names):
            raise InvalidHypothesisSpace("object names must be unique")
        hypotheses = tuple(frozenset(h) for h in self.hypotheses)
        if len(hypotheses) < 1:
            raise InvalidHypothesisSpace("need at least one hypothesis")
        known = set(object_names)
        for idx, h in enumerate(hypotheses):
            if not h:
                raise InvalidHypothesisSpace(f"hypothesis {idx} is empty")
            if not h <= known:
                raise InvalidHypothesisSpace(
                    f"hypothesis {idx} names unknown objects: {sorted(h - known)}"
                )
        priors = np.asarray(self.priors, dtype=np.float64)
        if priors.shape != (len(hypotheses),):
            raise InvalidHypothesisSpace(
                f"priors have shape {priors.shape}, expected ({len(hypotheses)},)"
            )
        if (priors < 0).any():
            raise InvalidHypothesisSpace("priors must be non-negative")
        if abs(float(priors.sum()) - 1.0) > PRIOR_SUM_TOLERANCE:
            raise InvalidHypothesisSpace(f"priors sum to {priors.sum()!r}, expected 1")
        if self.likelihood_mode not in LIKELIHOOD_MODES:
            raise InvalidHypothesisSpace(
                f"likelihood_mode must be one of {LIKELIHOOD_MODES}, got {self.likelihood_mode!r}"
            )
        membership = np.zeros((len(object_names), len(hypotheses)), dtype=np.uint8)
        index = {name: i for i, name in enumerate(object_names)}
        for k, h in enumerate(hypotheses):
            for name in h:
                membership[index[name], k] = 1
        membership.flags.writeable = False
        priors = priors.copy()
        priors.flags.writeable = False
        sizes = np.array([len(h) for h in hypotheses], dtype=np.int64)
        sizes.flags.writeable = False
        object.__setattr__(self, "object_names", object_names)
        object.__setattr__(self, "hypotheses", hypotheses)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "membership", membership)
        object.__setattr__(self, "sizes", sizes)

    @property
    def n_objects(self) -> int:
        return len(self.object_names)

    @property
    def n_hypotheses(self) -> int:
        return len(self.hypotheses)


@dataclass(frozen=True)
class PosteriorDistribution:
    """Per-hypothesis posterior given an example multiset."""

    probabilities: np.ndarray
    examples: tuple[str, ...]
    normalizer: float

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=np.float64).copy()
        probs.flags.writeable = False
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "examples", tuple(self.examples))


def likelihood(hypothesis, examples, mode: str = STRONG_SAMPLING) -> float:
    """Probability of the example multiset under one hypothesis.

    Strong sampling draws each example uniformly from the hypothesis;
    weak sampling only checks consistency.
    """
    if mode not in LIKELIHOOD_MODES:
        raise InvalidHypothesisSpace(f"unknown likelihood mode {mode!r}")
    h = frozenset(hypothesis)
    if not h:
        raise InvalidHypothesisSpace("hypothesis is empty")
    examples = tuple(examples)
    if not examples:
        raise InconsistentExamples("need at least one example")
    if any(e not in h for e in examples):
        return 0.0
    if mode == WEAK_SAMPLING:
        return 1.0
    return (1.0 / len(h)) ** len(examples)


def _size_factors(space: HypothesisSpace, n_examples: int) -> np.ndarray:
    # Per-hypothesis likelihood of n consistent examples: |h|^-n under
    # strong sampling, 1 under weak sampling.
    if space.likelihood_mode == STRONG_SAMPLING:
        return space.sizes.astype(np.float64) ** float(-n_examples)
    return np.ones(space.n_hypotheses)


def _object_row(space: HypothesisSpace, name: str, role: str) -> int:
    try:
        return space.object_names.index(name)
    except ValueError:
        raise UnknownObject(f"{role} {name!r} is not an object of this space") from None


def posterior(space: HypothesisSpace, examples) -> PosteriorDistribution:
    """Bayes-rule posterior over hypotheses given observed examples."""
    examples = tuple(str(e) for e in examples)
    if not examples:
        raise InconsistentExamples("need at least one example")
    rows = [_object_row(space, e, "example") for e in examples]
    consistent = space.membership[rows].all(axis=0)
    unnormalized = consistent * _size_factors(space, len(examples)) * space.priors
    normalizer = float(unnormalized.sum())
    if normalizer <= 0.0:
        raise InconsistentExamples(
            f"no positive-prior hypothesis contains all of {examples}"
        )
    return PosteriorDistribution(
        probabilities=unnormalized / normalizer,
        examples=examples,
        normalizer=normalizer,
    )


def generalize(space: HypothesisSpace, examples, target: str) -> float:
    """Posterior probability that the target falls under the same concept."""
    row = _object_row(space, target, "target")
    post = posterior(space, examples)
    mask = space.membership[row].astype(bool)
    value = float(post.probabilities[mask].sum())
    return min(1.0, max(0.0, value))


def generalization_matrix(space: HypothesisSpace, n_examples: int = 1) -> SimilarityMatrix:
    """Generalization probabilities between all object pairs.

    Cell (i, j) averages generalizing from i to j and from j to i, where
    "from i" means observing object i as an example n_examples times.
    """
    if n_examples < 1:
        raise InconsistentExamples(f"n_examples must be >= 1, got {n_examples}")
    if space.n_objects < 2:
        raise TooFewObjects("a similarity matrix needs at least 2 objects")
    member = space.membership.astype(np.float64)
    unnormalized = member * (_size_factors(space, n_examples) * space.priors)
    normalizers = unnormalized.sum(axis=1)
    if (normalizers <= 0.0).any():
        missing = space.object_names[int(np.argmax(normalizers <= 0.0))]
        raise InconsistentExamples(
            f"object {missing!r} is in no positive-prior hypothesis"
        )
    posteriors = unnormalized / normalizers[:, None]
    grid = posteriors @ member.T  # cell (i, j): mass of hypotheses containing j, given i
    return SimilarityMatrix(space.object_names, (grid + grid.T) / 2.0)


def hypothesis_space_from_features(
    features: FeatureMatrix,
    priors=None,
    likelihood_mode: str = STRONG_SAMPLING,
) -> HypothesisSpace:
    """Treat each feature's extension (its objects) as one hypothesis."""
    hypotheses = []
    for k in range(features.n_features):
        members = frozenset(
            features.object_names[i]
            for i in np.flatnonzero(features.cells[:, k])
        )
        if not members:
            raise InvalidHypothesisSpace(
                f"feature {features.feature_names[k]!r} has no objects"
            )
        hypotheses.append(members)
    if priors is None:
        priors = np.full(features.n_features, 1.0 / features.n_features)
    return HypothesisSpace(
        object_names=features.object_names,
        hypotheses=tuple(hypotheses),
        priors=priors,
        likelihood_mode=likelihood_mode,
    )


def _law_weights(law: str, sizes: np.ndarray) -> np.ndarray:
    if law == INVERSE_SIZE:
        return 1.0 / sizes.astype(np.float64)
    if law == INVERSE_SIZE_SQUARED:
        return 1.0 / sizes.astype(np.float64) ** 2
    if law == UNIFORM:
        return np.ones(sizes.size)
    raise ValueError(f"weight_law must be one of {WEIGHT_LAWS}, got {law!r}")


def plant_dataset(
    n_objects: int,
    n_features: int,
    weight_law: str = INVERSE_SIZE,
    noise_sd: float = 0.0,
    seed: int = 0,
    bernoulli_p: float = 0.3,
    max_retries: int = 50,
) -> tuple[FeatureMatrix, SimilarityMatrix, np.ndarray]:
    """Generate a feature matrix and similarities with known planted weights.

    Feature cells are independent Bernoulli draws. A draw is rejected when
    any column is all-zero or all-one, or when the pairwise-product design
    columns are linearly dependent; up to ``max_retries`` redraws are made
    before giving up. Weights follow the requested law on the realized
    feature sizes; optional Gaussian noise lands on the upper triangle and
    is mirrored. Everything is deterministic given the seed.
    """
    if n_objects < 3:
        raise TooFewObjects(f"need at least 3 objects to plant, got {n_objects}")
    if n_features < 2:
        raise ValueError(f"need at least 2 features to plant, got {n_features}")
    if noise_sd < 0:
        raise ValueError("noise_sd must be non-negative")
    if weight_law not in WEIGHT_LAWS:
        raise ValueError(f"weight_law must be one of {WEIGHT_LAWS}, got {weight_law!r}")
    rng = np.random.default_rng(seed)
    ii, jj = np.triu_indices(n_objects, k=1)
    cells = None
    for _ in range(max_retries):
        draw = (rng.random((n_objects, n_features)) < bernoulli_p).astype(np.uint8)
        sizes = draw.sum(axis=0)
        if (sizes == 0).any() or (sizes == n_objects).any():
            continue
        design = (draw[ii] * draw[jj]).astype(np.float64)
        if np.linalg.matrix_rank(design) < n_features:
            continue
        cells = draw
        break
    if cells is None:
        raise RetryLimitExceeded(
            f"no acceptable feature matrix in {max_retries} draws "
            f"({n_objects} objects, {n_features} features, p={bernoulli_p})"
        )
    object_names = tuple(f"o{i + 1:02d}" for i in range(n_objects))
    feature_names = tuple(f"f{k + 1:03d}" for k in range(n_features))
    features = FeatureMatrix(object_names, feature_names, cells)
    weights = _law_weights(weight_law, features.feature_sizes)
    pair_values = design @ weights
    if noise_sd > 0.0:
        pair_values = pair_values + rng.normal(0.0, noise_sd, pair_values.size)
    grid = np.zeros((n_objects, n_objects))
    grid[ii, jj] = pair_values
    grid = grid + grid.T
    np.fill_diagonal(grid, cells.astype(np.float64) @ weights)
    return features, SimilarityMatrix(object_names, grid), weights
