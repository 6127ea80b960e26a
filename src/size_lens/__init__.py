"""size-lens: does feature weight fall off with feature size?

The package fits non-negative additive-clustering weights to pairwise
similarity data over a fixed binary feature matrix, then measures how the
fitted weights relate to feature size (the number of objects carrying the
feature). A built-in Bayesian generalization model doubles as an oracle:
it plants synthetic datasets whose ground truth the pipeline must recover.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    DataError,
    SizeLensError,
    SolverError,
    StatsError,
)
from .matrices import (  # noqa: F401
    FeatureMatrix,
    SimilarityMatrix,
    validate_feature_matrix,
    validate_similarity_matrix,
)
from .nnls import NnlsProblem, NnlsSolution, kkt_residual, solve_nnls  # noqa: F401
from .adclus import (  # noqa: F401
    WeightSolution,
    build_design,
    fit,
    predict,
    r_squared,
)
from .sizelaw import (  # noqa: F401
    SizeLawPoints,
    SizeLawStats,
    TTestResult,
    analyze,
    extract_points,
    fit_line,
    one_sample_ttest_negative,
    pearson,
    spearman,
)
from .bayesgen import (  # noqa: F401
    HypothesisSpace,
    PosteriorDistribution,
    generalization_matrix,
    generalize,
    hypothesis_space_from_features,
    likelihood,
    plant_dataset,
    posterior,
    shepard_similarity,
)
from .ingest import (  # noqa: F401
    DatasetBundle,
    Provenance,
    align_objects,
    filter_features,
    normalize_similarity,
    read_feature_csv,
    read_similarity_csv,
    write_feature_csv,
    write_similarity_csv,
)
from .report import (  # noqa: F401
    SizeLawReport,
    read_table,
    write_scatter_svg,
    write_table,
    write_ttest_summary,
)
