"""Diverse yet efficient nearest-neighbor retrieval.

Sign-random-projection LSH (plain, PCA-projected, and PCA-direct families)
combined with diversity-aware selection (greedy, MMR, rerank, relaxed QP),
evaluation metrics, and a sub-linear diverse multi-label predictor over
low-rank factor models.
"""

from .data import DataPoint, Dataset, ToyConfig, load_dense, load_sparse, make_toy
from .hashing import (
    PCA,
    PCA_DIRECT,
    PLAIN,
    HashFamily,
    collision_probability,
    estimate_collision_rate,
    new_family,
)
from .linalg import TruncatedBasis, project_capped_simplex, truncated_svd
from .lsh import CandidateSet, LshIndex, build, query, tune
from .metrics import (
    HierarchyTree,
    bfs_prune,
    entropy_diversity,
    f_score,
    h_score,
    mean_pairwise_distance,
    precision_at_k,
    subtopic_recall,
    tree_diversity,
)
from .multilabel import (
    FactorModel,
    LabelPrediction,
    build_label_index,
    fit_lowrank_ridge,
    load_factors,
    predict_diverse,
    predict_exact,
    save_factors,
)
from .select import (
    QpSolveReport,
    SelectionProblem,
    SelectionResult,
    qp_relax_solve,
    select_greedy_div,
    select_mmr,
    select_nn,
    select_qp_rel,
    select_rerank,
)

__version__ = "0.1.0"
