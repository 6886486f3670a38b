"""Diverse yet efficient nearest-neighbor retrieval.

Sign-random-projection LSH (plain, PCA-projected, and PCA-direct families)
combined with diversity-aware selection (greedy, MMR, rerank, relaxed QP),
evaluation metrics, and a sub-linear diverse multi-label predictor over
low-rank factor models.

The package exports what the acceptance suite reads, which checks the
collision laws on the keys of `new_family` and `hash_matrix`; everything
else is imported from its own module.
"""

from .hashing import PLAIN, hash_matrix, new_family
from .lsh import build, query, tune
from .metrics import h_score, mean_pairwise_distance, precision_at_k
from .multilabel import FactorModel, build_label_index, predict_diverse, predict_exact
from .select import (
    SelectionProblem,
    qp_relax_solve,
    select_greedy_div,
    select_mmr,
    select_nn,
    select_qp_rel,
    select_rerank,
)

__version__ = "0.1.0"
