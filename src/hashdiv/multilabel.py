"""Sub-linear diverse multi-label prediction over a low-rank factor model.

A factor model scores label i for input x as W_i . (H^T x); prediction is
top-alpha retrieval over the rows of W. The diverse path indexes the
unit-normalized rows of W with an LSH family and runs the greedy
diversity-aware selector over the collided candidates only, so the number
of label-score evaluations is the candidate count, not the label count.

Rows of W are normalized for hashing (the collision law needs angles) but
returned scores always use the raw W: candidate generation is angular,
ranking is true inner product. Labels with a large norm but moderate angle
can therefore be under-retrieved; that gap is measured in the tests, not
hidden.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import lsh
from .data import Dataset
from .hashing import PCA, new_family
from .linalg import truncated_svd
from .select import select_greedy_div

_MAGIC = b"HDVM"


@dataclass(frozen=True)
class FactorModel:
    """Label embeddings W (L_labels x k) and feature map H (d x k)."""

    W: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        if self.W.ndim != 2 or self.H.ndim != 2 or self.W.shape[1] != self.H.shape[1]:
            raise ValueError("W must be (L, k) and H (d, k) with matching k")
        if not (np.isfinite(self.W).all() and np.isfinite(self.H).all()):
            raise ValueError("factor matrices must be finite")

    @property
    def n_labels(self) -> int:
        return self.W.shape[0]

    @property
    def d(self) -> int:
        return self.H.shape[0]

    @property
    def k(self) -> int:
        return self.W.shape[1]

    def scores(self, x) -> np.ndarray:
        """All label scores W (H^T x); the exact linear-scan quantity."""
        return self.W @ (self.H.T @ np.asarray(x, dtype=float).ravel())


@dataclass(frozen=True)
class LabelPrediction:
    labels: np.ndarray        # ordered label ids
    scores: np.ndarray        # raw W_i . (H^T x), aligned with labels
    eval_count: int           # label-score evaluations performed
    underfilled: bool = False


def save_factors(model: FactorModel, path) -> None:
    """Binary layout: magic, (L, d, k) header, row-major W then H, float64."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<QQQ", model.n_labels, model.d, model.k))
        fh.write(np.ascontiguousarray(model.W, dtype=np.float64).tobytes())
        fh.write(np.ascontiguousarray(model.H, dtype=np.float64).tobytes())


def load_factors(path) -> FactorModel:
    blob = open(path, "rb").read()
    if blob[:4] != _MAGIC:
        raise ValueError("not a factor-model file (bad magic)")
    L, d, k = struct.unpack_from("<QQQ", blob, 4)
    off = 4 + 24
    expected = off + (L * k + d * k) * 8
    if len(blob) != expected:
        raise ValueError(f"factor file size mismatch: header implies {expected} bytes, got {len(blob)}")
    W = np.frombuffer(blob, dtype=np.float64, count=L * k, offset=off).reshape(L, k).copy()
    off += L * k * 8
    H = np.frombuffer(blob, dtype=np.float64, count=d * k, offset=off).reshape(d, k).copy()
    return FactorModel(W=W, H=H)


def fit_lowrank_ridge(X, Y, k: int, ridge: float) -> FactorModel:
    """Rank-k ridge fit of Y ~ X (H W^T): solve the ridge regression
    M = (X^T X + ridge I)^-1 X^T Y, then truncate M to rank k via its top
    left singular subspace (H = U_k, W = M^T U_k). Plumbing so the pipeline
    runs end-to-end without an external trainer; this is not a trace-norm
    method and makes no such claim."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n, d = X.shape
    L = Y.shape[1]
    if Y.shape[0] != n:
        raise ValueError("X and Y disagree on the number of rows")
    if not 1 <= k <= min(d, L):
        raise ValueError(f"k={k} out of range [1, {min(d, L)}]")
    if ridge <= 0:
        raise ValueError("ridge must be > 0 (guards rank deficiency)")
    A = X.T @ X + ridge * np.eye(d)
    M = np.linalg.solve(A, X.T @ Y)  # (d, L)
    basis = truncated_svd(M, alpha=k)
    H = basis.U
    W = M.T @ H
    return FactorModel(W=W, H=H)


def predict_exact(model: FactorModel, x, alpha: int) -> LabelPrediction:
    """Top-alpha labels by full linear scan; eval_count = L_labels."""
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    scores = model.scores(x)
    order = np.lexsort((np.arange(model.n_labels), -scores))
    take = order[: min(alpha, model.n_labels)]
    return LabelPrediction(
        labels=take,
        scores=scores[take],
        eval_count=model.n_labels,
        underfilled=take.size < alpha,
    )


def build_label_index(
    model: FactorModel,
    l: int,
    L: int,
    *,
    kind: str = PCA,
    seed: int = 0,
) -> lsh.LshIndex:
    """LSH index over the unit-normalized rows of W. The pca kinds project
    onto new_family's default of min(200, k, n_labels) dimensions."""
    norms = np.linalg.norm(model.W, axis=1)
    if np.any(norms == 0):
        raise ValueError("W has a zero row; such a label cannot be hashed")
    Wn = model.W / norms[:, None]
    ds = Dataset(vectors=Wn)
    family = new_family(kind, l, L, d=model.k, seed=seed, dataset=ds)
    return lsh.build(ds, family)


def predict_diverse(
    model: FactorModel,
    index: lsh.LshIndex,
    x,
    alpha: int,
    lam: float,
) -> LabelPrediction:
    """Diverse label prediction: query the label index with the normalized
    embedded query H^T x, then greedily pick alpha diverse labels from the
    collided candidates (from every label when alpha >= n_labels).
    eval_count = candidate count."""
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    z = model.H.T @ np.asarray(x, dtype=float).ravel()
    nz = np.linalg.norm(z)
    if nz == 0.0:
        raise ValueError("embedded query H^T x is the zero vector")
    res, count = lsh.retrieve(
        index.dataset, None if alpha >= model.n_labels else index, z / nz, select_greedy_div, alpha, lam
    )
    return LabelPrediction(labels=res.ids, scores=model.W[res.ids] @ z, eval_count=count, underfilled=res.underfilled)
