"""Sub-linear diverse multi-label prediction over a low-rank factor model.

A factor model scores label i for input x as W_i . (H^T x); prediction is
top-alpha retrieval over the rows of W. The exact scan, MMR over its
3 * alpha best labels, and the diverse path share one embedding step. The
diverse path indexes the unit-normalized rows of W with an LSH family and
runs the greedy diversity-aware selector over the collided candidates
only, so the number of label-score evaluations is the candidate count, not
the label count.

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
from .data import Dataset, normalize_rows
from .hashing import PCA, new_family
from .linalg import truncated_svd
from .select import SelectionProblem, check_lam, select_greedy_div, select_mmr, top_k

_MAGIC = b"HDVM"
_HEADER = 4 + 24  # magic, then (L, d, k) as three u64


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

    def _document(self, x) -> np.ndarray:
        """x as a float array, or ValueError unless it is a 1-d array of
        the model's d features, every one finite: the one document rule."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise ValueError(f"document must be a 1-d array of {self.d} features, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError(f"document feature {np.flatnonzero(~np.isfinite(x))[0]} is NaN or infinite")
        return x

    def scores(self, x) -> np.ndarray:
        """All label scores W (H^T x); the exact linear-scan quantity. A
        document that `_document` refuses raises ValueError."""
        return self.W @ (self.H.T @ self._document(x))


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
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER:
        raise ValueError(f"truncated factor file: {len(blob)} bytes, the header alone is {_HEADER}")
    if blob[:4] != _MAGIC:
        raise ValueError("not a factor-model file (bad magic)")
    L, d, k = struct.unpack_from("<QQQ", blob, 4)
    expected = _HEADER + (L * k + d * k) * 8
    if len(blob) != expected:
        raise ValueError(f"factor file size mismatch: header implies {expected} bytes, got {len(blob)}")
    values = np.frombuffer(blob, dtype=np.float64, offset=_HEADER)
    return FactorModel(W=values[: L * k].reshape(L, k).copy(), H=values[L * k :].reshape(d, k).copy())


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
        raise ValueError(f"rank k={k} out of range [1, {min(d, L)}] for {d} features and {L} labels")
    if not ridge > 0:  # also refuses NaN
        raise ValueError("ridge must be > 0 (guards rank deficiency)")
    A = X.T @ X + ridge * np.eye(d)
    M = np.linalg.solve(A, X.T @ Y)  # (d, L)
    basis = truncated_svd(M, alpha=k)
    H = basis.U
    W = M.T @ H
    return FactorModel(W=W, H=H)


@np.errstate(over="ignore", invalid="ignore")
def _embed(model: FactorModel, x, alpha: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The step every predictor starts from: the embedded query z = H^T x
    and its unit vector, or None when |z| is zero, so no label score can
    rank. An alpha below 1, a document that `model._document` refuses, or
    one whose z or |z| overflows raises ValueError, and numpy warns of
    neither."""
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    z = model.H.T @ model._document(x)
    nz = np.linalg.norm(z)
    if not np.isfinite(nz):
        raise ValueError("embedded query H^T x or its norm overflows")
    return (z, z / nz) if nz > 0 else None


def _nothing() -> LabelPrediction:
    """The prediction for a zero embedding: no labels, no evaluations."""
    return LabelPrediction(labels=np.empty(0, dtype=np.intp), scores=np.empty(0), eval_count=0, underfilled=True)


def predict_exact(model: FactorModel, x, alpha: int) -> LabelPrediction:
    """Top-alpha labels by full linear scan, ties by ascending id;
    eval_count = L_labels."""
    embedded = _embed(model, x, alpha)
    if embedded is None:
        return _nothing()
    scores = model.W @ embedded[0]
    # a full sort, not top_k: C7's speedup gate times it (ROADMAP item 1)
    take = np.lexsort((np.arange(model.n_labels), -scores))[:alpha]
    return LabelPrediction(labels=take, scores=scores[take], eval_count=model.n_labels, underfilled=take.size < alpha)


def predict_mmr(model: FactorModel, x, alpha: int, lam: float) -> LabelPrediction:
    """MMR baseline (Carbonell & Goldstein, 1998): the exact scan's
    3 * alpha best labels (top_k) form the pool, and MMR picks alpha of
    them by their unit-normalized rows (`normalize_rows`, so a row whose
    norm overflows keeps its direction; a zero row stays zero) against the
    unit embedded query. eval_count = L_labels."""
    check_lam(lam)
    embedded = _embed(model, x, alpha)
    if embedded is None:
        return _nothing()
    z, q = embedded
    scores = model.W @ z
    ids = np.sort(top_k(-scores, np.arange(model.n_labels), 3 * alpha))  # SelectionProblem wants ascending ids
    res = select_mmr(SelectionProblem(query=q, ids=ids, vectors=normalize_rows(model.W[ids]), k=alpha, lam=lam))
    return LabelPrediction(labels=res.ids, scores=scores[res.ids], eval_count=model.n_labels, underfilled=res.underfilled)


def build_label_index(
    model: FactorModel,
    l: int,
    L: int,
    *,
    kind: str = PCA,
    seed: int = 0,
) -> lsh.LshIndex:
    """LSH index over the unit-normalized rows of W (a row whose norm
    overflows is rescaled first, as `normalize_rows` does). The pca kinds
    project onto new_family's default of min(200, k, n_labels) dimensions."""
    if not model.W.any(axis=1).all():
        raise ValueError("W has a zero row; such a label cannot be hashed")
    ds = Dataset(vectors=normalize_rows(model.W))
    family = new_family(kind, l, L, d=model.k, seed=seed, dataset=ds)
    return lsh.build(ds, family)


def predict_diverse(model: FactorModel, index: lsh.LshIndex, x, alpha: int, lam: float) -> LabelPrediction:
    """Diverse label prediction: query the label index with the normalized
    embedded query H^T x, then greedily pick alpha diverse labels from the
    collided candidates (from every label when alpha >= n_labels).
    eval_count = candidate count. `index` must come from
    `build_label_index(model, ...)`; one of another shape is refused."""
    check_lam(lam)
    if (index.dataset.n, index.dataset.d) != model.W.shape:
        raise ValueError(f"label index over a {index.dataset.vectors.shape} label matrix, the model's W is {model.W.shape}")
    embedded = _embed(model, x, alpha)
    if embedded is None:
        return _nothing()
    z, q = embedded
    source = index.dataset if alpha >= model.n_labels else index
    res, count = lsh.retrieve(source, q, select_greedy_div, alpha, lam)
    return LabelPrediction(labels=res.ids, scores=model.W[res.ids] @ z, eval_count=count, underfilled=res.underfilled)
