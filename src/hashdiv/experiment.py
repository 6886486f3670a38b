"""Experiment harness: run query batches through every (method, hash, k)
cell, collect accuracy/diversity/efficiency metrics, and emit table-shaped
results as CSV (3-decimal) plus a full-precision JSON twin.

Every input is checked once, right after loading and before any hash
family or index is built: a grid over an empty, mismatched or unlabeled
file fails before its first SVD. Each cell column is the mean of its
per-query values, leaving out the ones that are undefined.

Timing covers query + selection only; index construction and file IO stay
outside the clock. Progress goes to stderr, results to the output file.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
import typing
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import lsh, metrics, multilabel
from .data import MISSING, check_points, check_seed, load_dense, load_sparse
from .hashing import KINDS, new_family
from .multilabel import FactorModel, LabelPrediction
from .select import (
    check_lam,
    select_greedy_div,
    select_mmr,
    select_nn,
    select_qp_rel,
    select_rerank,
    top_k,
)

_SELECTORS = {
    "nn": select_nn,
    "rerank": select_rerank,
    "greedy": select_greedy_div,
    "mmr": select_mmr,
    "qprel": select_qp_rel,
}
METHODS = tuple(_SELECTORS)
# "nh" is no hashing: every point is a candidate
HASHES = ("nh", *KINDS)
ML_METHODS = ("exact", "mmr", *KINDS)


def _each_query(fn, n: int, context: str) -> list:
    """[fn(0), ..., fn(n - 1)], one query at a time, so a time measured
    inside fn is one request's latency. Any error is re-raised as a
    ValueError naming `context` and the query."""
    out = []
    for i in range(n):
        try:
            out.append(fn(i))
        except Exception as exc:
            raise ValueError(f"({context}, query={i}): {exc}") from exc
    return out


def _from_dict(cls, values: dict, **overrides):
    """The config holding `values` overlaid by `overrides`, refusing keys
    that name no field and naming the required fields that both lack."""
    if not isinstance(values, dict):
        raise ValueError(f"a config for {cls.__name__} must be a JSON object of fields, got {type(values).__name__}")
    values = {**values, **overrides}
    fields = dataclasses.fields(cls)
    unknown = set(values) - {f.name for f in fields}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = [f.name for f in fields if f.name not in values and f.default is f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValueError(f"missing required config keys: {missing}")
    return cls(**values)


def _is_a(value, types: tuple) -> bool:
    """Whether `value` is an instance of one of `types`, where a bool is
    no int or float and an int is a float."""
    if isinstance(value, bool):
        return bool in types
    return isinstance(value, types) or (float in types and isinstance(value, int))


def _check_types(config) -> None:
    """The one type rule of the config dataclasses: each field of
    `config`, and each item of a `tuple[T, ...]` field, must be an
    instance of its annotated type (`_is_a`; `T | None` also takes None;
    `Literal[names]` takes a str among `names`), else ValueError names the
    field. A tuple field takes only a nonempty list or tuple, so that a
    string or a number is refused instead of being split into characters
    or failing to iterate, and is made a tuple."""
    hints = typing.get_type_hints(type(config))
    for f in dataclasses.fields(config):
        hint, value = hints[f.name], getattr(config, f.name)
        if typing.get_origin(hint) is tuple:
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"config field {f.name!r} must be a list, got {type(value).__name__} {value!r}")
            if not value:
                raise ValueError(f"config field {f.name!r} must be a nonempty list")
            item = typing.get_args(hint)[0]
            names = typing.get_args(item) if typing.get_origin(item) is Literal else ()
            for v in value:
                if not (isinstance(v, str) and v in names if names else _is_a(v, (item,))):
                    expected = "names from " + ",".join(names) if names else item.__name__
                    raise ValueError(f"config field {f.name!r} must be a list of {expected}, "
                                     f"got {type(v).__name__} {v!r} in it")
            setattr(config, f.name, tuple(value))
        elif not _is_a(value, types := typing.get_args(hint) or (hint,)):
            expected = " or ".join("None" if t is type(None) else t.__name__ for t in types)
            raise ValueError(f"config field {f.name!r} must be {expected}, got {type(value).__name__} {value!r}")


# Field metadata holds argparse keywords for the flag that hashdiv.cli
# derives from each field.
_NO_TIMING = {"help": "report 0.0 times for byte-reproducible output"}


@dataclass
class ExperimentConfig:
    """Declarative description of one retrieval experiment grid."""

    data: str
    queries: str
    out: str
    methods: tuple[Literal[METHODS], ...] = ("nn",)
    hashes: tuple[Literal[HASHES], ...] = ("nh", "lshdiv")
    ks: tuple[int, ...] = field(default=(10,), metadata={"help": "comma list of result sizes, e.g. 10,20,30"})
    lam: float = 0.5
    l: int = 16
    L: int = 8
    alpha: int | None = None
    seed: int = 0
    timing: bool = field(default=True, metadata=_NO_TIMING)

    def __post_init__(self):
        _check_types(self)
        if min(self.ks) < 1:
            raise ValueError(f"every k must be >= 1, got {min(self.ks)}")
        check_lam(self.lam)
        check_seed(self.seed)

    from_dict = classmethod(_from_dict)


@dataclass(frozen=True)
class ResultRow:
    method: str
    hash: str
    k: int
    precision: float
    subtopic_recall: float | None
    diversity: float
    h_score: float
    seconds: float
    candidate_fraction: float = 1.0

    CSV_FIELDS = ("method", "hash", "k", "precision", "subtopic_recall", "diversity", "h_score", "seconds")


@dataclass(frozen=True)
class MultilabelRow:
    method: str
    alpha: int
    precision: float
    recall: float
    f_score: float
    diversity: float | None
    h_score: float | None
    millis: float
    eval_fraction: float = 1.0

    CSV_FIELDS = ("method", "alpha", "precision", "recall", "f_score", "diversity", "h_score", "millis")


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _means(per_query) -> list:
    """Each column's mean over its values that are not None; None for a
    column that holds only None."""
    out = []
    for column in zip(*per_query):
        values = [v for v in column if v is not None]
        out.append(float(np.mean(values)) if values else None)
    return out


def _query_eval(dataset, source, q, qcat, selector, k, lam, timing):
    """One query through `lsh.retrieve` from `source` (`dataset` or its
    index), then metrics against `dataset`'s labels: (precision,
    subtopic recall or None, diversity, h-score, seconds, candidate
    fraction). The query and the dataset carry category labels."""
    t0 = time.perf_counter()
    result, count = lsh.retrieve(source, q, selector, k, lam)
    elapsed = time.perf_counter() - t0 if timing else 0.0
    selected = result.ids

    precision = metrics.precision_at_k(selected, lambda i: dataset.categories[i] == qcat, k)
    if dataset.subtopic_count_per_category.get(qcat, 0) >= 2:
        sr = metrics.subtopic_recall(selected, dataset, qcat, k)
        div = metrics.entropy_diversity(selected, dataset, qcat)
    else:
        sr = None
        # no subtopic labels: report mean pairwise squared distance, scaled
        # by its max (4 on unit vectors, which rounding can pass, hence the
        # cap) so the h-score stays in range
        div = min(1.0, metrics.mean_pairwise_distance(dataset.dense_rows(selected)) / 4.0)
    return precision, sr, div, metrics.h_score(precision, div), elapsed, count / dataset.n


def run_retrieval_experiment(config: ExperimentConfig) -> list[ResultRow]:
    dataset = check_points(load_dense(config.data), config.data)
    queries = check_points(load_dense(config.queries), config.queries)
    if queries.d != dataset.d:
        raise ValueError(f"queries file {config.queries}: query dimension {queries.d} != dataset dimension {dataset.d}")
    if queries.categories is None or (queries.categories == MISSING).any():
        raise ValueError(f"queries file {config.queries}: query has no category label; precision is undefined")
    if dataset.categories is None:
        raise ValueError(f"data file {config.data}: dataset has no category labels; precision is undefined")
    qcats = queries.categories.tolist()

    # every family and its table layout first, so one that cannot be built
    # fails before any cell runs; each index is still built only when its
    # column runs. The pca kinds share the first one's basis, so the SVD
    # runs once.
    families, basis = {}, None
    for name in config.hashes:
        if name != "nh":
            families[name] = new_family(
                name, config.l, config.L, dataset.d,
                alpha=config.alpha, seed=config.seed, dataset=dataset, basis=basis,
            )
            lsh.check_tables(config.l, config.L, dataset.n)
            basis = basis or families[name].basis
    rows: list[ResultRow] = []
    for hash_name in config.hashes:
        source = dataset
        if hash_name != "nh":
            _progress(f"[index] building {hash_name} (l={config.l}, L={config.L})")
            source = lsh.build(dataset, families[hash_name])
        for method in config.methods:
            select = _SELECTORS[method]
            for k in config.ks:
                precision, sr, div, h, secs, frac = _means(_each_query(
                    lambda i: _query_eval(dataset, source, queries.vectors[i], qcats[i], select, k, config.lam, config.timing),
                    queries.n, f"method={method}, hash={hash_name}",
                ))
                rows.append(ResultRow(method, hash_name, k, precision, sr, div, h, secs, frac))
                _progress(f"[cell] {method}/{hash_name}/k={k}: P={precision:.3f} D={div:.3f} h={h:.3f}")
    return rows


# ---------------------------------------------------------------------------
# multi-label experiment
# ---------------------------------------------------------------------------


@dataclass
class MultilabelConfig:
    """Multi-label prediction experiment; data comes from a LIBSVM-style
    file (features + label sets) or a planted synthetic model.

    Each method retrieves `pool` candidate labels per document, the score
    cutoff (chosen on the validation split to maximize h, or f without a
    hierarchy) trims them, and `alpha` caps the final prediction size."""

    out: str
    data: str | None = field(default=None, metadata={"help": "LIBSVM-style file: 'lab1,lab2 idx:val ...'"})
    d: int | None = field(default=None, metadata={"help": "feature dimension (synthetic: >= 2 * rank, the default)"})
    test: str | None = None
    factors: str | None = field(default=None, metadata={"help": "binary factor-model file"})
    hierarchy: str | None = field(default=None, metadata={"help": "'child parent' edge list for tree diversity"})
    synthetic: bool = False
    n_labels: int = 1000
    n_queries: int = 200
    rank: int = 20
    ridge: float = 1.0
    methods: tuple[Literal[ML_METHODS], ...] = ("exact", "lshsdiv")
    alpha: int = 10
    pool: int = 30
    lam: float = 0.7
    l: int = 16
    L: int = 8
    seed: int = 0
    timing: bool = field(default=True, metadata=_NO_TIMING)
    predictions_json: str | None = field(default=None, metadata={"help": "JSON of the first method's labels and scores"})

    def __post_init__(self):
        _check_types(self)
        for name in ("n_labels", "n_queries", "rank"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.ridge < np.inf:  # also refuses NaN
            raise ValueError(f"ridge must be finite and > 0, got {self.ridge}")
        if self.synthetic == (self.data is not None):
            raise ValueError("give either a data file or synthetic mode, not both")
        if self.synthetic and (self.test is not None or self.factors is not None):
            raise ValueError("synthetic mode reads no test or factors file")
        if self.data is not None and self.d is None:
            raise ValueError("LIBSVM data files need the feature dimension d")
        if self.synthetic and self.d is not None and self.d < 2 * self.rank:
            raise ValueError(f"synthetic d={self.d} must be at least 2 * rank, {2 * self.rank} for rank={self.rank}")
        if self.alpha < 1 or self.pool < self.alpha:
            raise ValueError("need pool >= alpha >= 1")
        check_lam(self.lam)
        check_seed(self.seed)

    from_dict = classmethod(_from_dict)


def make_planted(
    n_labels: int,
    k: int,
    d: int,
    n_queries: int,
    *,
    n_clusters: int = 50,
    seed: int = 0,
) -> tuple[FactorModel, np.ndarray, list[frozenset[int]]]:
    """Planted low-rank instance: label embeddings drawn around unit cluster
    centers, queries aimed at one cluster each, both scattered with
    standard deviation 0.15, truth = sign of the exact score. Returns
    (model, query matrix, positive-label sets)."""
    cluster_spread = 0.15
    rng = np.random.default_rng(check_seed(seed))
    centers = rng.standard_normal((n_clusters, k))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    assign = rng.integers(0, n_clusters, size=n_labels)
    W = centers[assign] + cluster_spread * rng.standard_normal((n_labels, k))
    H = np.linalg.qr(rng.standard_normal((d, k)))[0]
    model = FactorModel(W=W, H=H)
    # queries point at a cluster center in embedding space, mapped back via H
    target = rng.integers(0, n_clusters, size=n_queries)
    z = centers[target] + cluster_spread * rng.standard_normal((n_queries, k))
    X = z @ H.T
    truth = [frozenset(np.flatnonzero(model.scores(x) > 0.0).tolist()) for x in X]
    return model, X, truth


def _label_matrix(label_sets, n_labels: int) -> np.ndarray:
    Y = -np.ones((len(label_sets), n_labels))
    for i, labs in enumerate(label_sets):
        for lab in labs:
            Y[i, lab] = 1.0
    return Y


def _pred_sets(pred: LabelPrediction, cutoff: float, alpha: int) -> LabelPrediction:
    """Final prediction: drop labels scored below the cutoff, then cap at
    the alpha best scores (top_k: ties by ascending label id). Each label
    keeps its own score."""
    keep = pred.scores >= cutoff
    labels, scores = pred.labels[keep], pred.scores[keep]
    if labels.size > alpha:
        take = top_k(-scores, labels, alpha)
        labels, scores = labels[take], scores[take]
    return dataclasses.replace(pred, labels=labels, scores=scores)


def _pr(pred_set, truth: frozenset) -> tuple[float, float]:
    pred = set(int(v) for v in pred_set)
    if not pred:
        return 0.0, 0.0
    inter = len(pred & truth)
    recall = inter / len(truth) if truth else 0.0
    return inter / len(pred), recall


def _doc_scores(pred_set, truth, tree: metrics.HierarchyTree | None) -> tuple[float, float, float, float | None, float | None]:
    p, r = _pr(pred_set, truth)
    f = metrics.f_score(p, r)
    div = h = None
    if tree is not None and len(pred_set):
        div = metrics.tree_diversity(pred_set, tree)
        h = metrics.h_score(p, div)
    return p, r, f, div, h


# cutoffs searched, evenly spaced over the validation scores
_THRESHOLD_GRID = 50


def _choose_cutoff(preds: list[LabelPrediction], truths, tree, alpha: int) -> float:
    """Score cutoff maximizing mean h (falls back to f without a hierarchy)
    on the validation predictions, over a uniform grid of cutoffs."""
    all_scores = np.concatenate([np.empty(0)] + [p.scores for p in preds])
    if all_scores.size == 0:
        return 0.0
    lo, hi = float(all_scores.min()), float(all_scores.max())
    best_cut, best_val = lo, -1.0
    for cut in np.linspace(lo, hi, _THRESHOLD_GRID):
        vals = []
        for pred, truth in zip(preds, truths):
            p, r, f, div, h = _doc_scores(_pred_sets(pred, cut, alpha).labels, truth, tree)
            vals.append(h if h is not None else f)
        mean = float(np.mean(vals))
        if mean > best_val:
            best_val, best_cut = mean, float(cut)
    return best_cut


def _ml_predictor(method: str, model: FactorModel, config: MultilabelConfig):
    """Returns pred(x) -> LabelPrediction for one multilabel method."""
    if method == "exact":
        return lambda x: multilabel.predict_exact(model, x, config.pool)
    if method == "mmr":
        return lambda x: multilabel.predict_mmr(model, x, config.pool, config.lam)
    index = multilabel.build_label_index(model, config.l, config.L, kind=method, seed=config.seed)
    return lambda x: multilabel.predict_diverse(model, index, x, config.pool, config.lam)


def run_multilabel_experiment(config: MultilabelConfig) -> list[MultilabelRow]:
    tree = metrics.load_hierarchy(config.hierarchy) if config.hierarchy else None
    if config.synthetic:
        model, X_all, truth_all = make_planted(
            config.n_labels, config.rank, config.d or 2 * config.rank,
            config.n_queries * 2, seed=config.seed,
        )
        half = config.n_queries
        X_val, truth_val = X_all[half:], truth_all[half:]
        X_test, truth_test = X_all[:half], truth_all[:half]
    else:
        dataset = check_points(load_sparse(config.data, d=config.d), config.data)
        n_labels = max((max(s) for s in dataset.label_sets if s), default=-1) + 1
        if n_labels < 1:
            raise ValueError(f"data file {config.data} has no labels")
        # the one split: test (none with a --test file), validation, training
        n_test = max(1, dataset.n // 5) if config.test is None else 0
        perm = np.random.default_rng(config.seed).permutation(dataset.n)
        test_idx, val_idx, train_idx = np.split(perm, [n_test, n_test + max(1, (dataset.n - n_test) // 5)])
        if val_idx.size == 0 or (train_idx.size == 0 and not config.factors):
            part = "validation" if val_idx.size == 0 else "training"
            raise ValueError(f"data file {config.data} has too few documents ({dataset.n}) to leave any for {part}")
        test_ds = dataset
        if config.test is not None:
            test_ds = check_points(load_sparse(config.test, d=config.d), config.test)
            test_idx = np.arange(test_ds.n)
        if config.factors:
            try:
                model = multilabel.load_factors(config.factors)
            except ValueError as exc:
                raise ValueError(f"factors file {config.factors}: {exc}") from None
            if model.d != config.d:
                raise ValueError(f"factors file {config.factors} has {model.d} features, the data {config.d}")
        else:
            Y = _label_matrix([dataset.label_sets[i] for i in train_idx], n_labels)
            try:
                model = multilabel.fit_lowrank_ridge(dataset.vectors[train_idx], Y, config.rank, config.ridge)
            except ValueError as exc:
                raise ValueError(f"data file {config.data}: {exc}") from None
        X_val = dataset.vectors[val_idx]
        truth_val = [dataset.label_sets[i] for i in val_idx]
        X_test = test_ds.vectors[test_idx]
        truth_test = [test_ds.label_sets[i] for i in test_idx]

    if tree is not None:
        # a tree that cannot score every label fails here, not after the
        # label indexes and the validation predictions
        try:
            metrics.tree_diversity(range(model.n_labels), tree)
        except ValueError as exc:
            raise metrics.hierarchy_refusal(config.hierarchy, exc) from None

    # every label index first, so one that cannot be built fails before any
    # query runs
    predictors = {method: _ml_predictor(method, model, config) for method in config.methods}
    rows: list[MultilabelRow] = []
    for method, predictor in predictors.items():
        val_preds = _each_query(lambda i: predictor(X_val[i]), len(X_val), f"method={method}, split=validation")
        cutoff = _choose_cutoff(val_preds, truth_val, tree, config.alpha)
        _progress(f"[multilabel] {method}: score cutoff {cutoff:.4f}")

        def one(i):
            t0 = time.perf_counter()
            final = _pred_sets(predictor(X_test[i]), cutoff, config.alpha)
            return final, (time.perf_counter() - t0) * 1e3 if config.timing else 0.0

        finals, times = zip(*_each_query(one, len(X_test), f"method={method}, split=test"))
        # only diversity and h are None, on a document with no labels or no tree
        p, r, f, div, h, ms, evals = _means(
            (*_doc_scores(final.labels, truth, tree), t, final.eval_count)
            for final, truth, t in zip(finals, truth_test, times)
        )
        rows.append(MultilabelRow(method, config.alpha, p, r, f, div, h, ms, evals / model.n_labels))
        if method == config.methods[0]:
            predictions = finals

    if config.predictions_json:
        write_predictions_json(predictions, config.predictions_json)
    return rows


def write_predictions_json(predictions: list[LabelPrediction], path) -> None:
    """One record per query, in query order: each label with its score."""
    _write_json([
        {"query_id": qid, "labels": pred.labels.tolist(), "scores": pred.scores.tolist(), "eval_count": pred.eval_count}
        for qid, pred in enumerate(predictions)
    ], path)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _write_json(payload, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def emit(rows, path, fmt: str = "csv") -> None:
    """Write result rows: the CSV table with floats at 3 decimals, then its
    full-precision twin `<path>.json`, so a rounded table never goes without
    one. The twin holds every field of every row, tagged with the row type.
    `fmt` is accepted only as "csv", the one value bench/run.py passes."""
    if fmt != "csv":
        raise ValueError(f"unknown output format {fmt!r}")
    fields = type(rows[0]).CSV_FIELDS if rows else ResultRow.CSV_FIELDS
    lines = [",".join(fields)]
    for row in rows:
        d = dataclasses.asdict(row)
        lines.append(",".join(_format_cell(d[f]) for f in fields))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_json([{"_type": type(r).__name__, **dataclasses.asdict(r)} for r in rows], f"{path}.json")
