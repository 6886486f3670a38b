"""Experiment harness: run query batches through every (method, hash, k)
cell, collect accuracy/diversity/efficiency metrics, and emit table-shaped
results as CSV (3-decimal) plus a full-precision JSON twin.

Timing covers query + selection only; index construction and file IO stay
outside the clock. Progress goes to stderr, results to the output file.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import lsh, metrics, multilabel
from .data import MISSING, load_dense, load_sparse
from .hashing import KINDS, new_family
from .metrics import HierarchyTree
from .multilabel import FactorModel, LabelPrediction
from .select import (
    select_greedy_div,
    select_mmr,
    select_nn,
    select_qp_rel,
    select_rerank,
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


class ExperimentError(RuntimeError):
    pass


def _each_query(fn, n: int, context: str) -> list:
    """[fn(0), ..., fn(n - 1)], one query at a time, so a time measured
    inside fn is one request's latency. Any error but an ExperimentError
    is re-raised as one naming `context` and the query."""
    if n == 0:
        raise ExperimentError(f"({context}): no queries to run")
    out = []
    for i in range(n):
        try:
            out.append(fn(i))
        except ExperimentError:
            raise
        except Exception as exc:
            raise ExperimentError(f"({context}, query={i}): {exc}") from exc
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


# Field metadata holds argparse keywords for the flag that hashdiv.cli
# derives from each field.
_FORMAT = {"choices": ("csv", "json")}
_NO_TIMING = {"help": "report 0.0 times for byte-reproducible output"}


def _list_help(names) -> dict:
    return {"help": "comma list from: " + ",".join(names)}


@dataclass
class ExperimentConfig:
    """Declarative description of one retrieval experiment grid."""

    data: str
    queries: str
    out: str
    methods: tuple[str, ...] = field(default=("nn",), metadata=_list_help(METHODS))
    hashes: tuple[str, ...] = field(default=("nh", "lshdiv"), metadata=_list_help(HASHES))
    ks: tuple[int, ...] = field(default=(10,), metadata={"help": "comma list of result sizes, e.g. 10,20,30"})
    lam: float = 0.5
    l: int = 16
    L: int = 8
    alpha: int | None = None
    seed: int = 0
    format: str = field(default="csv", metadata=_FORMAT)
    timing: bool = field(default=True, metadata=_NO_TIMING)

    def __post_init__(self):
        self.methods = tuple(self.methods)
        self.hashes = tuple(self.hashes)
        self.ks = tuple(int(k) for k in self.ks)
        if not self.methods:
            raise ValueError("method list must be nonempty")
        if not self.hashes:
            raise ValueError("hash list must be nonempty")
        if not self.ks or any(k < 1 for k in self.ks):
            raise ValueError("k list must be nonempty with k >= 1")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}, expected one of {METHODS}")
        for h in self.hashes:
            if h not in HASHES:
                raise ValueError(f"unknown hash {h!r}, expected one of {HASHES}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be csv or json")

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


def _query_eval(dataset, source, q, qcat, selector, k, lam, timing):
    """One query through `lsh.retrieve` from `source` (`dataset` or its
    index), then metrics against `dataset`'s labels: (precision,
    subtopic recall or None, diversity, h-score, seconds, candidate
    fraction)."""
    t0 = time.perf_counter()
    result, count = lsh.retrieve(source, q, selector, k, lam)
    elapsed = time.perf_counter() - t0 if timing else 0.0
    selected = result.ids

    if qcat == MISSING:
        raise ExperimentError("query has no category label; precision is undefined")
    cats = dataset.categories
    if cats is None:
        raise ExperimentError("dataset has no category labels; precision is undefined")
    precision = metrics.precision_at_k(selected, lambda i: cats[i] == qcat, k)
    has_subtopics = qcat in dataset.subtopic_count_per_category and dataset.subtopic_count_per_category[qcat] >= 2
    if selected.size == 0:
        sr = 0.0 if has_subtopics else None
        div = 0.0
    elif has_subtopics:
        sr = metrics.subtopic_recall(selected, dataset, qcat, k)
        on_topic = any(cats[i] == qcat for i in selected)
        div = metrics.entropy_diversity(selected, dataset, qcat) if on_topic else 0.0
    else:
        sr = None
        # no subtopic labels: report mean pairwise squared distance, scaled
        # by its max (4 on unit vectors) so the h-score stays in range
        div = metrics.mean_pairwise_distance(dataset.dense_rows(selected)) / 4.0
    return precision, sr, div, metrics.h_score(precision, div), elapsed, count / dataset.n


def run_retrieval_experiment(config: ExperimentConfig) -> list[ResultRow]:
    dataset = load_dense(config.data)
    queries = load_dense(config.queries)
    for path, points in ((config.data, dataset), (config.queries, queries)):
        if points.n == 0:
            raise ExperimentError(f"{path} holds no points")
    if queries.d != dataset.d:
        raise ExperimentError(f"query dimension {queries.d} != dataset dimension {dataset.d}")
    qcats = [MISSING] * queries.n if queries.categories is None else queries.categories.tolist()

    # every family first, so one that cannot be built fails before any cell
    # runs; each index is still built only when its column runs. The pca
    # kinds share the first one's basis, so the SVD runs once.
    families, basis = {}, None
    for name in config.hashes:
        if name != "nh":
            families[name] = new_family(
                name, config.l, config.L, dataset.d,
                alpha=config.alpha, seed=config.seed, dataset=dataset, basis=basis,
            )
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
                precs, srs, divs, hs, secs, fracs = zip(*_each_query(
                    lambda i: _query_eval(dataset, source, queries.vectors[i], qcats[i], select, k, config.lam, config.timing),
                    queries.n, f"method={method}, hash={hash_name}",
                ))
                srs = [s for s in srs if s is not None]
                sr = float(np.mean(srs)) if srs else None
                precision, div, h, secs, frac = (float(np.mean(v)) for v in (precs, divs, hs, secs, fracs))
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
    d: int | None = field(default=None, metadata={"help": "feature dimension of the LIBSVM data"})
    test: str | None = None
    factors: str | None = field(default=None, metadata={"help": "binary factor-model file"})
    hierarchy: str | None = field(default=None, metadata={"help": "'child parent' edge list for tree diversity"})
    synthetic: bool = False
    n_labels: int = 1000
    n_queries: int = 200
    rank: int = 20
    ridge: float = 1.0
    methods: tuple[str, ...] = field(default=("exact", "lshsdiv"), metadata=_list_help(ML_METHODS))
    alpha: int = 10
    pool: int = 30
    lam: float = 0.7
    l: int = 16
    L: int = 8
    seed: int = 0
    format: str = field(default="csv", metadata=_FORMAT)
    timing: bool = field(default=True, metadata=_NO_TIMING)
    threshold_grid: int = 50
    predictions_json: str | None = field(default=None, metadata={"help": "JSON of the first method's labels and scores"})

    def __post_init__(self):
        self.methods = tuple(self.methods)
        if not self.methods:
            raise ValueError("method list must be nonempty")
        for m in self.methods:
            if m not in ML_METHODS:
                raise ValueError(f"unknown multilabel method {m!r}, expected one of {ML_METHODS}")
        if not self.synthetic and self.data is None:
            raise ValueError("either a data file or synthetic mode is required")
        if self.data is not None and self.d is None:
            raise ValueError("LIBSVM data files need the feature dimension d")
        if self.alpha < 1 or self.pool < self.alpha:
            raise ValueError("need pool >= alpha >= 1")
        if self.threshold_grid < 1:
            raise ValueError("threshold_grid must be >= 1")

    from_dict = classmethod(_from_dict)


def make_planted(
    n_labels: int,
    k: int,
    d: int,
    n_queries: int,
    *,
    n_clusters: int = 50,
    cluster_spread: float = 0.15,
    seed: int = 0,
) -> tuple[FactorModel, np.ndarray, list[frozenset[int]]]:
    """Planted low-rank instance: label embeddings drawn around unit cluster
    centers, queries aimed at one cluster each, truth = sign of the exact
    score. Returns (model, query matrix, positive-label sets)."""
    rng = np.random.default_rng(seed)
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


def _split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """4:1 train:test split, then 1/5 of train held out for validation."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_test = max(1, n // 5)
    test = perm[:n_test]
    rest = perm[n_test:]
    n_val = max(1, rest.size // 5)
    return rest[n_val:], rest[:n_val], test


def _label_matrix(label_sets, n_labels: int) -> np.ndarray:
    Y = -np.ones((len(label_sets), n_labels))
    for i, labs in enumerate(label_sets):
        for lab in labs:
            Y[i, lab] = 1.0
    return Y


def _pred_sets(pred: LabelPrediction, cutoff: float, alpha: int) -> LabelPrediction:
    """Final prediction: drop labels scored below the cutoff, then cap at
    the alpha best scores (ties by ascending label id). Each label keeps
    its own score."""
    keep = pred.scores >= cutoff
    labels, scores = pred.labels[keep], pred.scores[keep]
    if labels.size > alpha:
        order = np.lexsort((labels, -scores))[:alpha]
        labels, scores = labels[order], scores[order]
    return dataclasses.replace(pred, labels=labels, scores=scores)


def _pr(pred_set, truth: frozenset) -> tuple[float, float]:
    pred = set(int(v) for v in pred_set)
    if not pred:
        return 0.0, 0.0
    inter = len(pred & truth)
    recall = inter / len(truth) if truth else 0.0
    return inter / len(pred), recall


def _doc_scores(pred_set, truth, tree: HierarchyTree | None) -> tuple[float, float, float, float | None, float | None]:
    p, r = _pr(pred_set, truth)
    f = metrics.f_score(p, r)
    div = h = None
    if tree is not None and len(pred_set):
        div = metrics.tree_diversity(pred_set, tree)
        h = metrics.h_score(p, div)
    return p, r, f, div, h


def _choose_cutoff(preds: list[LabelPrediction], truths, tree, grid_size: int, alpha: int) -> float:
    """Score cutoff maximizing mean h (falls back to f without a hierarchy)
    on the validation predictions, over a uniform grid of cutoffs."""
    all_scores = np.concatenate([np.empty(0)] + [p.scores for p in preds])
    if all_scores.size == 0:
        return 0.0
    lo, hi = float(all_scores.min()), float(all_scores.max())
    best_cut, best_val = lo, -1.0
    for cut in np.linspace(lo, hi, grid_size):
        vals = []
        for pred, truth in zip(preds, truths):
            p, r, f, div, h = _doc_scores(_pred_sets(pred, cut, alpha).labels, truth, tree)
            vals.append(h if h is not None else f)
        mean = float(np.mean(vals)) if vals else 0.0
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
    tree = None
    if config.hierarchy:
        edges = metrics.load_hierarchy(config.hierarchy)
        roots = {p for _, p in edges} - {c for c, _ in edges}
        if len(roots) != 1:
            raise ExperimentError(f"hierarchy must have exactly one root, found {sorted(roots)}")
        tree = metrics.bfs_prune(edges, next(iter(roots)))

    if config.synthetic:
        model, X_all, truth_all = make_planted(
            config.n_labels, config.rank, max(config.d or 0, 2 * config.rank),
            config.n_queries * 2, seed=config.seed,
        )
        half = config.n_queries
        X_val, truth_val = X_all[half:], truth_all[half:]
        X_test, truth_test = X_all[:half], truth_all[:half]
    else:
        dataset = load_sparse(config.data, d=config.d)
        if dataset.label_sets is None:
            raise ExperimentError("multilabel data file carries no labels")
        n_labels = max((max(s) for s in dataset.label_sets if s), default=-1) + 1
        if n_labels < 1:
            raise ExperimentError("no labels found in the data file")
        if config.test is not None:
            test_ds = load_sparse(config.test, d=config.d)
            train_ds = dataset
            train_idx, val_idx, _ = _split_indices(dataset.n, config.seed)
            test_idx = np.arange(test_ds.n)
        else:
            train_idx, val_idx, test_idx = _split_indices(dataset.n, config.seed)
            train_ds = test_ds = dataset
        if config.factors:
            model = multilabel.load_factors(config.factors)
        else:
            Y = _label_matrix([train_ds.label_sets[i] for i in train_idx], n_labels)
            model = multilabel.fit_lowrank_ridge(train_ds.vectors[train_idx], Y, config.rank, config.ridge)
        X_val = train_ds.vectors[val_idx]
        truth_val = [train_ds.label_sets[i] for i in val_idx]
        X_test = test_ds.vectors[test_idx]
        truth_test = [test_ds.label_sets[i] for i in test_idx]

    rows: list[MultilabelRow] = []
    for method in config.methods:
        predictor = _ml_predictor(method, model, config)
        val_preds = _each_query(lambda i: predictor(X_val[i]), len(X_val), f"method={method}, split=validation")
        cutoff = _choose_cutoff(val_preds, truth_val, tree, config.threshold_grid, config.alpha)
        _progress(f"[multilabel] {method}: score cutoff {cutoff:.4f}")

        def one(i):
            t0 = time.perf_counter()
            final = _pred_sets(predictor(X_test[i]), cutoff, config.alpha)
            return final, (time.perf_counter() - t0) * 1e3 if config.timing else 0.0

        finals, times = zip(*_each_query(one, len(X_test), f"method={method}, split=test"))
        per_doc = [_doc_scores(final.labels, truth, tree) for final, truth in zip(finals, truth_test)]
        # only diversity and h are None, on a document with no labels or no tree
        ps, rs, fs, divs, hs = ([v for v in col if v is not None] for col in zip(*per_doc))
        p, r, f, ms = (float(np.mean(v)) for v in (ps, rs, fs, times))
        div, h = (float(np.mean(v)) if v else None for v in (divs, hs))
        eval_frac = float(np.mean([final.eval_count for final in finals])) / model.n_labels
        rows.append(MultilabelRow(method, config.alpha, p, r, f, div, h, ms, eval_frac))
        if method == config.methods[0]:
            predictions = finals

    if config.predictions_json:
        write_predictions_json(predictions, config.predictions_json)
    return rows


def write_predictions_json(predictions: list[LabelPrediction], path) -> None:
    """One record per query, in query order: each label with its score."""
    records = [
        {"query_id": qid, "labels": pred.labels.tolist(), "scores": pred.scores.tolist(), "eval_count": pred.eval_count}
        for qid, pred in enumerate(predictions)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def emit(rows, path, fmt: str = "csv", json_twin: bool = False) -> None:
    """Write result rows; CSV prints floats with 3 decimals (table
    precision), JSON keeps full precision and every field. json_twin
    additionally writes `<path>.json` next to a CSV so the rounded table
    always has a full-precision sibling."""
    if fmt == "csv":
        if rows:
            fields = type(rows[0]).CSV_FIELDS
        else:
            fields = ResultRow.CSV_FIELDS
        lines = [",".join(fields)]
        for row in rows:
            d = dataclasses.asdict(row)
            lines.append(",".join(_format_cell(d[f]) for f in fields))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        if json_twin:
            emit(rows, f"{path}.json", "json")
    elif fmt == "json":
        payload = [{"_type": type(r).__name__, **dataclasses.asdict(r)} for r in rows]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")
