"""The three benchmark workloads, built from hashdiv's public functions only.

Each workload makes its inputs from a seed, sets up the way its operator
would (`setup`), and answers one request per query (`request`, untraced;
`request_traced`, the same calls wrapped in spans, plus probes of the
calls a public function hides). The seed changes only the generated data;
the program's settings, hash-family and tuner seeds included, are fixed
per workload (`family_seed`), so runs on different seeds differ only in
their inputs. `--seed 0` gives the acceptance suite's data: C5 toy data
0/1, C6 clustered data 42, C7 planted model 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from hashdiv import lsh
from hashdiv.data import Dataset, ToyConfig, load_dense, make_toy, save_dense
from hashdiv.experiment import make_planted
from hashdiv.hashing import PCA, PLAIN, hash_matrix, hash_vector, new_family
from hashdiv.linalg import project_capped_simplex, truncated_svd
from hashdiv.metrics import h_score, mean_pairwise_distance, precision_at_k
from hashdiv.multilabel import FactorModel, build_label_index, predict_diverse, predict_exact
from hashdiv.select import SelectionProblem, qp_relax_solve, select_greedy_div, select_nn, select_qp_rel

from reference import bucket_union, clustered_points, exact_top_k, naive_greedy, planted_model

TUNE_SAMPLE = 4096
ORACLE_QUERIES = 64   # queries checked against the brute-force bucket union
GREEDY_QUERIES = 16   # queries checked against the naive greedy reference
SAMPLE_QUERIES = 16   # queries for the costly probes (qprel, full scans)


def _call(tr, name, fn, *args, **kwargs):
    return fn(*args, **kwargs) if tr is None else tr.call(name, fn, *args, **kwargs)


def _median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


@dataclass
class State:
    """What setup leaves behind, plus the inputs a request needs."""

    index: lsh.LshIndex
    data: Dataset            # the indexed vectors
    queries: np.ndarray
    extra: dict = field(default_factory=dict)


def bucket_stats(keys: np.ndarray) -> dict:
    """Bucket-size distribution from packed keys, one column per table."""
    sizes = np.concatenate([np.unique(keys[:, t], return_counts=True)[1] for t in range(keys.shape[1])])
    return {"lsh.bucket_max": int(sizes.max()), "lsh.bucket_p99": float(np.percentile(sizes, 99))}


def candidate_stats(cands: list[lsh.CandidateSet]) -> dict:
    sizes = np.array([c.ids.size for c in cands])
    touched = np.array([c.touched for c in cands])
    return {
        "lsh.candidates_p50": float(np.percentile(sizes, 50)),
        "lsh.candidates_p99": float(np.percentile(sizes, 99)),
        "lsh.touched_mean": float(touched.mean()),
        "lsh.dedup_ratio": float(sizes.sum() / max(1, touched.sum())),
        "lsh.empty_rate": float(np.mean(sizes == 0)),
    }


def check_lookup(index: lsh.LshIndex, keys: np.ndarray, queries: np.ndarray, failures: list) -> None:
    """query(q).ids must equal the ids sharing a key with q in some table,
    and `touched` the bucket entries those tables hold."""
    qkeys = hash_matrix(index.family, queries[:ORACLE_QUERIES])
    for qi in range(qkeys.shape[0]):
        cand = lsh.query(index, queries[qi])
        want, touched = bucket_union(keys, qkeys[qi])
        if not np.array_equal(cand.ids, want) or cand.touched != touched:
            failures.append(f"lookup of query {qi} differs from the brute-force bucket union")
            return


def check_exact_scan(data: np.ndarray, queries: np.ndarray, top: np.ndarray, k: int, failures: list) -> None:
    """select_nn over every point must return the exact top k (up to ties
    at the k-th distance)."""
    ids = np.arange(data.shape[0])
    for qi in range(queries.shape[0]):
        got = select_nn(SelectionProblem(queries[qi], ids, data, k, 0.5)).ids
        if set(got.tolist()) != set(top[qi].tolist()):
            d2 = np.einsum("ij,ij->i", data - queries[qi], data - queries[qi])
            if not np.allclose(np.sort(d2[got]), np.sort(d2[top[qi]]), rtol=0, atol=1e-12):
                failures.append(f"select_nn over the full data misses the exact top {k} of query {qi}")
                return


class Workload:
    """What the three workloads share: the checks and probes around the
    index and the selectors. `lookup_queries` are the vectors given to
    `lsh.query` (on multilabel, the embedded queries)."""

    name = ""
    k, lam = 10, 0.5
    setup_reps = 3
    family_seed = 0
    qp_sample = SAMPLE_QUERIES
    qprel_on_path = False

    def lookup_queries(self, st: State) -> np.ndarray:
        return st.queries

    def problems(self, st: State, n: int) -> list[SelectionProblem]:
        out = []
        for q in self.lookup_queries(st)[:n]:
            ids = lsh.query(st.index, q).ids
            out.append(SelectionProblem(q, ids, st.data.dense_rows(ids), self.k, self.lam))
        return out

    def check_index_and_selectors(self, st: State, failures: list) -> list[SelectionProblem]:
        """Lookup, greedy and exact-scan oracles; returns the greedy problems."""
        queries = self.lookup_queries(st)
        check_lookup(st.index, hash_matrix(st.index.family, st.data.vectors), queries, failures)
        problems = self.problems(st, GREEDY_QUERIES)
        for p in problems:
            if not np.array_equal(select_greedy_div(p).ids, p.ids[naive_greedy(p.query, p.vectors, p.k, p.lam)]):
                failures.append("select_greedy_div differs from the naive greedy reference")
                break
        sample = queries[:SAMPLE_QUERIES]
        check_exact_scan(st.data.vectors, sample, exact_top_k(st.data.vectors, sample, self.k), self.k, failures)
        return problems

    def probe_layers(self, st: State, tr) -> dict:
        """hash_matrix, SVD, lookup counts and the selectors off the request
        path, on this workload's indexed vectors and queries."""
        data = st.data
        out = bucket_stats(tr.call("hashing.hash_matrix", hash_matrix, st.index.family, data.vectors))
        basis = tr.call("linalg.truncated_svd", truncated_svd, data.vectors.T, min(200, data.d, data.n))
        out["linalg.svd_iterations"], out["linalg.svd_converged"] = basis.iterations, int(basis.converged)
        out.update(candidate_stats([lsh.query(st.index, q) for q in self.lookup_queries(st)]))
        problems = self.problems(st, self.qp_sample)
        reports = [tr.call("select.qp_relax_solve", qp_relax_solve, p) for p in problems if p.size > p.k]
        out["select.qp_iterations_p50"] = _median([r.iterations for r in reports])
        out["select.qp_converged_frac"] = float(np.mean([r.converged for r in reports]))
        ids = np.arange(data.n)
        for p in problems[:SAMPLE_QUERIES]:
            if not self.qprel_on_path:
                tr.call("select.qp_rel", select_qp_rel, p)
            tr.call("select.nn_full", select_nn, SelectionProblem(p.query, ids, data.vectors, self.k, self.lam))
        return out

    def probe_tune_and_persist(self, st: State, tr) -> dict:
        tuned = tr.call("lsh.tune", lsh.tune, Dataset(vectors=st.data.vectors[:TUNE_SAMPLE]), 0.8, 1.0,
                        seed=self.family_seed)
        blob = tr.call("lsh.index_to_bytes", lsh.index_to_bytes, st.index)
        tr.call("lsh.index_from_bytes", lsh.index_from_bytes, blob, st.data)
        return {"lsh.tuned_l": tuned.l, "lsh.tuned_L": tuned.L, "lsh.index_bytes": len(blob)}

    @staticmethod
    def probe_load_dense(tr, vectors: np.ndarray, path) -> None:
        save_dense(Dataset(vectors=vectors), path)
        tr.call("data.load_dense", load_dense, path)


class Retrieval(Workload):
    """Shared request path of `hashdiv retrieve`: lookup, densify, build the
    selection problem, select."""

    select = None           # the selector on the request path
    select_span = ""

    def request(self, st: State, qi: int):
        q = st.queries[qi]
        cand = lsh.query(st.index, q)
        problem = SelectionProblem(q, cand.ids, st.data.dense_rows(cand.ids), self.k, self.lam)
        return cand, self.select(problem)

    def request_traced(self, st: State, qi: int, tr, rid: int):
        q = st.queries[qi]
        root = tr.open("request", request=rid)
        cand = tr.call("lsh.query", lsh.query, st.index, q, parent=root, request=rid)
        vecs = tr.call("data.dense_rows", st.data.dense_rows, cand.ids, parent=root, request=rid)
        problem = tr.call("select.problem", SelectionProblem, q, cand.ids, vecs, self.k, self.lam, parent=root, request=rid)
        res = tr.call(self.select_span, self.select, problem, parent=root, request=rid)
        tr.close(root)
        tr.call("hashing.hash_vector", hash_vector, st.index.family, q, request=rid, probe=True)
        if problem.size > self.k:
            tr.call("linalg.project_capped_simplex", project_capped_simplex, vecs @ q, self.k, request=rid, probe=True)
        if self.select is not select_greedy_div:
            tr.call("select.greedy_div", select_greedy_div, problem, request=rid, probe=True)
        tr.call("metrics.eval", self.evaluate, st, qi, res.ids, request=rid)
        return cand, res

    @staticmethod
    def result_ids(out) -> np.ndarray:
        return out[1].ids

    def evaluate(self, st: State, qi: int, ids: np.ndarray) -> tuple[float, float, float]:
        labels, qlabel = st.extra["labels"], st.extra["query_labels"][qi]
        prec = precision_at_k(ids, lambda i: labels[i] == qlabel, self.k)
        div = mean_pairwise_distance(st.data.dense_rows(ids)) / 4.0
        return prec, div, h_score(prec, div)

    def check(self, st: State, first: list, failures: list) -> None:
        for qi, out in enumerate(first):
            if out is None:   # not sent in a traced run, or raised
                continue
            cand, res = out
            ids = res.ids
            if np.unique(ids).size != ids.size or not np.isin(ids, cand.ids).all():
                failures.append(f"query {qi}: returned ids repeat or lie outside the candidate set")
                return
            if ids.size != min(self.k, cand.ids.size) or res.underfilled != (ids.size < self.k):
                failures.append(f"query {qi}: {ids.size} ids returned from {cand.ids.size} candidates")
                return
        self.check_index_and_selectors(st, failures)

    def quality(self, st: State, first: list) -> dict:
        top, labels, qlabels = st.extra["top"], st.extra["labels"], st.extra["query_labels"]
        rows, exact_prec, recall, frac, under = [], [], [], [], []
        for qi, (cand, res) in enumerate(first):
            rows.append(self.evaluate(st, qi, res.ids))
            exact_prec.append(precision_at_k(top[qi], lambda i: labels[i] == qlabels[qi], self.k))
            recall.append(np.isin(top[qi], cand.ids).sum() / self.k)
            frac.append(cand.ids.size / st.data.n)
            under.append(res.underfilled)
        prec, div, h = np.mean(rows, axis=0)
        return {
            "precision": float(prec), "diversity": float(div), "h_score": float(h),
            "precision_gap": float(np.mean(exact_prec) - prec),
            "recall_at_10": float(np.mean(recall)), "candidate_fraction": float(np.mean(frac)),
            "underfilled_rate": float(np.mean(under)),
        }

    def layer_probes(self, st: State, tr, work) -> dict:
        out = self.probe_layers(st, tr)
        # the same vectors through the multi-label layer: labels = points,
        # identity feature map
        family = st.index.family
        model = FactorModel(W=st.data.vectors, H=np.eye(st.data.d))
        index = tr.call("multilabel.build_label_index", build_label_index, model, family.l, family.L,
                        seed=self.family_seed)
        for q in st.queries[:SAMPLE_QUERIES]:
            tr.call("multilabel.predict_diverse", predict_diverse, model, index, q, self.k, self.lam)
            tr.call("multilabel.predict_exact", predict_exact, model, q, self.k)
        return out


class ToyQpRel(Retrieval):
    """C5 shape: two classes in d=8, 1,000 points, plain l=12, L=6, qprel."""

    name = "toy-qprel"
    setup_reps = 25
    select = staticmethod(select_qp_rel)
    select_span = "select.qp_rel"
    qp_sample = 50
    qprel_on_path = True
    d, l, L, n_per_class, q_per_class = 8, 12, 6, 500, 100

    def make_inputs(self, seed: int, work) -> dict:
        centers = (tuple([1.0] + [0.0] * (self.d - 1)), tuple([-1.0] + [0.0] * (self.d - 1)))
        base = make_toy(ToyConfig(self.n_per_class, centers, 0.25, seed))
        queries = make_toy(ToyConfig(self.q_per_class, centers, 0.25, seed + 1))
        paths = (work / f"toy-base-{seed}.csv", work / f"toy-queries-{seed}.csv")
        save_dense(base, paths[0])
        save_dense(queries, paths[1])
        return {"seed": seed, "paths": paths}

    def setup(self, inp: dict, tr=None) -> State:
        data = _call(tr, "data.load_dense", load_dense, inp["paths"][0])
        queries = _call(tr, "data.load_dense", load_dense, inp["paths"][1])
        family = _call(tr, "hashing.new_family", new_family, PLAIN, self.l, self.L, data.d, seed=self.family_seed)
        index = _call(tr, "lsh.build", lsh.build, data, family)
        return State(index, data, queries.vectors, {"query_labels": queries.categories})

    def prepare(self, st: State, inp: dict) -> None:
        """Ground truth and labels, outside setup."""
        st.extra.update(seed=inp["seed"], labels=st.data.categories)
        st.extra["top"] = exact_top_k(st.data.vectors, st.queries, self.k)

    def layer_probes(self, st: State, tr, work) -> dict:
        return {**super().layer_probes(st, tr, work), **self.probe_tune_and_persist(st, tr)}


class ClusteredGreedy(Retrieval):
    """C6 shape: 65,536 clustered points in d=24, tune on 4,096, build at
    l=16, L=8, persist and reload, greedy selection."""

    name = "clustered-greedy"
    select = staticmethod(select_greedy_div)
    select_span = "select.greedy_div"
    family_seed = 42
    n, n_queries, d, n_clusters, l, L = 65536, 2048, 24, 256, 16, 8
    tuned_at_default_seed = (12, 17)

    def make_inputs(self, seed: int, work) -> dict:
        pts = clustered_points(self.n + self.n_queries, self.d, self.n_clusters, seed=42 + seed)
        return {"seed": 42 + seed, "offset": seed, "base": pts[: self.n], "queries": pts[self.n :]}

    def setup(self, inp: dict, tr=None) -> State:
        data = Dataset(vectors=inp["base"])
        tuned = _call(tr, "lsh.tune", lsh.tune, Dataset(vectors=inp["base"][:TUNE_SAMPLE]), 0.8, 1.0,
                      seed=self.family_seed)
        family = _call(tr, "hashing.new_family", new_family, PLAIN, self.l, self.L, self.d, seed=self.family_seed)
        built = _call(tr, "lsh.build", lsh.build, data, family)
        blob = _call(tr, "lsh.index_to_bytes", lsh.index_to_bytes, built)
        index = _call(tr, "lsh.index_from_bytes", lsh.index_from_bytes, blob, data)
        return State(index, data, inp["queries"], {"tuned": tuned, "index_bytes": len(blob)})

    def prepare(self, st: State, inp: dict) -> None:
        labels = np.arange(self.n + self.n_queries) % self.n_clusters
        st.extra.update(seed=inp["seed"], offset=inp["offset"], labels=labels[: self.n], query_labels=labels[self.n :])
        st.extra["top"] = exact_top_k(st.data.vectors, st.queries, self.k)

    def check(self, st: State, first: list, failures: list) -> None:
        super().check(st, first, failures)
        tuned = st.extra["tuned"]
        if not tuned.feasible or tuned.recall < 0.8:
            failures.append(f"tune found no pair reaching recall 0.8 (best {tuned.recall:.3f})")
        if st.extra["offset"] == 0 and (tuned.l, tuned.L) != self.tuned_at_default_seed:
            failures.append(f"tune picked {(tuned.l, tuned.L)} at seed 42, expected {self.tuned_at_default_seed}")

    def layer_probes(self, st: State, tr, work) -> dict:
        out = super().layer_probes(st, tr, work)
        tuned = st.extra["tuned"]
        out.update({"lsh.tuned_l": tuned.l, "lsh.tuned_L": tuned.L, "lsh.index_bytes": st.extra["index_bytes"]})
        self.probe_load_dense(tr, st.queries, work / f"clustered-queries-{st.extra['seed']}.csv")
        return out


class Multilabel(Workload):
    """C7 shape: planted model with 10,000 labels, rank 20, d=50; pca label
    index at l=14, L=12; predict_diverse with alpha = k = 10, lambda=0.9."""

    name = "multilabel"
    setup_reps = 15
    family_seed = 5
    k, lam = 10, 0.9
    n_labels, rank, d, n_clusters, n_queries = 10_000, 20, 50, 50, 1000
    l, L = 14, 12

    def make_inputs(self, seed: int, work) -> dict:
        W, H, X, truth = planted_model(self.n_labels, self.rank, self.d, self.n_queries,
                                       n_clusters=self.n_clusters, seed=5 + seed)
        Z = X @ H
        return {
            "seed": 5 + seed, "model": FactorModel(W=W, H=H), "X": X, "truth": truth,
            # the label index's points and the request's embedded queries,
            # both unit-normalized as predict_diverse does
            "wn": Dataset(vectors=W / np.linalg.norm(W, axis=1)[:, None]),
            "q": Z / np.linalg.norm(Z, axis=1)[:, None],
        }

    def setup(self, inp: dict, tr=None) -> State:
        index = _call(tr, "multilabel.build_label_index", build_label_index, inp["model"], self.l, self.L,
                      seed=self.family_seed)
        return State(index, inp["wn"], inp["X"])

    def prepare(self, st: State, inp: dict) -> None:
        st.extra.update({k: inp[k] for k in ("seed", "model", "truth", "q")})
        ref = make_planted(self.n_labels, self.rank, self.d, 1, n_clusters=self.n_clusters, seed=inp["seed"])[0]
        st.extra["generator_matches"] = np.array_equal(ref.W, inp["model"].W) and np.array_equal(ref.H, inp["model"].H)

    def lookup_queries(self, st: State) -> np.ndarray:
        return st.extra["q"]

    def request(self, st: State, qi: int):
        return predict_diverse(st.extra["model"], st.index, st.queries[qi], self.k, self.lam)

    def request_traced(self, st: State, qi: int, tr, rid: int):
        model, x, q = st.extra["model"], st.queries[qi], st.extra["q"][qi]
        root = tr.open("request", request=rid)
        pred = tr.call("multilabel.predict_diverse", predict_diverse, model, st.index, x, self.k, self.lam,
                       parent=root, request=rid)
        tr.close(root)
        tr.call("hashing.hash_vector", hash_vector, st.index.family, q, request=rid, probe=True)
        cand = tr.call("lsh.query", lsh.query, st.index, q, request=rid, probe=True)
        vecs = tr.call("data.dense_rows", st.data.dense_rows, cand.ids, request=rid, probe=True)
        problem = tr.call("select.problem", SelectionProblem, q, cand.ids, vecs, self.k, self.lam,
                          request=rid, probe=True)
        tr.call("select.greedy_div", select_greedy_div, problem, request=rid, probe=True)
        if problem.size > self.k:
            tr.call("linalg.project_capped_simplex", project_capped_simplex, vecs @ q, self.k, request=rid, probe=True)
        tr.call("multilabel.predict_exact", predict_exact, model, x, self.k, request=rid, probe=True)
        tr.call("metrics.eval", self.evaluate, st, qi, pred.labels, request=rid)
        return pred

    @staticmethod
    def result_ids(out) -> np.ndarray:
        return out.labels

    def evaluate(self, st: State, qi: int, labels: np.ndarray) -> tuple[float, float, float]:
        prec = precision_at_k(labels, st.extra["truth"][qi].__getitem__, self.k)
        div = mean_pairwise_distance(st.data.dense_rows(labels)) / 4.0
        return prec, div, h_score(prec, div)

    def check(self, st: State, first: list, failures: list) -> None:
        model = st.extra["model"]
        if not st.extra["generator_matches"]:
            failures.append("the planted-model copy no longer matches make_planted")
        for qi, pred in enumerate(first):
            if pred is None:   # not sent in a traced run, or raised
                continue
            cand = lsh.query(st.index, st.extra["q"][qi]).ids
            z = model.H.T @ st.queries[qi]
            if np.unique(pred.labels).size != pred.labels.size or not np.isin(pred.labels, cand).all():
                failures.append(f"query {qi}: labels repeat or lie outside the candidate set")
                return
            if pred.eval_count != cand.size or not np.allclose(pred.scores, model.W[pred.labels] @ z, rtol=1e-12, atol=1e-12):
                failures.append(f"query {qi}: scores differ from W[labels] @ z or eval_count from the candidate count")
                return
        for qi, p in enumerate(self.check_index_and_selectors(st, failures)):
            if first[qi] is not None and not np.array_equal(first[qi].labels, select_greedy_div(p).ids):
                failures.append(f"query {qi}: predict_diverse differs from greedy over the lookup's candidates")
                return

    def quality(self, st: State, first: list) -> dict:
        model, truth = st.extra["model"], st.extra["truth"]
        rows, exact_prec, recall = [], [], []
        for qi, pred in enumerate(first):
            rows.append(self.evaluate(st, qi, pred.labels))
            exact = predict_exact(model, st.queries[qi], self.k).labels
            exact_prec.append(truth[qi, exact].sum() / self.k)
            recall.append(np.isin(exact, lsh.query(st.index, st.extra["q"][qi]).ids).sum() / self.k)
        prec, div, h = np.mean(rows, axis=0)
        return {
            "precision": float(prec), "diversity": float(div), "h_score": float(h),
            "precision_gap": float(np.mean(exact_prec) - prec),
            "recall_at_10": float(np.mean(recall)),
            "candidate_fraction": float(np.mean([p.eval_count for p in first]) / self.n_labels),
            "underfilled_rate": float(np.mean([p.underfilled for p in first])),
        }

    def layer_probes(self, st: State, tr, work) -> dict:
        # build_label_index hides new_family (with its SVD) and build
        family = tr.call("hashing.new_family", new_family, PCA, self.l, self.L, self.rank, alpha=st.index.family.alpha,
                         seed=self.family_seed, dataset=st.data)
        tr.call("lsh.build", lsh.build, st.data, family)
        out = {**self.probe_layers(st, tr), **self.probe_tune_and_persist(st, tr)}
        self.probe_load_dense(tr, st.queries, work / f"multilabel-queries-{st.extra['seed']}.csv")
        return out


WORKLOADS = {w.name: w for w in (ToyQpRel(), ClusteredGreedy(), Multilabel())}
