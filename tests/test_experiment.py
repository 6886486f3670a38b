import dataclasses
import json
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import toy_centers
from hashdiv import hashing
from hashdiv.data import ToyConfig, make_toy, save_dense
from hashdiv.experiment import (
    ExperimentConfig,
    ExperimentError,
    MultilabelConfig,
    MultilabelRow,
    ResultRow,
    emit,
    run_multilabel_experiment,
    run_retrieval_experiment,
    write_predictions_json,
)
from hashdiv.multilabel import LabelPrediction, predict_exact


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    data = root / "data.csv"
    queries = root / "queries.csv"
    save_dense(make_toy(ToyConfig(n_per_class=150, class_centers=toy_centers(8), spread=0.25, seed=0)), data)
    save_dense(make_toy(ToyConfig(n_per_class=10, class_centers=toy_centers(8), spread=0.25, seed=1)), queries)
    return str(data), str(queries)


def base_config(toy_files, out, **kw):
    data, queries = toy_files
    defaults = dict(
        data=data, queries=queries, out=str(out),
        methods=("nn",), hashes=("nh", "lshdiv"), ks=(5,),
        l=10, L=4, seed=0, timing=False,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_empty_methods_rejected(self):
        with pytest.raises(ValueError, match="method"):
            ExperimentConfig(data="x", queries="q", out="o", methods=())

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            ExperimentConfig(data="x", queries="q", out="o", methods=("fancy",))

    def test_unknown_hash(self):
        with pytest.raises(ValueError, match="unknown hash"):
            ExperimentConfig(data="x", queries="q", out="o", hashes=("md5",))

    def test_from_file_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"data": "a", "queries": "b", "out": "c", "bogus": 1})
        with pytest.raises(ValueError, match="unknown config keys"):
            MultilabelConfig.from_dict({"out": "c", "synthetic": True, "qp_tol": 1e-8})

    @pytest.mark.parametrize("key", ["max_candidates", "allow_expensive", "expensive_cap", "pool_factor"])
    def test_removed_keys_are_unknown(self, key):
        with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
            ExperimentConfig.from_dict({"data": "a", "queries": "b", "out": "c", key: 1})

    def test_from_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"data": "a", "queries": "b", "out": "c", "ks": [10, 20]}))
        cfg = ExperimentConfig.from_dict(json.loads(p.read_text()))
        assert cfg.ks == (10, 20)


class TestRetrievalRuns:
    def test_nn_nh_matches_brute_force(self, toy_files, tmp_path):
        config = base_config(toy_files, tmp_path / "o.csv", hashes=("nh",), ks=(5,))
        rows = run_retrieval_experiment(config)
        assert len(rows) == 1
        row = rows[0]
        # independent oracle: brute-force nearest neighbors per query
        from hashdiv.data import load_dense

        ds = load_dense(config.data)
        qs = load_dense(config.queries)
        precs = []
        for i in range(qs.n):
            diff = ds.vectors - qs.vectors[i]
            top = np.argsort(np.einsum("ij,ij->i", diff, diff), kind="stable")[:5]
            precs.append(np.mean(ds.categories[top] == qs.categories[i]))
        assert row.precision == pytest.approx(float(np.mean(precs)))
        assert row.candidate_fraction == 1.0

    def test_hashed_fraction_below_one(self, toy_files, tmp_path):
        config = base_config(toy_files, tmp_path / "o.csv")
        rows = run_retrieval_experiment(config)
        by_hash = {r.hash: r for r in rows}
        assert by_hash["nh"].candidate_fraction == 1.0
        assert by_hash["lshdiv"].candidate_fraction < 1.0

    def test_full_grid_shape(self, toy_files, tmp_path):
        config = base_config(
            toy_files, tmp_path / "o.csv",
            methods=("nn", "greedy", "mmr", "rerank"),
            hashes=("nh", "lshdiv", "lshsdiv", "pcahash"),
            ks=(5, 10), l=8, alpha=8,
        )
        rows = run_retrieval_experiment(config)
        assert len(rows) == 4 * 4 * 2
        for r in rows:
            assert 0.0 <= r.precision <= 1.0
            assert 0.0 <= r.diversity <= 1.0
            assert 0.0 <= r.h_score <= 1.0

    def test_pca_families_share_one_svd(self, toy_files, tmp_path):
        svd = mock.Mock(wraps=hashing.truncated_svd)
        def run(*hashes):
            return run_retrieval_experiment(
                base_config(toy_files, tmp_path / "o.csv", methods=("nn", "greedy"), hashes=hashes, l=8))

        with mock.patch.object(hashing, "truncated_svd", svd):
            rows = run("lshsdiv", "pcahash")
        assert svd.call_count == 1
        # each family alone computes its own basis from the same data
        assert rows == run("lshsdiv") + run("pcahash")

    def test_qprel_hashed_allowed(self, toy_files, tmp_path):
        config = base_config(toy_files, tmp_path / "o.csv", methods=("qprel",), hashes=("lshdiv",), ks=(3,))
        rows = run_retrieval_experiment(config)
        assert rows[0].precision >= 0.0

    def test_determinism_same_seed(self, toy_files, tmp_path):
        config = base_config(toy_files, tmp_path / "a.csv", methods=("nn", "mmr"), ks=(5,))
        rows_a = run_retrieval_experiment(config)
        rows_b = run_retrieval_experiment(config)
        assert rows_a == rows_b

    def test_subtopic_metrics_path(self, tmp_path):
        # 2 categories x 4 subtopics, one tight cluster per subtopic: the
        # SR and entropy-diversity columns must engage and stay in range
        rng = np.random.default_rng(0)
        d = 10
        centers = rng.standard_normal((2, 4, d))
        centers /= np.linalg.norm(centers, axis=2, keepdims=True)
        lines = []
        for cat in range(2):
            for sub in range(4):
                pts = centers[cat, sub] + 0.05 * rng.standard_normal((25, d))
                pts /= np.linalg.norm(pts, axis=1, keepdims=True)
                for p in pts:
                    lines.append(f"{cat}:{sub}:" + ",".join(repr(float(v)) for v in p))
        data = tmp_path / "labeled.csv"
        data.write_text("\n".join(lines) + "\n")
        qlines = []
        for cat in range(2):
            mean = centers[cat].mean(axis=0)
            mean /= np.linalg.norm(mean)
            for _ in range(5):
                q = mean + 0.05 * rng.standard_normal(d)
                q /= np.linalg.norm(q)
                qlines.append(f"{cat}:0:" + ",".join(repr(float(v)) for v in q))
        queries = tmp_path / "q.csv"
        queries.write_text("\n".join(qlines) + "\n")

        config = ExperimentConfig(
            data=str(data), queries=str(queries), out=str(tmp_path / "o.csv"),
            methods=("nn", "greedy"), hashes=("nh",), ks=(8,), lam=0.5, timing=False,
        )
        rows = {r.method: r for r in run_retrieval_experiment(config)}
        for row in rows.values():
            assert row.subtopic_recall is not None and 0.0 <= row.subtopic_recall <= 1.0
            assert 0.0 <= row.diversity <= 1.0
        # the diversity-aware selector must cover more subtopics than plain NN
        assert rows["greedy"].subtopic_recall >= rows["nn"].subtopic_recall
        assert rows["greedy"].diversity > rows["nn"].diversity

    @pytest.mark.parametrize("empty", ["data", "queries"])
    def test_empty_input_file_is_named(self, toy_files, tmp_path, empty):
        path = tmp_path / "empty.csv"
        path.write_text("")
        config = base_config(toy_files, tmp_path / "o.csv", **{empty: str(path)})
        with pytest.raises(ExperimentError, match=f"^{re.escape(str(path))} holds no points$"):
            run_retrieval_experiment(config)

    @pytest.mark.parametrize("unlabeled", ["one", "all"])
    def test_unlabeled_query_is_refused(self, toy_files, tmp_path, unlabeled):
        # a row without the "category:subtopic:" prefix; the file has no
        # category column at all when no row has one
        rows = Path(toy_files[1]).read_text().splitlines()
        strip = range(len(rows)) if unlabeled == "all" else [3]
        for i in strip:
            rows[i] = rows[i].split(":", 2)[2]
        path = tmp_path / "queries.csv"
        path.write_text("\n".join(rows) + "\n")
        config = base_config(toy_files, tmp_path / "o.csv", queries=str(path))
        with pytest.raises(ExperimentError, match="^query has no category label; precision is undefined$"):
            run_retrieval_experiment(config)


class TestEmit:
    def rows(self):
        return [
            ResultRow("nn", "lshdiv", 10, 0.97, 0.79, 0.76, 0.84, 0.112, 0.2),
            ResultRow("mmr", "nh", 10, 0.5, None, 0.25, 0.3333333, 0.0021, 1.0),
        ]

    def test_csv_three_decimals(self, tmp_path):
        path = tmp_path / "r.csv"
        emit(self.rows(), path, "csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "method,hash,k,precision,subtopic_recall,diversity,h_score,seconds"
        assert lines[1] == "nn,lshdiv,10,0.970,0.790,0.760,0.840,0.112"
        assert lines[2] == "mmr,nh,10,0.500,,0.250,0.333,0.002"

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        emit([], path, "csv")
        assert path.read_text().splitlines() == ["method,hash,k,precision,subtopic_recall,diversity,h_score,seconds"]

    def test_json_roundtrip_to_csv(self, tmp_path):
        rows = self.rows()
        emit(rows, tmp_path / "r.csv", "csv", json_twin=True)
        payload = json.loads((tmp_path / "r.csv.json").read_text())
        assert payload == [{"_type": "ResultRow", **dataclasses.asdict(row)} for row in rows]

    def test_json_keeps_full_precision(self, tmp_path):
        jpath = tmp_path / "r.json"
        emit(self.rows(), jpath, "json")
        payload = json.loads(jpath.read_text())
        assert payload[1]["h_score"] == 0.3333333

    def test_csv_json_twin(self, tmp_path):
        path = tmp_path / "r.csv"
        emit(self.rows(), path, "csv", json_twin=True)
        twin = tmp_path / "r.csv.json"
        assert twin.exists()
        payload = json.loads(twin.read_text())
        assert payload[0]["candidate_fraction"] == 0.2  # full field set, full precision

    def test_multilabel_rows(self, tmp_path):
        rows = [MultilabelRow("exact", 10, 0.3, 0.2, 0.24, None, None, 1.5, 1.0)]
        path = tmp_path / "m.csv"
        emit(rows, path, "csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "method,alpha,precision,recall,f_score,diversity,h_score,millis"
        assert lines[1] == "exact,10,0.300,0.200,0.240,,,1.500"


class TestMultilabelExperiment:
    def test_synthetic_run(self, tmp_path):
        config = MultilabelConfig(
            out=str(tmp_path / "m.csv"), synthetic=True, n_labels=400, n_queries=30,
            rank=8, methods=("exact", "lshsdiv"), alpha=5, pool=10, l=10, L=6,
            seed=0, timing=False,
        )
        rows = run_multilabel_experiment(config)
        assert len(rows) == 2
        exact = next(r for r in rows if r.method == "exact")
        hashed = next(r for r in rows if r.method == "lshsdiv")
        assert exact.eval_fraction == 1.0
        assert hashed.eval_fraction < 1.0
        assert exact.diversity is None and exact.h_score is None

    def test_file_driven_with_hierarchy(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = []
        for i in range(60):
            group = i % 3
            feats = rng.uniform(0.2, 1.0, size=3)
            base = group * 3
            toks = " ".join(f"{base + j + 1}:{feats[j]:.4f}" for j in range(3))
            labels = f"{group * 2},{group * 2 + 1}"
            lines.append(f"{labels} {toks}")
        data = tmp_path / "docs.svm"
        data.write_text("\n".join(lines) + "\n")
        hier = tmp_path / "h.txt"
        # root 100, top-level 10/11/12, labels 0..5 underneath
        hier.write_text("10 100\n11 100\n12 100\n0 10\n1 10\n2 11\n3 11\n4 12\n5 12\n")
        config = MultilabelConfig(
            out=str(tmp_path / "m.csv"), data=str(data), d=9, rank=3, ridge=0.1,
            methods=("exact",), alpha=2, pool=4, seed=1, timing=False, hierarchy=str(hier),
        )
        rows = run_multilabel_experiment(config)
        assert rows[0].diversity is not None
        assert rows[0].precision > 0.5  # planted block structure is easy

    def test_prediction_outputs(self, tmp_path):
        jpath = tmp_path / "p.json"
        config = MultilabelConfig(
            out=str(tmp_path / "m.csv"), synthetic=True, n_labels=200, n_queries=10,
            rank=6, methods=("exact",), alpha=4, pool=8, seed=2, timing=False,
            predictions_json=str(jpath),
        )
        run_multilabel_experiment(config)
        records = json.loads(jpath.read_text())
        assert [r["query_id"] for r in records] == list(range(10))
        assert {"query_id", "labels", "scores", "eval_count"} == set(records[0])

    @pytest.mark.parametrize("first", ["exact", "mmr", "lshsdiv"])
    def test_prediction_scores_belong_to_their_labels(self, tmp_path, first):
        # pool > alpha, so the cut reorders labels whenever the method's
        # own order is not by score
        from hashdiv.experiment import make_planted

        jpath = tmp_path / "p.json"
        methods = (first,) + tuple(m for m in ("exact", "mmr", "lshsdiv") if m != first)
        config = MultilabelConfig(
            out=str(tmp_path / "m.csv"), synthetic=True, n_labels=2000, n_queries=60, rank=12,
            methods=methods, alpha=5, pool=15, seed=0, timing=False, predictions_json=str(jpath),
        )
        run_multilabel_experiment(config)
        model, X, _ = make_planted(2000, 12, 24, 120, seed=0)
        records = json.loads(jpath.read_text())
        assert len(records) == 60 and any(len(r["labels"]) > 1 for r in records)
        for r in records:
            expected = model.W[r["labels"]] @ (model.H.T @ X[r["query_id"]])
            np.testing.assert_allclose(r["scores"], expected, rtol=0, atol=1e-12)

    def test_validation_query_error_names_method_and_query(self, tmp_path):
        calls = []

        def fail_third(model, x, alpha):
            calls.append(x)
            if len(calls) == 3:
                raise ValueError("boom")
            return predict_exact(model, x, alpha)

        config = MultilabelConfig(out=str(tmp_path / "m.csv"), synthetic=True, n_labels=50, n_queries=5,
                                  rank=4, methods=("exact",), timing=False)
        with mock.patch("hashdiv.multilabel.predict_exact", fail_third), \
                pytest.raises(ExperimentError, match=r"^\(method=exact, split=validation, query=2\): boom$"):
            run_multilabel_experiment(config)

    def test_no_queries_is_an_error_not_a_nan_row(self, tmp_path):
        config = MultilabelConfig(out=str(tmp_path / "m.csv"), synthetic=True, n_labels=50, n_queries=0,
                                  rank=4, methods=("exact",), timing=False)
        with pytest.raises(ExperimentError, match="no queries to run"):
            run_multilabel_experiment(config)

    def test_requires_data_or_synthetic(self, tmp_path):
        with pytest.raises(ValueError, match="data file or synthetic"):
            MultilabelConfig(out=str(tmp_path / "m.csv"))

    @pytest.mark.parametrize("grid", [0, -3])
    def test_threshold_grid_below_one_rejected(self, tmp_path, grid):
        # 0 would search no cutoff at all, and a negative grid size fails
        # deep inside numpy
        with pytest.raises(ValueError, match="threshold_grid must be >= 1"):
            MultilabelConfig(out=str(tmp_path / "m.csv"), synthetic=True, threshold_grid=grid)

    def test_removed_predictions_out_key_is_unknown(self):
        with pytest.raises(ValueError, match=r"unknown config keys: \['predictions_out'\]"):
            MultilabelConfig.from_dict({"out": "c", "synthetic": True, "predictions_out": "p.txt"})

    def test_deterministic_rows(self, tmp_path):
        config = MultilabelConfig(
            out=str(tmp_path / "m.csv"), synthetic=True, n_labels=300, n_queries=20,
            rank=6, methods=("exact", "lshdiv"), alpha=4, pool=8, l=10, L=6,
            seed=3, timing=False,
        )
        assert run_multilabel_experiment(config) == run_multilabel_experiment(config)

    def test_exact_row_matches_precision_oracle(self, tmp_path):
        # threshold_grid=1 pins the cutoff at the minimum validation score,
        # so the exact row's precision equals top-pool precision, which an
        # independent numpy oracle can recompute from the planted model
        from hashdiv.experiment import make_planted

        config = MultilabelConfig(
            out=str(tmp_path / "m.csv"), synthetic=True, n_labels=400, n_queries=25,
            rank=8, methods=("exact",), alpha=6, pool=6, seed=11, timing=False,
            threshold_grid=1,
        )
        rows = run_multilabel_experiment(config)
        model, X_all, truth_all = make_planted(400, 8, 16, 50, n_clusters=50, seed=11)
        X_test, truth_test = X_all[:25], truth_all[:25]
        X_val = X_all[25:]

        def top_pool(x):
            scores = model.W @ (model.H.T @ x)
            top = np.lexsort((np.arange(400), -scores))[:6]
            return top, scores[top]

        cutoff = min(float(top_pool(x)[1].min()) for x in X_val)
        precs = []
        for x, truth in zip(X_test, truth_test):
            top, scores = top_pool(x)
            kept = set(top[scores >= cutoff].tolist())
            precs.append(len(kept & truth) / len(kept) if kept else 0.0)
        assert rows[0].precision == pytest.approx(float(np.mean(precs)))

    def test_mmr_and_pcahash_methods(self, tmp_path):
        # pcahash hashing only has `rank` distinct directions, so l <= rank
        config = MultilabelConfig(
            out=str(tmp_path / "m.csv"), synthetic=True, n_labels=300, n_queries=15,
            rank=8, methods=("mmr", "pcahash"), alpha=4, pool=8, l=8, L=4,
            seed=6, timing=False,
        )
        rows = {r.method: r for r in run_multilabel_experiment(config)}
        assert rows["mmr"].eval_fraction == 1.0  # full scan feeds the MMR pool
        assert rows["pcahash"].eval_fraction < 1.0
        assert 0.0 <= rows["mmr"].precision <= 1.0

    def test_hashed_row_faster_than_exact_at_scale(self, tmp_path):
        # regression bound from the acceptance pipeline: at 10k labels the
        # hashed row's mean prediction time beats the exact scan
        config = MultilabelConfig(
            out=str(tmp_path / "m.csv"), synthetic=True, n_labels=10_000, n_queries=100,
            rank=20, methods=("exact", "lshsdiv"), alpha=10, pool=10, lam=0.9,
            l=14, L=12, seed=5, timing=True,
        )
        rows = {r.method: r for r in run_multilabel_experiment(config)}
        assert rows["lshsdiv"].millis < rows["exact"].millis
        assert rows["lshsdiv"].eval_fraction < 0.2


class TestPredSets:
    def test_cutoff_then_alpha_cap(self):
        from hashdiv.experiment import _pred_sets
        from hashdiv.multilabel import LabelPrediction

        pred = LabelPrediction(
            labels=np.array([7, 2, 9, 4]), scores=np.array([0.9, 0.8, 0.3, 0.7]), eval_count=4
        )
        cut = _pred_sets(pred, 0.5, alpha=2)
        assert cut.labels.tolist() == [7, 2] and cut.scores.tolist() == [0.9, 0.8] and cut.eval_count == 4
        cut = _pred_sets(pred, 0.5, alpha=10)
        assert cut.labels.tolist() == [7, 2, 4] and cut.scores.tolist() == [0.9, 0.8, 0.7]
        assert _pred_sets(pred, 1.5, alpha=2).labels.size == 0

    def test_cap_keeps_each_label_with_its_score(self):
        from hashdiv.experiment import _pred_sets

        # a diverse method's order is not by score; the cap re-sorts both
        pred = LabelPrediction(labels=np.array([3, 8, 1, 5]), scores=np.array([0.2, 0.9, 0.5, 0.9]), eval_count=6)
        cut = _pred_sets(pred, 0.0, alpha=3)
        assert cut.labels.tolist() == [5, 8, 1]
        assert cut.scores.tolist() == [0.9, 0.9, 0.5]


class TestChooseCutoff:
    def test_all_empty_predictions_give_zero(self):
        from hashdiv.experiment import _choose_cutoff
        from hashdiv.multilabel import LabelPrediction

        empty = LabelPrediction(labels=np.empty(0, dtype=int), scores=np.empty(0), eval_count=3, underfilled=True)
        assert _choose_cutoff([empty, empty], [frozenset({1}), frozenset()], None, 5, 2) == 0.0
        assert _choose_cutoff([], [], None, 5, 2) == 0.0


class TestPredictionWriters:
    def test_json_format(self, tmp_path):
        path = tmp_path / "p.json"
        write_predictions_json([
            LabelPrediction(labels=np.array([3, 1]), scores=np.array([0.5, 0.2]), eval_count=7),
            LabelPrediction(labels=np.array([4]), scores=np.array([1.5]), eval_count=9),
        ], path)
        assert json.loads(path.read_text()) == [
            {"query_id": 0, "labels": [3, 1], "scores": [0.5, 0.2], "eval_count": 7},
            {"query_id": 1, "labels": [4], "scores": [1.5], "eval_count": 9},
        ]
