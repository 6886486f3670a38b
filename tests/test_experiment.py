import dataclasses
import json
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import toy_centers
from hashdiv import experiment, hashing, lsh
from hashdiv.data import ToyConfig, load_sparse, make_toy, save_dense
from hashdiv.experiment import (
    ExperimentConfig,
    MultilabelConfig,
    MultilabelRow,
    ResultRow,
    emit,
    run_multilabel_experiment,
    run_retrieval_experiment,
    write_predictions_json,
)
from hashdiv.multilabel import FactorModel, LabelPrediction, predict_exact, save_factors


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    data = root / "data.csv"
    queries = root / "queries.csv"
    save_dense(make_toy(ToyConfig(n_per_class=150, class_centers=toy_centers(8), spread=0.25, seed=0)), data)
    save_dense(make_toy(ToyConfig(n_per_class=10, class_centers=toy_centers(8), spread=0.25, seed=1)), queries)
    return str(data), str(queries)


def row(v) -> str:
    return ",".join(repr(float(x)) for x in v)


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
        with pytest.raises(ValueError, match="^config field 'methods' must be a nonempty list$"):
            ExperimentConfig(data="x", queries="q", out="o", methods=())

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="^config field 'methods' must be a list of names from "
                                             "nn,rerank,greedy,mmr,qprel, got str 'fancy' in it$"):
            ExperimentConfig(data="x", queries="q", out="o", methods=("fancy",))

    def test_unknown_hash(self):
        with pytest.raises(ValueError, match="^config field 'hashes' must be a list of names from "
                                             "nh,lshdiv,lshsdiv,pcahash, got str 'md5' in it$"):
            ExperimentConfig(data="x", queries="q", out="o", hashes=("md5",))

    @pytest.mark.parametrize("cls, fields, message", [
        (ExperimentConfig, {"hashes": ()}, "config field 'hashes' must be a nonempty list$"),
        (ExperimentConfig, {"ks": ()}, "config field 'ks' must be a nonempty list$"),
        (ExperimentConfig, {"ks": (5, 0)}, "every k must be >= 1, got 0$"),
        (MultilabelConfig, {"methods": ()}, "config field 'methods' must be a nonempty list$"),
        (MultilabelConfig, {"methods": ("exact", "nn")}, "config field 'methods' must be a list of names from "
                                                         "exact,mmr,lshdiv,lshsdiv,pcahash, got str 'nn' in it$"),
        (MultilabelConfig, {"synthetic": False, "data": "x.svm"}, "LIBSVM data files need the feature dimension d"),
        (MultilabelConfig, {"alpha": 0}, r"need pool >= alpha >= 1"),
        (MultilabelConfig, {"alpha": 10, "pool": 9}, r"need pool >= alpha >= 1"),
        # the seed rule of every seeded entry point, before any file is read
        (ExperimentConfig, {"seed": -1}, r"seed=-1 is not an integer in \[0, 2\*\*63\)$"),
        (MultilabelConfig, {"seed": 2**63}, r"seed=9223372036854775808 is not an integer in \[0, 2\*\*63\)$"),
        (MultilabelConfig, {"d": 3, "rank": 20}, r"synthetic d=3 must be at least 2 \* rank, 40 for rank=20$"),
    ])
    def test_config_refusals(self, cls, fields, message):
        base = {"data": "x", "queries": "q"} if cls is ExperimentConfig else {"synthetic": True}
        with pytest.raises(ValueError, match=f"^{message}"):
            cls(out="o", **{**base, **fields})

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

    @pytest.mark.parametrize("key, value", [("ks", "25"), ("ks", 10), ("methods", "nn"), ("hashes", "nh")])
    def test_list_field_must_be_a_list(self, key, value):
        # "25" would run k=2 and k=5, and "nn" the methods "n" and "n"
        with pytest.raises(ValueError, match=f"^config field '{key}' must be a list, got {type(value).__name__}"):
            ExperimentConfig.from_dict({"data": "a", "queries": "b", "out": "c", key: value})

    def test_multilabel_list_field_must_be_a_list(self):
        with pytest.raises(ValueError, match="^config field 'methods' must be a list, got str 'exact'$"):
            MultilabelConfig.from_dict({"out": "c", "synthetic": True, "methods": "exact"})
        assert MultilabelConfig.from_dict({"out": "c", "synthetic": True, "methods": ["exact"]}).methods == ("exact",)


    @pytest.mark.parametrize("cls, values, message", [
        # [2.5, true] once ran k=2 and k=1, and "16" stayed a string
        (ExperimentConfig, {"ks": [2.5, True]}, "config field 'ks' must be a list of int, got float 2.5 in it"),
        (ExperimentConfig, {"ks": [5, True]}, "config field 'ks' must be a list of int, got bool True in it"),
        (ExperimentConfig, {"ks": ["5"]}, "config field 'ks' must be a list of int, got str '5' in it"),
        (ExperimentConfig, {"l": "16"}, "config field 'l' must be int, got str '16'"),
        (ExperimentConfig, {"L": 8.0}, "config field 'L' must be int, got float 8.0"),
        (ExperimentConfig, {"lam": True}, "config field 'lam' must be float, got bool True"),
        (ExperimentConfig, {"alpha": 4.0}, "config field 'alpha' must be int or None, got float 4.0"),
        (ExperimentConfig, {"timing": 0}, "config field 'timing' must be bool, got int 0"),
        (ExperimentConfig, {"methods": ["nn", 1]},
         "config field 'methods' must be a list of names from nn,rerank,greedy,mmr,qprel, got int 1 in it"),
        # "10" once ended in a TypeError from the first comparison with it
        (MultilabelConfig, {"alpha": "10"}, "config field 'alpha' must be int, got str '10'"),
        (MultilabelConfig, {"test": 3}, "config field 'test' must be str or None, got int 3"),
    ])
    def test_field_must_have_its_annotated_type(self, cls, values, message):
        required = {"data": "a", "queries": "b", "out": "c"} if cls is ExperimentConfig else {"out": "c", "synthetic": True}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls.from_dict({**required, **values})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(**required, **values)

    def test_an_int_is_a_float_and_none_fills_an_optional_field(self):
        cfg = ExperimentConfig.from_dict({"data": "a", "queries": "b", "out": "c", "lam": 1, "alpha": None, "ks": [5, 10]})
        assert (cfg.lam, cfg.alpha, cfg.ks) == (1, None, (5, 10))
        assert MultilabelConfig.from_dict({"out": "c", "synthetic": True, "ridge": 2, "d": None}).ridge == 2


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

    def test_on_topic_picks_without_subtopic_labels_score_zero_diversity(self, tmp_path):
        # category 0 has two labeled subtopics far from the query, and
        # on-topic points with no subtopic label next to it: nn picks only
        # those, so the pick set has no subtopic to take an entropy over
        d = 6
        eye = np.eye(d)
        lines = [f"0:-1:{row(eye[0] + 0.01 * i * eye[5])}" for i in range(4)]
        lines += [f"0:{sub}:{row(eye[1 + sub])}" for sub in (0, 1)]
        lines += [f"1:0:{row(eye[3])}", f"1:1:{row(eye[4])}"]
        data, queries = tmp_path / "data.csv", tmp_path / "q.csv"
        data.write_text("\n".join(lines) + "\n")
        queries.write_text(f"0:0:{row(eye[0])}\n")
        config = ExperimentConfig(
            data=str(data), queries=str(queries), out=str(tmp_path / "o.csv"),
            methods=("nn",), hashes=("nh",), ks=(3,), timing=False,
        )
        assert run_retrieval_experiment(config) == [ResultRow("nn", "nh", 3, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)]

    @pytest.mark.parametrize("qcat, recall", [(0, 0.0), (1, None)])
    def test_empty_union_scores_through_the_general_branches(self, tmp_path, qcat, recall):
        # the query lies far from every point, so none of its 20-bit keys
        # is occupied: an empty pick set gets precision 0, diversity 0 and
        # subtopic recall 0 (None for category 1, which has no subtopics)
        # from the same rules as any other pick set
        d = 8
        eye = np.eye(d)
        lines = [f"0:{i % 2}:{row(eye[0] + 0.1 * i * eye[1])}" for i in range(6)]
        lines += [f"1:-1:{row(-eye[0] + 0.1 * i * eye[1])}" for i in range(6)]
        data, queries = tmp_path / "data.csv", tmp_path / "q.csv"
        data.write_text("\n".join(lines) + "\n")
        queries.write_text(f"{qcat}:-1:{row(eye[2] + eye[3] - eye[4])}\n")
        config = ExperimentConfig(
            data=str(data), queries=str(queries), out=str(tmp_path / "o.csv"),
            methods=("nn", "greedy"), hashes=("lshdiv",), ks=(4,), l=20, L=1, seed=3, timing=False,
        )
        rows = run_retrieval_experiment(config)
        assert rows == [ResultRow(m, "lshdiv", 4, 0.0, recall, 0.0, 0.0, 0.0, 0.0) for m in ("nn", "greedy")]

    @pytest.mark.parametrize("unlabeled", ["data", "queries"])
    def test_unlabeled_input_refused_before_any_family_or_index(self, toy_files, tmp_path, monkeypatch, unlabeled):
        path = tmp_path / "unlabeled.csv"
        labeled = Path(toy_files[unlabeled == "queries"]).read_text().splitlines()
        path.write_text("".join(line.split(":", 2)[2] + "\n" for line in labeled))
        built = []
        monkeypatch.setattr(experiment, "new_family", lambda *args, **kwargs: built.append(args))
        monkeypatch.setattr(lsh, "build", lambda *args, **kwargs: built.append(args))
        config = base_config(toy_files, tmp_path / "o.csv", hashes=("nh", "lshsdiv"), **{unlabeled: str(path)})
        cause = {"data": f"data file {path}: dataset has no category labels",
                 "queries": f"queries file {path}: query has no category label"}[unlabeled]
        with pytest.raises(ValueError, match=f"^{re.escape(cause)}; precision is undefined$"):
            run_retrieval_experiment(config)
        assert built == []

    @pytest.mark.parametrize("empty", ["data", "queries"])
    def test_empty_input_file_is_named(self, toy_files, tmp_path, empty):
        path = tmp_path / "empty.csv"
        path.write_text("")
        config = base_config(toy_files, tmp_path / "o.csv", **{empty: str(path)})
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} holds no points$"):
            run_retrieval_experiment(config)

    def test_query_dimension_must_equal_the_data_dimension(self, toy_files, tmp_path):
        path = tmp_path / "q3.csv"
        save_dense(make_toy(ToyConfig(n_per_class=2, class_centers=toy_centers(3), spread=0.25, seed=1)), path)
        config = base_config(toy_files, tmp_path / "o.csv", queries=str(path))
        cause = f"queries file {path}: query dimension 3 != dataset dimension 8"
        with pytest.raises(ValueError, match=f"^{re.escape(cause)}$"):
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
        cause = f"queries file {path}: query has no category label; precision is undefined"
        with pytest.raises(ValueError, match=f"^{re.escape(cause)}$"):
            run_retrieval_experiment(config)


class TestEmit:
    def rows(self):
        return [
            ResultRow("nn", "lshdiv", 10, 0.97, 0.79, 0.76, 0.84, 0.112, 0.2),
            ResultRow("mmr", "nh", 10, 0.5, None, 0.25, 0.3333333, 0.0021, 1.0),
        ]

    def test_csv_three_decimals(self, tmp_path):
        path = tmp_path / "r.csv"
        emit(self.rows(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "method,hash,k,precision,subtopic_recall,diversity,h_score,seconds"
        assert lines[1] == "nn,lshdiv,10,0.970,0.790,0.760,0.840,0.112"
        assert lines[2] == "mmr,nh,10,0.500,,0.250,0.333,0.002"

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        emit([], path)
        assert path.read_text().splitlines() == ["method,hash,k,precision,subtopic_recall,diversity,h_score,seconds"]

    def test_json_roundtrip_to_csv(self, tmp_path):
        rows = self.rows()
        emit(rows, tmp_path / "r.csv")
        payload = json.loads((tmp_path / "r.csv.json").read_text())
        assert payload == [{"_type": "ResultRow", **dataclasses.asdict(row)} for row in rows]

    def test_json_keeps_full_precision(self, tmp_path):
        emit(self.rows(), tmp_path / "r.csv")
        payload = json.loads((tmp_path / "r.csv.json").read_text())
        assert payload[1]["h_score"] == 0.3333333

    def test_only_csv_is_a_format(self, tmp_path):
        # "json" once wrote the twin alone; it must not now write a CSV
        with pytest.raises(ValueError, match="^unknown output format 'json'$"):
            emit(self.rows(), tmp_path / "r.json", "json")
        assert not list(tmp_path.iterdir())

    def test_csv_json_twin(self, tmp_path):
        path = tmp_path / "r.csv"
        emit(self.rows(), path)
        twin = tmp_path / "r.csv.json"
        assert twin.exists()
        payload = json.loads(twin.read_text())
        assert payload[0]["candidate_fraction"] == 0.2  # full field set, full precision

    def test_multilabel_rows(self, tmp_path):
        rows = [MultilabelRow("exact", 10, 0.3, 0.2, 0.24, None, None, 1.5, 1.0)]
        path = tmp_path / "m.csv"
        emit(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "method,alpha,precision,recall,f_score,diversity,h_score,millis"
        assert lines[1] == "exact,10,0.300,0.200,0.240,,,1.500"


def _split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Oracle for the (train, validation, test) split of a run without
    --test: 4:1 train:test, then 1/5 of train held out for validation."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_test = max(1, n // 5)
    test = perm[:n_test]
    rest = perm[n_test:]
    n_val = max(1, rest.size // 5)
    return rest[n_val:], rest[:n_val], test


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

    def test_data_file_without_labels_refused(self, tmp_path):
        data = tmp_path / "docs.svm"
        data.write_text("1:0.5 2:0.5\n3:1.0\n")
        config = MultilabelConfig(out=str(tmp_path / "m.csv"), data=str(data), d=4, methods=("exact",))
        with pytest.raises(ValueError, match=f"^data file {re.escape(str(data))} has no labels$"):
            run_multilabel_experiment(config)

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
                pytest.raises(ValueError, match=r"^\(method=exact, split=validation, query=2\): boom$"):
            run_multilabel_experiment(config)

    @given(n=st.integers(1, 200), seed=st.integers(0, 2**32), with_test=st.booleans(), with_factors=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_split_is_refused_or_covers_the_data_file(self, tmp_path_factory, n, seed, with_test, with_factors):
        root = tmp_path_factory.mktemp("split")
        data, test, factors = root / "docs.svm", root / "test.svm", root / "f.bin"
        # distinct documents: data file ids 0..n-1, test file ids n, n+1, n+2
        data.write_text("".join(f"0 1:1 2:{i + 1}\n" for i in range(n)))
        test.write_text("".join(f"0 1:{j + 1} 3:1\n" for j in range(3)))
        rows = np.vstack([load_sparse(data, d=3).vectors, load_sparse(test, d=3).vectors])
        ids = {tuple(x): i for i, x in enumerate(rows.tolist())}
        model = FactorModel(W=np.ones((1, 1)), H=np.ones((3, 1)))
        save_factors(model, factors)
        fitted, validated, seen = [], [], []

        def fit(X, *args):
            fitted.extend(ids[tuple(x)] for x in X.tolist())
            return model

        def predictor(method, model, config):
            return lambda x: seen.append(ids[tuple(x.tolist())]) or LabelPrediction(np.array([0]), np.array([0.0]), 1)

        def choose(*args):
            validated.extend(seen)
            seen.clear()
            return 0.0

        config = MultilabelConfig(out=str(root / "m.csv"), data=str(data), d=3, methods=("exact",), alpha=1, pool=1,
                                  seed=seed, test=str(test) if with_test else None,
                                  factors=str(factors) if with_factors else None, timing=False)
        with mock.patch("hashdiv.multilabel.fit_lowrank_ridge", fit), \
                mock.patch("hashdiv.experiment._ml_predictor", predictor), \
                mock.patch("hashdiv.experiment._choose_cutoff", choose):
            try:
                run_multilabel_experiment(config)
            except ValueError as exc:
                # a validation part needs n >= 2 with a test fifth, a fitted
                # model one more document for training
                assert n < 2 + (not with_test) - with_factors
                assert re.fullmatch(rf"data file {re.escape(str(data))} has too few documents \({n}\) "
                                    r"to leave any for (validation|training)", str(exc))
                assert fitted == validated == seen == []
                return
        assert n >= 2 + (not with_test) - with_factors
        if with_test:
            assert seen == [n, n + 1, n + 2]
            tested = []
        else:
            tested = seen
            train, val, test_part = (part.tolist() for part in _split_indices(n, seed))
            assert (validated, tested) == (val, test_part)
            assert fitted == ([] if with_factors else train)
        if not with_factors:
            # disjoint, and together every document of the data file
            assert sorted(fitted + validated + tested) == list(range(n))

    def test_no_queries_is_an_error_not_a_nan_row(self, tmp_path):
        # refused by the config, before a split can come out empty
        with pytest.raises(ValueError, match="^n_queries must be >= 1, got 0$"):
            MultilabelConfig(out=str(tmp_path / "m.csv"), synthetic=True, n_labels=50, n_queries=0,
                             rank=4, methods=("exact",), timing=False)

    @pytest.mark.parametrize("name, value", [("n_labels", 0), ("n_labels", -1), ("n_queries", -3), ("rank", 0), ("rank", -2)])
    @pytest.mark.parametrize("mode", [{"synthetic": True}, {"data": "x.svm", "d": 4}])
    def test_counts_below_one_refused_in_both_modes(self, tmp_path, name, value, mode):
        # n_labels=0 once divided by zero, rank=0 ran an all-zero model
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
            MultilabelConfig(out=str(tmp_path / "m.csv"), **mode, **{name: value})

    @pytest.mark.parametrize("d, used", [(None, 8), (8, 8), (11, 11)])
    def test_synthetic_d_is_used_as_given_or_twice_the_rank(self, tmp_path, d, used):
        config = MultilabelConfig(out=str(tmp_path / "m.csv"), synthetic=True, n_labels=50, n_queries=5,
                                  rank=4, d=d, methods=("exact",), timing=False)
        with mock.patch("hashdiv.experiment.make_planted", wraps=experiment.make_planted) as planted:
            run_multilabel_experiment(config)
        assert planted.call_args.args[2] == used

    def test_planted_model_refuses_a_seed_outside_the_blob_field(self):
        with pytest.raises(ValueError, match=r"^seed=-1 is not an integer in \[0, 2\*\*63\)$"):
            experiment.make_planted(10, 2, 4, 1, seed=-1)

    def test_requires_data_or_synthetic(self, tmp_path):
        with pytest.raises(ValueError, match="data file or synthetic"):
            MultilabelConfig(out=str(tmp_path / "m.csv"))

    def test_synthetic_with_a_data_file_rejected(self, tmp_path):
        # the synthetic model would ignore the file without a word
        with pytest.raises(ValueError, match="data file or synthetic mode, not both"):
            MultilabelConfig(out=str(tmp_path / "m.csv"), synthetic=True, data=str(tmp_path / "x.svm"), d=4)

    @pytest.mark.parametrize("given", [{"test": "t.svm"}, {"factors": "f.bin"}])
    def test_synthetic_with_a_test_or_factors_file_rejected(self, tmp_path, given):
        # the planted model reads neither file, so it would be ignored
        with pytest.raises(ValueError, match="synthetic mode reads no test or factors file"):
            MultilabelConfig(out=str(tmp_path / "m.csv"), synthetic=True, **given)

    @pytest.mark.parametrize("l, cause", [(12, "pcahash needs alpha >= l, got alpha=8, l=12"), (70, "l=70 out of range")])
    def test_unbuildable_label_index_fails_before_any_query(self, tmp_path, l, cause):
        calls = []

        def counted(model, x, alpha):
            calls.append(x)
            return predict_exact(model, x, alpha)

        config = MultilabelConfig(out=str(tmp_path / "m.csv"), synthetic=True, n_labels=300, n_queries=10, rank=8,
                                  methods=("exact", "mmr", "pcahash"), l=l, timing=False)
        with mock.patch("hashdiv.multilabel.predict_exact", counted), pytest.raises(ValueError, match=cause):
            run_multilabel_experiment(config)
        assert calls == []

    @pytest.mark.parametrize("lam", [-0.1, 2.0])
    def test_lambda_outside_unit_interval_rejected_before_any_run(self, tmp_path, lam):
        with pytest.raises(ValueError, match=r"lambda must lie in \[0, 1\]"):
            MultilabelConfig(out=str(tmp_path / "m.csv"), synthetic=True, methods=("exact", "lshsdiv"), lam=lam)

    def test_removed_predictions_out_key_is_unknown(self):
        with pytest.raises(ValueError, match=r"unknown config keys: \['predictions_out'\]"):
            MultilabelConfig.from_dict({"out": "c", "synthetic": True, "predictions_out": "p.txt"})

    @pytest.mark.parametrize("key, value", [("format", "json"), ("threshold_grid", 50)])
    def test_removed_output_format_and_grid_keys_are_unknown(self, key, value):
        # every run writes the CSV and its JSON twin, over 50 cutoffs
        with pytest.raises(ValueError, match=rf"unknown config keys: \['{key}'\]"):
            MultilabelConfig.from_dict({"out": "c", "synthetic": True, key: value})

    def test_deterministic_rows(self, tmp_path):
        config = MultilabelConfig(
            out=str(tmp_path / "m.csv"), synthetic=True, n_labels=300, n_queries=20,
            rank=6, methods=("exact", "lshdiv"), alpha=4, pool=8, l=10, L=6,
            seed=3, timing=False,
        )
        assert run_multilabel_experiment(config) == run_multilabel_experiment(config)

    def test_exact_row_matches_precision_oracle(self, tmp_path):
        # with pool = alpha the exact method keeps the top-pool labels
        # scored at or above the cutoff, so an independent numpy oracle can
        # search the same 50 evenly spaced cutoffs for the best mean f on
        # the validation half and recompute the test precision
        from hashdiv.experiment import make_planted

        config = MultilabelConfig(
            out=str(tmp_path / "m.csv"), synthetic=True, n_labels=400, n_queries=25,
            rank=8, methods=("exact",), alpha=6, pool=6, seed=11, timing=False,
        )
        rows = run_multilabel_experiment(config)
        model, X_all, truth_all = make_planted(400, 8, 16, 50, n_clusters=50, seed=11)
        X_test, truth_test = X_all[:25], truth_all[:25]
        X_val, truth_val = X_all[25:], truth_all[25:]

        def top_pool(x):
            scores = model.W @ (model.H.T @ x)
            top = np.lexsort((np.arange(400), -scores))[:6]
            return top, scores[top]

        def kept_pr(x, truth, cutoff):
            top, scores = top_pool(x)
            kept = set(top[scores >= cutoff].tolist())
            if not kept:
                return 0.0, 0.0
            hits = len(kept & truth)
            return hits / len(kept), hits / len(truth) if truth else 0.0

        def mean_f(cutoff):
            prs = [kept_pr(x, truth, cutoff) for x, truth in zip(X_val, truth_val)]
            return np.mean([2 * p * r / (p + r) if p + r else 0.0 for p, r in prs])

        val_scores = np.concatenate([top_pool(x)[1] for x in X_val])
        cutoffs = np.linspace(val_scores.min(), val_scores.max(), 50)
        cutoff = cutoffs[np.argmax([mean_f(c) for c in cutoffs])]  # first best, as the harness keeps
        precs = [kept_pr(x, truth, cutoff)[0] for x, truth in zip(X_test, truth_test)]
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
        assert _choose_cutoff([empty, empty], [frozenset({1}), frozenset()], None, 2) == 0.0
        assert _choose_cutoff([], [], None, 2) == 0.0


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
