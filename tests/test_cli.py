import argparse
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import hashdiv
from conftest import edit_family_in_index_blob
from hashdiv import lsh
from hashdiv.cli import build_parser, main
from hashdiv.data import load_dense


@pytest.fixture
def toy_paths(tmp_path):
    data = tmp_path / "data.csv"
    queries = tmp_path / "queries.csv"
    rc = main([
        "toy-gen", "--out", str(data), "--queries-out", str(queries),
        "--n-per-class", "200", "--n-queries", "20", "--d", "8", "--seed", "0",
    ])
    assert rc == 0
    return data, queries


def test_toy_gen_writes_labeled_unit_vectors(toy_paths):
    data, queries = toy_paths
    ds = load_dense(data)
    assert ds.n == 400
    assert set(ds.categories.tolist()) == {0, 1}
    np.testing.assert_allclose(np.linalg.norm(ds.vectors, axis=1), 1.0, atol=1e-9)
    assert load_dense(queries).n == 20


def test_index_build_and_query(toy_paths, tmp_path, capsys):
    data, queries = toy_paths
    idx = tmp_path / "index.bin"
    assert main(["index", "build", "--data", str(data), "--kind", "lshdiv",
                 "--l", "10", "--L", "4", "--seed", "1", "--out", str(idx)]) == 0
    stats = re.search(r"into (\d+) non-empty buckets across 4 tables \(bucket size max (\d+), p99 ([\d.]+)\)",
                      capsys.readouterr().err)
    sizes = lsh.load_index(idx, load_dense(data)).bucket_sizes()
    assert stats and int(stats[1]) == sizes.size and int(stats[2]) == sizes.max()
    assert float(stats[3]) == pytest.approx(np.percentile(sizes, 99), rel=1e-5)
    assert sizes.sum() == 400 * 4
    out = tmp_path / "cand.jsonl"
    assert main(["index", "query", "--index", str(idx), "--data", str(data),
                 "--queries", str(queries), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 20
    rec = json.loads(lines[0])
    assert rec["query_id"] == 0
    assert rec["touched"] >= len(rec["candidates"])


def test_index_query_unknown_family_kind_is_one_error_line(toy_paths, tmp_path, capsys):
    data, queries = toy_paths
    idx = tmp_path / "index.bin"
    assert main(["index", "build", "--data", str(data), "--l", "10", "--L", "4", "--out", str(idx)]) == 0
    idx.write_bytes(edit_family_in_index_blob(idx.read_bytes(), 4, b"\x07"))
    capsys.readouterr()
    rc = main(["index", "query", "--index", str(idx), "--data", str(data), "--queries", str(queries)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.splitlines() == ["error: corrupt hash-family blob: unknown kind code 7"]


def test_retrieve_grid_and_determinism(toy_paths, tmp_path):
    data, queries = toy_paths
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["retrieve", "--data", str(data), "--queries", str(queries),
            "--methods", "nn,mmr", "--hashes", "nh,lshdiv", "--ks", "5",
            "--l", "10", "--L", "4", "--seed", "3", "--no-timing"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().splitlines()
    assert len(lines) == 1 + 4
    # full-precision twin sits next to the rounded CSV and is reproducible too
    twin_a, twin_b = tmp_path / "a.csv.json", tmp_path / "b.csv.json"
    assert twin_a.exists() and twin_a.read_bytes() == twin_b.read_bytes()
    assert len(json.loads(twin_a.read_text())) == 4


def test_retrieve_config_file_with_flag_override(toy_paths, tmp_path):
    data, queries = toy_paths
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data": str(data), "queries": str(queries), "out": str(tmp_path / "x.csv"),
        "methods": ["nn"], "hashes": ["nh"], "ks": [5], "timing": False,
    }))
    out = tmp_path / "y.csv"
    assert main(["retrieve", "--config", str(cfg), "--out", str(out), "--ks", "3,5"]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2  # ks override applied


def test_retrieve_qprel_over_every_point_needs_no_flag(toy_paths, tmp_path):
    data, queries = toy_paths
    out = tmp_path / "o.csv"
    rc = main(["retrieve", "--data", str(data), "--queries", str(queries),
               "--methods", "qprel", "--hashes", "nh", "--ks", "5", "--out", str(out)])
    assert rc == 0
    assert [row["candidate_fraction"] for row in json.loads((tmp_path / "o.csv.json").read_text())] == [1.0]


def test_retrieve_unbuildable_family_fails_before_any_cell(toy_paths, tmp_path, capsys):
    # pcahash takes l principal directions, and 8-d data has only 8
    data, queries = toy_paths
    out = tmp_path / "o.csv"
    rc = main(["retrieve", "--data", str(data), "--queries", str(queries),
               "--hashes", "nh,lshdiv,lshsdiv,pcahash", "--l", "10", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "pcahash needs alpha >= l" in err
    assert "[cell]" not in err
    assert not out.exists()


def test_tune_outputs_json(toy_paths, capsys):
    data, _ = toy_paths
    assert main(["tune", "--data", str(data), "--target-recall", "0.8", "--seed", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {"l", "L", "feasible", "recall"} <= set(payload)
    assert payload["feasible"]


def test_multilabel_synthetic(tmp_path):
    out = tmp_path / "ml.csv"
    rc = main(["multilabel", "--synthetic", "--n-labels", "300", "--n-queries", "15",
               "--rank", "6", "--methods", "exact,lshdiv", "--alpha", "4", "--pool", "8",
               "--l", "10", "--L", "6", "--seed", "4", "--no-timing", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("method,alpha,precision")
    assert len(lines) == 3


def test_bad_input_reports_error(tmp_path, capsys):
    rc = main(["retrieve", "--data", str(tmp_path / "missing.csv"),
               "--queries", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def _write_docs(path):
    """40 two-label LIBSVM documents over features 1-6."""
    rng = np.random.default_rng(0)
    docs = [f"{i % 2} " + " ".join(f"{3 * (i % 2) + j + 1}:{v:.4f}" for j, v in enumerate(rng.uniform(0.2, 1, 3)))
            for i in range(40)]
    path.write_text("\n".join(docs) + "\n")


def test_multilabel_empty_test_file_is_an_error(tmp_path, capsys):
    _write_docs(tmp_path / "docs.svm")
    (tmp_path / "empty.svm").write_text("")
    out = tmp_path / "m.csv"
    rc = main(["multilabel", "--data", str(tmp_path / "docs.svm"), "--d", "6", "--test", str(tmp_path / "empty.svm"),
               "--rank", "2", "--methods", "exact", "--alpha", "1", "--pool", "2", "--out", str(out)])
    assert rc == 1
    assert "error: (method=exact, split=test): no queries to run" in capsys.readouterr().err
    assert not out.exists()


def test_multilabel_unseen_feature_document_gets_an_empty_prediction(tmp_path):
    # the second test document has only feature 7, which no training
    # document has: H has a zero row there, so its H^T x is zero
    _write_docs(tmp_path / "docs.svm")
    (tmp_path / "test.svm").write_text("0 1:0.5 2:0.5\n1 7:1.0\n1 4:0.3 5:0.9\n")
    out, preds = tmp_path / "m.csv", tmp_path / "p.json"
    rc = main(["multilabel", "--data", str(tmp_path / "docs.svm"), "--d", "8", "--test", str(tmp_path / "test.svm"),
               "--rank", "2", "--methods", "exact,mmr,lshsdiv", "--alpha", "1", "--pool", "2", "--l", "4", "--L", "4",
               "--no-timing", "--out", str(out), "--predictions-json", str(preds)])
    assert rc == 0
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["exact", "mmr", "lshsdiv"]
    assert json.loads(preds.read_text())[1] == {"query_id": 1, "labels": [], "scores": [], "eval_count": 0}


@pytest.mark.parametrize("size", [4, 20])
def test_multilabel_truncated_factor_file_is_one_error_line(tmp_path, capsys, size):
    _write_docs(tmp_path / "docs.svm")
    (tmp_path / "f.bin").write_bytes((b"HDVM" + bytes(24))[:size])
    rc = main(["multilabel", "--data", str(tmp_path / "docs.svm"), "--d", "6", "--factors", str(tmp_path / "f.bin"),
               "--out", str(tmp_path / "m.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error" in line] == [
        f"error: truncated factor file: {size} bytes, the header alone is 28"
    ]


@pytest.mark.parametrize("argv, cause", [
    (["retrieve", "--queries", "q.csv", "--out", "x.csv"], "missing required config keys: ['data']"),
    (["multilabel", "--synthetic"], "missing required config keys: ['out']"),
    (["retrieve", "--config", "list.json"], "must be a JSON object of fields, got list"),
])
def test_bad_config_reports_error_not_traceback(tmp_path, argv, cause):
    (tmp_path / "list.json").write_text("[1, 2]")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", "hashdiv.cli", *argv], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and cause in proc.stderr
    assert "Traceback" not in proc.stderr


def _surface(parser, path=()):
    """{subcommand path: {option string: dest}} for every leaf parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(path): {o: a.dest for a in parser._actions for o in a.option_strings
                                 if not isinstance(a, argparse._HelpAction)}}
    return {k: v for name, sub in subs[0].choices.items() for k, v in _surface(sub, path + (name,)).items()}


def test_cli_surface_is_pinned():
    # retrieve and multilabel flags are derived from the config dataclasses;
    # this literal catches a flag the derivation adds, drops or renames
    shared = {"--config": "config", "--out": "out", "--data": "data", "--methods": "methods", "--lambda": "lam",
              "--l": "l", "--L": "L", "--alpha": "alpha", "--seed": "seed", "--format": "format",
              "--no-timing": "timing"}
    assert _surface(build_parser()) == {
        "toy-gen": {"--out": "out", "--queries-out": "queries_out", "--n-per-class": "n_per_class",
                    "--n-queries": "n_queries", "--d": "d", "--spread": "spread", "--seed": "seed"},
        "index build": {"--data": "data", "--kind": "kind", "--l": "l", "--L": "L", "--alpha": "alpha",
                        "--seed": "seed", "--out": "out"},
        "index query": {"--index": "index", "--data": "data", "--queries": "queries", "--out": "out"},
        "retrieve": {**shared, "--queries": "queries", "--hashes": "hashes", "--ks": "ks"},
        "multilabel": {**shared, "--d": "d", "--test": "test", "--factors": "factors", "--hierarchy": "hierarchy",
                       "--synthetic": "synthetic", "--n-labels": "n_labels", "--n-queries": "n_queries",
                       "--rank": "rank", "--ridge": "ridge", "--pool": "pool", "--threshold-grid": "threshold_grid",
                       "--predictions-json": "predictions_json"},
        "tune": {"--data": "data", "--target-recall": "target_recall", "--epsilon": "epsilon", "--seed": "seed"},
    }
    # one flag of each derived kind; an unset flag stores nothing
    args = build_parser().parse_args(["retrieve", "--ks", "3, 5", "--lambda", "0.25", "--alpha", "4", "--no-timing"])
    assert {k: v for k, v in vars(args).items() if k != "fn"} == {
        "command": "retrieve", "config": None, "ks": (3, 5), "lam": 0.25, "alpha": 4, "timing": False,
    }
    args = build_parser().parse_args(["multilabel", "--synthetic"])
    assert {k: v for k, v in vars(args).items() if k != "fn"} == {
        "command": "multilabel", "config": None, "synthetic": True,
    }


def test_public_api_is_pinned():
    # submodules appear in dir(hashdiv) once something imports them, so
    # they are left out; any other addition or deletion must edit this list
    public = {n for n in dir(hashdiv)
              if not n.startswith("__") and not isinstance(getattr(hashdiv, n), types.ModuleType)}
    assert public == {
        "CandidateSet", "Dataset", "FactorModel", "HashFamily", "HierarchyTree", "LabelPrediction",
        "LshIndex", "PCA", "PCA_DIRECT", "PLAIN", "QpSolveReport", "SelectionProblem", "SelectionResult",
        "ToyConfig", "TruncatedBasis", "bfs_prune", "build", "build_label_index", "collision_probability",
        "entropy_diversity", "estimate_collision_rate", "f_score", "fit_lowrank_ridge", "h_score", "load_dense",
        "load_factors", "load_sparse", "make_toy", "mean_pairwise_distance", "new_family", "precision_at_k",
        "predict_diverse", "predict_exact", "project_capped_simplex", "qp_relax_solve", "query", "save_factors",
        "select_greedy_div", "select_mmr", "select_nn", "select_qp_rel", "select_rerank", "subtopic_recall",
        "tree_diversity", "truncated_svd", "tune",
    }


def test_import_loads_no_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, hashdiv, hashdiv.cli, hashdiv.experiment; print(sorted(m for m in sys.modules if 'scipy' in m))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_multilabel_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "synthetic": True, "timing": False, "out": str(tmp_path / "file.csv"), "n_queries": 15,
        "n_labels": 300, "rank": 6, "methods": ["exact"], "alpha": 4, "pool": 8, "seed": 4,
    }))
    out, preds = tmp_path / "flag.csv", tmp_path / "preds.json"
    # no --synthetic or --no-timing: the file's values must stand
    assert main(["multilabel", "--config", str(cfg), "--out", str(out), "--n-queries", "6",
                 "--predictions-json", str(preds)]) == 0
    assert out.exists() and not (tmp_path / "file.csv").exists()
    assert len(json.loads(preds.read_text())) == 6
    assert [row["millis"] for row in json.loads((tmp_path / "flag.csv.json").read_text())] == [0.0]


def test_toy_benchmark_script(tmp_path):
    out = tmp_path / "toy.csv"
    script = Path(__file__).resolve().parent.parent / "scripts" / "toy_benchmark.py"
    # TMPDIR puts the script's scratch directory under tmp_path, where its
    # removal can be checked
    proc = subprocess.run([sys.executable, str(script), "--n-per-class", "50", "--n-queries", "4", "--out", str(out)],
                          capture_output=True, text=True, timeout=120, env={**os.environ, "TMPDIR": str(tmp_path)})
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "method,hash,k,precision,subtopic_recall,diversity,h_score,seconds"
    # 5 methods x 3 hash families x 1 k
    assert len(lines) == 1 + 15
    assert proc.stdout.splitlines()[: len(lines)] == lines
    assert not list(tmp_path.glob("hashdiv-toy-*"))
