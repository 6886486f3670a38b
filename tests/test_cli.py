import argparse
import dataclasses
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
from conftest import edit_index_blob
from hashdiv import cli, experiment, lsh, multilabel
from hashdiv.cli import build_parser, main
from hashdiv.data import load_dense
from hashdiv.experiment import HASHES, METHODS, ML_METHODS, ExperimentConfig, MultilabelConfig


_SRC = Path(__file__).resolve().parent.parent / "src"


def _cli_process(argv, cwd, **env) -> subprocess.CompletedProcess:
    """`python -m hashdiv.cli *argv` run in `cwd`, with this checkout's
    source on PYTHONPATH and `env` added to the environment."""
    return subprocess.run([sys.executable, "-m", "hashdiv.cli", *argv], cwd=cwd, capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": str(_SRC), **env})


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


def test_toy_gen_writes_an_odd_query_count_exactly(tmp_path):
    queries = tmp_path / "queries.csv"
    assert main(["toy-gen", "--out", str(tmp_path / "data.csv"), "--queries-out", str(queries),
                 "--n-per-class", "4", "--n-queries", "5"]) == 0
    assert load_dense(queries).categories.tolist() == [0, 0, 0, 1, 1]


@pytest.mark.parametrize("d", ["0", "-2"])
def test_toy_gen_refuses_a_dimension_below_one(tmp_path, capsys, d):
    out = tmp_path / "data.csv"
    assert main(["toy-gen", "--out", str(out), "--d", d]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: --d must be at least 1, got {d}"]
    assert not out.exists()


@pytest.mark.parametrize("n", ["-1", "-3"])
def test_toy_gen_refuses_a_negative_query_count(tmp_path, capsys, n):
    out, queries = tmp_path / "data.csv", tmp_path / "queries.csv"
    assert main(["toy-gen", "--out", str(out), "--queries-out", str(queries), "--n-queries", n]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: --n-queries must be at least 0, got {n}"]
    assert not out.exists() and not queries.exists()


@pytest.mark.parametrize("n", ["-1", "-3"])
def test_toy_gen_refuses_a_negative_per_class_count(tmp_path, capsys, n):
    out, queries = tmp_path / "data.csv", tmp_path / "queries.csv"
    assert main(["toy-gen", "--out", str(out), "--queries-out", str(queries), "--n-per-class", n]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: --n-per-class must be at least 0, got {n}"]
    assert not out.exists() and not queries.exists()


def test_retrieve_over_duplicate_points(tmp_path):
    # twin rows: the mean pairwise squared distance of a pick set can round below 0
    data, queries, out = tmp_path / "t.csv", tmp_path / "tq.csv", tmp_path / "dup.out.csv"
    assert main(["toy-gen", "--out", str(data), "--queries-out", str(queries),
                 "--n-per-class", "100", "--n-queries", "10"]) == 0
    dup = tmp_path / "dup.csv"
    dup.write_text(data.read_text() * 2)
    assert main(["retrieve", "--data", str(dup), "--queries", str(queries), "--methods", "nn,greedy",
                 "--hashes", "nh,lshdiv", "--ks", "2,5", "--l", "6", "--L", "4", "--no-timing", "--out", str(out)]) == 0
    rows = json.loads(Path(f"{out}.json").read_text())
    assert len(rows) == 8 and all(0.0 <= r["diversity"] <= 1.0 for r in rows)


@pytest.mark.parametrize("draw", [4, 25])
def test_retrieve_over_an_antipodal_pair(tmp_path, draw):
    # v and -v lie 4 apart squared, which the Gram-matrix sum can round past
    rng = np.random.default_rng(0)
    for _ in range(draw):
        v = rng.standard_normal(8)
    data, queries, out = tmp_path / "pm.csv", tmp_path / "pmq.csv", tmp_path / "pm.out.csv"
    data.write_text("".join(f"{c}:0:" + ",".join(map(repr, r.tolist())) + "\n" for c, r in ((0, v), (1, -v))))
    queries.write_text(data.read_text().splitlines()[0] + "\n")
    assert main(["retrieve", "--data", str(data), "--queries", str(queries), "--methods", "nn",
                 "--hashes", "nh", "--ks", "2", "--no-timing", "--out", str(out)]) == 0
    assert [r["diversity"] for r in json.loads(Path(f"{out}.json").read_text())] == [1.0]


def test_index_build_and_query(toy_paths, tmp_path, capsys):
    data, queries = toy_paths
    idx = tmp_path / "index.bin"
    assert main(["index", "build", "--data", str(data), "--kind", "lshdiv",
                 "--l", "10", "--L", "4", "--seed", "1", "--out", str(idx)]) == 0
    stats = re.search(r"into (\d+) non-empty buckets across 4 tables \(bucket size max (\d+), p99 ([\d.]+)\)",
                      capsys.readouterr().err)
    sizes = np.diff(lsh.load_index(idx, load_dense(data)).offsets)
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


@pytest.mark.parametrize("kind, alpha", [("lshsdiv", "4"), ("pcahash", "8")])
def test_index_build_and_query_over_a_pca_kind(toy_paths, tmp_path, kind, alpha):
    data, queries = toy_paths
    idx, out = tmp_path / "index.bin", tmp_path / "cand.jsonl"
    assert main(["index", "build", "--data", str(data), "--kind", kind, "--alpha", alpha, "--l", "6", "--L", "4",
                 "--out", str(idx)]) == 0
    assert main(["index", "query", "--index", str(idx), "--data", str(data), "--queries", str(queries),
                 "--out", str(out)]) == 0
    index = lsh.load_index(idx, load_dense(data))
    assert index.family.kind == kind
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["query_id"] for r in records] == list(range(20))
    assert [r["candidates"] for r in records] == [lsh.query(index, q).ids.tolist() for q in load_dense(queries).vectors]


def test_index_query_cut_index_is_one_error_line(toy_paths, tmp_path, capsys):
    data, queries = toy_paths
    idx, cut, out = tmp_path / "index.bin", tmp_path / "cut.bin", tmp_path / "cut.jsonl"
    assert main(["index", "build", "--data", str(data), "--l", "10", "--L", "4", "--out", str(idx)]) == 0
    blob = idx.read_bytes()
    cut.write_bytes(blob[:200])
    capsys.readouterr()
    assert main(["index", "query", "--index", str(cut), "--data", str(data), "--queries", str(queries),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: index file {cut}: truncated index blob: 200 bytes, its header describes {len(blob)}"
    ]
    assert not out.exists()


def test_index_query_unknown_family_kind_is_one_error_line(toy_paths, tmp_path, capsys):
    data, queries = toy_paths
    idx = tmp_path / "index.bin"
    assert main(["index", "build", "--data", str(data), "--l", "10", "--L", "4", "--out", str(idx)]) == 0
    idx.write_bytes(edit_index_blob(idx.read_bytes(), kind=7))
    capsys.readouterr()
    rc = main(["index", "query", "--index", str(idx), "--data", str(data), "--queries", str(queries)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.splitlines() == [f"error: index file {idx}: corrupt index blob: unknown kind code 7"]


def test_index_query_out_of_range_id_is_one_error_line(toy_paths, tmp_path, capsys):
    # both checksums pass, so only the load's checks on the arrays catch it
    data, queries = toy_paths
    idx = tmp_path / "index.bin"
    assert main(["index", "build", "--data", str(data), "--l", "10", "--L", "4", "--out", str(idx)]) == 0
    blob = idx.read_bytes()
    ids_at = len(blob) - 4 * 4 * 400
    idx.write_bytes(edit_index_blob(blob, blob[lsh._HEADER.size : ids_at] + np.int32(10**6).tobytes() + blob[ids_at + 4 :]))
    capsys.readouterr()
    rc = main(["index", "query", "--index", str(idx), "--data", str(data), "--queries", str(queries)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.splitlines() == [f"error: index file {idx}: corrupt index blob: a point id lies outside [0, 400)"]


def test_index_query_refused_query_file_leaves_no_out_file(toy_paths, tmp_path, capsys):
    # an 8-d index and 3-d queries: the first query is refused before --out
    # is opened; a query file with no points still gets an empty --out
    data, _ = toy_paths
    idx, q3, empty = tmp_path / "index.bin", tmp_path / "q3.csv", tmp_path / "empty.csv"
    assert main(["index", "build", "--data", str(data), "--l", "10", "--L", "4", "--out", str(idx)]) == 0
    assert main(["toy-gen", "--out", str(tmp_path / "d3.csv"), "--queries-out", str(q3), "--n-per-class", "5",
                 "--n-queries", "3", "--d", "3"]) == 0
    empty.write_text("")
    capsys.readouterr()
    out = tmp_path / "q3.jsonl"
    assert main(["index", "query", "--index", str(idx), "--data", str(data), "--queries", str(q3), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: queries file {q3}: query must be a 1-d array of 8 coordinates, got shape (3,)"
    ]
    assert not out.exists()
    out = tmp_path / "empty.jsonl"
    assert main(["index", "query", "--index", str(idx), "--data", str(data), "--queries", str(empty),
                 "--out", str(out)]) == 0
    assert out.read_text() == ""


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


@pytest.mark.parametrize("unlabeled", ["data", "queries"])
def test_retrieve_unlabeled_file_is_one_error_line_naming_it(toy_paths, tmp_path, capsys, unlabeled):
    # refused before any family or index is built, so no progress line either
    files = dict(zip(("data", "queries"), toy_paths))
    path = tmp_path / "unlabeled.csv"
    path.write_text("".join(line.split(":", 2)[2] + "\n" for line in files[unlabeled].read_text().splitlines()))
    files[unlabeled] = path
    out = tmp_path / "o.csv"
    capsys.readouterr()
    assert main(["retrieve", "--data", str(files["data"]), "--queries", str(files["queries"]), "--hashes", "lshsdiv",
                 "--l", "6", "--L", "4", "--out", str(out)]) == 1
    cause = {"data": f"data file {path}: dataset has no category labels",
             "queries": f"queries file {path}: query has no category label"}[unlabeled]
    assert capsys.readouterr().err.splitlines() == [f"error: {cause}; precision is undefined"]
    assert not out.exists() and not Path(f"{out}.json").exists()


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


def test_index_build_tag_overflow_is_one_error_line(toy_paths, tmp_path, capsys):
    data, _ = toy_paths
    idx = tmp_path / "index.bin"
    capsys.readouterr()
    rc = main(["index", "build", "--data", str(data), "--l", "64", "--L", "2", "--out", str(idx)])
    assert rc == 1 and not idx.exists()
    assert capsys.readouterr().err.splitlines() == [
        "error: l=64 and L=2 do not fit one index: a tagged key holds the 64 key bits and a 1-bit table number, 65 > 64 bits"
    ]


@pytest.mark.parametrize("seed", ["-1", "9223372036854775808"])
def test_seed_outside_the_blob_field_is_one_error_line(toy_paths, tmp_path, capsys, seed):
    # 2**63 once built the whole index and died packing the header
    data, _ = toy_paths
    idx = tmp_path / "index.bin"
    capsys.readouterr()
    assert main(["index", "build", "--data", str(data), "--l", "10", "--L", "4", "--seed", seed, "--out", str(idx)]) == 1
    assert not idx.exists()
    assert main(["tune", "--data", str(data), "--seed", seed]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: seed={seed} is not an integer in [0, 2**63)"] * 2


@pytest.mark.parametrize("verb", ["toy-gen", "multilabel", "retrieve"])
def test_negative_seed_is_one_error_line_on_every_verb(toy_paths, tmp_path, capsys, verb):
    data, queries = toy_paths
    new_queries, out = tmp_path / "new-queries.csv", tmp_path / "out.csv"
    args = {
        "toy-gen": ["--queries-out", str(new_queries)],
        "multilabel": ["--synthetic", "--n-labels", "50", "--n-queries", "5"],
        # over nh alone the seed once reached no family, and the grid ran
        "retrieve": ["--data", str(data), "--queries", str(queries), "--hashes", "nh"],
    }[verb]
    capsys.readouterr()
    assert main([verb, *args, "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: seed=-1 is not an integer in [0, 2**63)"]
    assert not out.exists() and not Path(f"{out}.json").exists() and not new_queries.exists()


def test_toy_gen_largest_seed_draws_its_queries_with_seed_zero(tmp_path):
    # the queries take the next seed, which wraps past the seed range
    data, queries, zero = tmp_path / "data.csv", tmp_path / "queries.csv", tmp_path / "zero.csv"
    assert main(["toy-gen", "--out", str(data), "--queries-out", str(queries), "--n-per-class", "10",
                 "--n-queries", "4", "--seed", str(2**63 - 1)]) == 0
    assert main(["toy-gen", "--out", str(zero), "--n-per-class", "2", "--seed", "0"]) == 0
    assert queries.read_text() == zero.read_text()


def test_multilabel_synthetic_d_below_twice_the_rank_is_one_error_line(tmp_path, capsys):
    # d=3 once ran silently at d=40
    out = tmp_path / "ml.csv"
    assert main(["multilabel", "--synthetic", "--d", "3", "--rank", "20", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: synthetic d=3 must be at least 2 * rank, 40 for rank=20"]
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--n-labels", "0"), ("--rank", "0"), ("--rank", "-2"), ("--n-queries", "-3")])
def test_multilabel_count_below_one_is_one_error_line(tmp_path, capsys, flag, value):
    out = tmp_path / "r.csv"
    assert main(["multilabel", "--synthetic", "--n-queries", "5", "--methods", "exact", flag, value, "--out", str(out)]) == 1
    name = flag[2:].replace("-", "_")
    assert capsys.readouterr().err.splitlines() == [f"error: {name} must be >= 1, got {value}"]
    assert not out.exists() and not Path(f"{out}.json").exists()


@pytest.mark.parametrize("mode, ridge, shown", [
    ("synthetic", "-1", "-1.0"), ("synthetic", "inf", "inf"), ("libsvm", "nan", "nan"), ("libsvm", "0", "0.0"),
])
def test_multilabel_ridge_not_finite_and_positive_is_one_error_line(tmp_path, capsys, mode, ridge, shown):
    # -1 once ran and wrote a row; nan once stopped in the fit's eigensolver
    out = tmp_path / "r.csv"
    if mode == "synthetic":
        given = ["--synthetic", "--n-labels", "50", "--n-queries", "5"]
    else:
        _write_docs(tmp_path / "docs.svm")
        given = ["--data", str(tmp_path / "docs.svm"), "--d", "6", "--rank", "2", "--alpha", "1", "--pool", "2"]
    assert main(["multilabel", *given, "--methods", "exact", "--ridge", ridge, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: ridge must be finite and > 0, got {shown}"]
    assert not out.exists() and not Path(f"{out}.json").exists()


@pytest.mark.parametrize("text, found", [("1 0\n2 5\n", "[0, 5]"), ("1 0\n0 1\n2 1\n", "[]")])
def test_multilabel_hierarchy_without_one_root_refused_before_any_index(tmp_path, capsys, monkeypatch, text, found):
    # two roots, then a lone candidate root that lies on a cycle
    hierarchy, out = tmp_path / "h.txt", tmp_path / "ml.csv"
    hierarchy.write_text(text)
    built = []
    monkeypatch.setattr(multilabel, "build_label_index", lambda *args, **kwargs: built.append(args))
    rc = main(["multilabel", "--synthetic", "--n-labels", "50", "--n-queries", "5", "--methods", "exact,lshsdiv",
               "--hierarchy", str(hierarchy), "--out", str(out)])
    assert rc == 1 and built == []
    assert capsys.readouterr().err.splitlines() == [f"error: hierarchy {hierarchy}: must have exactly one root, found {found}"]
    assert not out.exists()


@pytest.mark.parametrize("mode", ["synthetic", "libsvm"])
@pytest.mark.parametrize("text", [None, "1 0\n2 5\n"], ids=["missing", "two-roots"])
def test_multilabel_hierarchy_refused_before_the_model(tmp_path, capsys, monkeypatch, mode, text):
    # a missing or two-root file is refused before the planted model is made
    # or the factors are fitted, as none of its errors depend on the model
    hierarchy, out = tmp_path / "h.txt", tmp_path / "ml.csv"
    if text is not None:
        hierarchy.write_text(text)
    made = []
    monkeypatch.setattr(experiment, "make_planted", lambda *args, **kwargs: made.append(args))
    monkeypatch.setattr(multilabel, "fit_lowrank_ridge", lambda *args, **kwargs: made.append(args))
    if mode == "synthetic":
        given = ["--synthetic", "--n-labels", "50", "--n-queries", "5"]
    else:
        _write_docs(tmp_path / "docs.svm")
        given = ["--data", str(tmp_path / "docs.svm"), "--d", "6", "--rank", "2", "--alpha", "1", "--pool", "2"]
    rc = main(["multilabel", *given, "--methods", "exact", "--hierarchy", str(hierarchy), "--out", str(out)])
    assert rc == 1 and made == []
    err = capsys.readouterr().err.splitlines()
    if text is None:
        assert len(err) == 1 and err[0].startswith("error: [Errno 2] No such file or directory") and str(hierarchy) in err[0]
    else:
        assert err == [f"error: hierarchy {hierarchy}: must have exactly one root, found [0, 5]"]
    assert not out.exists() and not Path(f"{out}.json").exists()


@pytest.mark.parametrize("mode, clusters, tree_labels, cause", [
    ("synthetic", 2, 40, "label 40 is not in the hierarchy tree"),
    ("synthetic", 1, 50, "tree diversity undefined with 1 top-level categories"),
    ("libsvm", 2, 1, "label 1 is not in the hierarchy tree"),
])
def test_multilabel_hierarchy_that_cannot_score_every_label_refused_before_any_index(
        tmp_path, capsys, monkeypatch, mode, clusters, tree_labels, cause):
    # `clusters` top-level categories under root 999999, labels 0..tree_labels-1 spread over them
    hierarchy, out = tmp_path / "t.txt", tmp_path / "ml.csv"
    hierarchy.write_text("".join([f"{1000 + c} 999999\n" for c in range(clusters)]
                                 + [f"{i} {1000 + i % clusters}\n" for i in range(tree_labels)]))
    built = []
    monkeypatch.setattr(multilabel, "build_label_index", lambda *args, **kwargs: built.append(args))
    if mode == "synthetic":
        given = ["--synthetic", "--n-labels", "50", "--n-queries", "5", "--l", "4", "--L", "2"]
    else:  # labels 0 and 1
        _write_docs(tmp_path / "docs.svm")
        given = ["--data", str(tmp_path / "docs.svm"), "--d", "6", "--rank", "2", "--alpha", "1", "--pool", "2"]
    rc = main(["multilabel", *given, "--methods", "exact,lshsdiv", "--hierarchy", str(hierarchy), "--out", str(out)])
    assert rc == 1 and built == []
    assert capsys.readouterr().err.splitlines() == [f"error: hierarchy {hierarchy}: {cause}"]
    assert not out.exists() and not Path(f"{out}.json").exists()


def test_retrieve_tag_overflow_fails_before_any_cell(toy_paths, tmp_path, capsys):
    data, queries = toy_paths
    out = tmp_path / "o.csv"
    rc = main(["retrieve", "--data", str(data), "--queries", str(queries),
               "--hashes", "nh,lshdiv", "--l", "64", "--L", "2", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: l=64 and L=2 do not fit one index" in err
    assert "[cell]" not in err
    assert not out.exists()


def test_index_build_basis_captures_the_top_energy(tmp_path, capsys):
    # 4 of 16 toy dimensions: past the first, the noise directions have
    # nearly equal singular values, where an iterative solver stalls
    data, idx = tmp_path / "data.csv", tmp_path / "index.bin"
    assert main(["toy-gen", "--out", str(data), "--d", "16", "--n-per-class", "200"]) == 0
    capsys.readouterr()
    assert main(["index", "build", "--data", str(data), "--kind", "pcahash", "--alpha", "4", "--l", "4", "--L", "3",
                 "--out", str(idx)]) == 0
    assert "SVD" not in capsys.readouterr().err
    dataset = load_dense(data)
    U = lsh.load_index(idx, dataset).family.basis.U
    s = np.linalg.svd(dataset.vectors, compute_uv=False)
    energy = np.sum((dataset.vectors @ U) ** 2)
    assert abs(energy - np.sum(s[:4] ** 2)) <= 1e-12 * s[0] ** 2


def test_tune_outputs_json(toy_paths, capsys, monkeypatch):
    data, _ = toy_paths
    assert main(["tune", "--data", str(data), "--target-recall", "0.8", "--seed", "0"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert {"l", "L", "feasible", "recall"} <= set(payload)
    assert payload["feasible"] and captured.err == ""
    # no pair reaches the target: the best-recall pair, with a warning
    best = lsh.TuneResult(l=8, L=1, feasible=False, recall=0.5, mean_candidates=3.0, expected_touched=3.0)
    monkeypatch.setattr(lsh, "tune", lambda *args, **kwargs: best)
    assert main(["tune", "--data", str(data)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == dataclasses.asdict(best)
    assert captured.err.splitlines() == ["warning: no (l, L) pair reached the target recall; best effort returned"]


def test_tune_nan_epsilon_is_one_error_line(toy_paths, capsys):
    data, _ = toy_paths
    capsys.readouterr()
    assert main(["tune", "--data", str(data), "--epsilon", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == ["error: epsilon must be positive, got nan"]


def test_multilabel_synthetic(tmp_path):
    out = tmp_path / "ml.csv"
    rc = main(["multilabel", "--synthetic", "--n-labels", "300", "--n-queries", "15",
               "--rank", "6", "--methods", "exact,lshdiv", "--alpha", "4", "--pool", "8",
               "--l", "10", "--L", "6", "--seed", "4", "--no-timing", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("method,alpha,precision")
    assert len(lines) == 3


def test_bad_input_reports_error(tmp_path, capsys, monkeypatch):
    rc = main(["retrieve", "--data", str(tmp_path / "missing.csv"),
               "--queries", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    # a data file with no points is refused by name before any family, index or tune
    for module, name in ((cli, "new_family"), (lsh, "load_index"), (lsh, "tune")):
        monkeypatch.setattr(module, name, lambda *args, **kwargs: pytest.fail("ran past an empty data file"))
    empty, out = tmp_path / "empty.csv", tmp_path / "e.bin"
    empty.write_text("")
    for argv in (["index", "build", "--data", str(empty), "--out", str(out)],
                 ["index", "query", "--index", str(out), "--data", str(empty), "--queries", str(empty)],
                 ["tune", "--data", str(empty)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [f"error: {empty} holds no points"]
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    ("toy-gen --out o.csv --queries-out {}", "--queries-out"),
    ("index build --data data.csv --out {}", "--out"),
    ("index query --index index.bin --data data.csv --queries queries.csv --out {}", "--out"),
    ("retrieve --data data.csv --queries queries.csv --out {}", "--out"),
    ("retrieve --config c.json", "--out"),
    ("multilabel --synthetic --predictions-json p.json --out {}", "--out"),
    ("multilabel --synthetic --predictions-json {} --out o.csv", "--predictions-json"),
], ids=["toy-gen", "index-build", "index-query", "retrieve", "retrieve-config", "multilabel", "multilabel-predictions"])
def test_output_in_a_missing_directory_refused_before_any_input_is_read(toy_paths, tmp_path, capsys, monkeypatch,
                                                                         argv, flag):
    # toy-gen once wrote --out and multilabel --predictions-json before the
    # refusal, and retrieve ran its whole grid first
    monkeypatch.chdir(tmp_path)
    missing = os.path.join("no-such-dir", "x.out")
    assert main(["index", "build", "--data", "data.csv", "--l", "10", "--L", "4", "--out", "index.bin"]) == 0
    Path("c.json").write_text(json.dumps({"data": "data.csv", "queries": "queries.csv", "out": missing}))
    before = sorted(tmp_path.iterdir())
    for module, name in ((cli, "load_dense"), (cli, "make_toy"), (experiment, "load_dense"), (experiment, "make_planted")):
        monkeypatch.setattr(module, name, lambda *args, **kwargs: pytest.fail("read an input before refusing an output"))
    capsys.readouterr()
    assert main(argv.format(missing).split()) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {flag} {missing}: directory no-such-dir does not exist"]
    assert sorted(tmp_path.iterdir()) == before


def _write_docs(path):
    """40 two-label LIBSVM documents over features 1-6."""
    rng = np.random.default_rng(0)
    docs = [f"{i % 2} " + " ".join(f"{3 * (i % 2) + j + 1}:{v:.4f}" for j, v in enumerate(rng.uniform(0.2, 1, 3)))
            for i in range(40)]
    path.write_text("\n".join(docs) + "\n")


def test_multilabel_empty_test_file_is_an_error(tmp_path, capsys, monkeypatch):
    # refused by name before the model is fitted; an empty --data file too
    docs, empty, out = tmp_path / "docs.svm", tmp_path / "empty.svm", tmp_path / "m.csv"
    _write_docs(docs)
    empty.write_text("")
    monkeypatch.setattr(multilabel, "fit_lowrank_ridge", lambda *args: pytest.fail("fitted past an empty file"))
    for data, test in ((docs, empty), (empty, docs)):
        rc = main(["multilabel", "--data", str(data), "--d", "6", "--test", str(test),
                   "--rank", "2", "--methods", "exact", "--alpha", "1", "--pool", "2", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {empty} holds no points"]
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
    factors = tmp_path / "f.bin"
    factors.write_bytes((b"HDVM" + bytes(24))[:size])
    rc = main(["multilabel", "--data", str(tmp_path / "docs.svm"), "--d", "6", "--factors", str(factors),
               "--out", str(tmp_path / "m.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error" in line] == [
        f"error: factors file {factors}: truncated factor file: {size} bytes, the header alone is 28"
    ]


def test_multilabel_rank_the_data_cannot_support_names_the_file(tmp_path, capsys):
    # the default rank 20, over 6 features and the labels 0 and 1
    docs, out = tmp_path / "docs.svm", tmp_path / "m.csv"
    _write_docs(docs)
    rc = main(["multilabel", "--data", str(docs), "--d", "6", "--methods", "exact", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: data file {docs}: rank k=20 out of range [1, 2] for 6 features and 2 labels"
    ]
    assert not out.exists() and not Path(f"{out}.json").exists()


@pytest.mark.parametrize("n, with_test, part", [(1, False, "validation"), (2, False, "training"), (1, True, "training")])
def test_multilabel_too_few_documents_refused_before_any_fit(tmp_path, capsys, monkeypatch, n, with_test, part):
    # one or two documents once ran a model fitted on none, or stopped
    # after the fit with an error that named neither file nor cause
    docs, small, out = tmp_path / "docs.svm", tmp_path / "small.svm", tmp_path / "m.csv"
    _write_docs(docs)
    small.write_text("".join(docs.read_text().splitlines(keepends=True)[:n]))
    for module, name in ((multilabel, "fit_lowrank_ridge"), (multilabel, "build_label_index"), (cli, "emit")):
        monkeypatch.setattr(module, name, lambda *args, **kwargs: pytest.fail("ran past a file of too few documents"))
    given = ["--test", str(docs)] if with_test else []
    rc = main(["multilabel", "--data", str(small), "--d", "6", *given, "--rank", "1", "--methods", "exact,lshdiv",
               "--alpha", "1", "--pool", "2", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: data file {small} has too few documents ({n}) to leave any for {part}"
    ]
    assert not out.exists()


def test_multilabel_test_file_leaves_every_data_document_to_fit_and_validate(tmp_path, monkeypatch):
    # with --test, the 40 documents of --data were once cut as if no test
    # file were given, and the test fifth was neither fitted nor validated on
    docs, test = tmp_path / "docs.svm", tmp_path / "test.svm"
    _write_docs(docs)
    test.write_text("0 1:0.5 2:0.5\n1 4:0.3 5:0.9\n")
    fit, choose = multilabel.fit_lowrank_ridge, experiment._choose_cutoff
    fitted, validated = [], []
    monkeypatch.setattr(multilabel, "fit_lowrank_ridge", lambda X, *args: fitted.append(len(X)) or fit(X, *args))
    monkeypatch.setattr(experiment, "_choose_cutoff",
                        lambda preds, *args: validated.append(len(preds)) or choose(preds, *args))
    rc = main(["multilabel", "--data", str(docs), "--d", "6", "--test", str(test), "--rank", "2", "--methods", "exact",
               "--alpha", "1", "--pool", "2", "--no-timing", "--out", str(tmp_path / "m.csv")])
    assert rc == 0
    assert (fitted, validated) == ([32], [8])


def test_multilabel_factors_of_another_dimension_refused_before_any_index(tmp_path, capsys, monkeypatch):
    _write_docs(tmp_path / "docs.svm")
    rng = np.random.default_rng(1)
    factors = tmp_path / "m.bin"
    multilabel.save_factors(multilabel.FactorModel(W=rng.standard_normal((2, 2)), H=rng.standard_normal((5, 2))), factors)
    built = []
    monkeypatch.setattr(multilabel, "build_label_index", lambda *args, **kwargs: built.append(args))
    rc = main(["multilabel", "--data", str(tmp_path / "docs.svm"), "--d", "7", "--factors", str(factors),
               "--rank", "2", "--methods", "exact,lshsdiv", "--alpha", "1", "--pool", "2", "--out", str(tmp_path / "m.csv")])
    assert rc == 1 and built == []
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error" in line] == [
        f"error: factors file {factors} has 5 features, the data 7"
    ]


@pytest.mark.parametrize("argv, cause", [
    (["retrieve", "--queries", "q.csv", "--out", "x.csv"], "missing required config keys: ['data']"),
    (["multilabel", "--synthetic"], "missing required config keys: ['out']"),
    (["retrieve", "--config", "list.json"], "must be a JSON object of fields, got list"),
    (["retrieve", "--config", "bad.json"], "error: bad.json:1: Expecting property name enclosed in double quotes"),
])
def test_bad_config_reports_error_not_traceback(tmp_path, argv, cause):
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "bad.json").write_text("{bad\n")
    proc = _cli_process(argv, tmp_path)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error:") and cause in proc.stderr
    assert "Traceback" not in proc.stderr
    assert sorted(path.name for path in tmp_path.iterdir()) == ["bad.json", "list.json"]


def test_index_query_into_a_pipe_closed_early_is_no_error(tmp_path):
    data, queries, index = tmp_path / "data.csv", tmp_path / "queries.csv", tmp_path / "i.bin"
    # a few hundred queries of about 2 KB of candidates each: more than the
    # 64 KiB pipe buffer, so the query is still writing when the pipe closes
    assert main(["toy-gen", "--out", str(data), "--queries-out", str(queries), "--n-per-class", "500",
                 "--n-queries", "300"]) == 0
    assert main(["index", "build", "--data", str(data), "--l", "4", "--L", "4", "--out", str(index)]) == 0
    with subprocess.Popen(
        [sys.executable, "-m", "hashdiv.cli", "index", "query", "--index", str(index), "--data", str(data),
         "--queries", str(queries)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(_SRC)},
    ) as proc:
        assert proc.stdout.readline().startswith(b'{"query_id": 0,')
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""


@pytest.mark.parametrize("key, value", [("ks", "25"), ("ks", 10), ("methods", "nn")])
def test_config_list_field_given_as_a_scalar_is_one_error_line(tmp_path, capsys, key, value):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"data": "d.csv", "queries": "q.csv", "out": "o.csv", key: value}))
    assert main(["retrieve", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: config field {key!r} must be a list, got {type(value).__name__} {value!r}"]


@pytest.mark.parametrize("command, values, message", [
    ("retrieve", {"ks": [2.5, True]}, "config field 'ks' must be a list of int, got float 2.5 in it"),
    ("retrieve", {"l": "16"}, "config field 'l' must be int, got str '16'"),
    ("multilabel", {"alpha": "10"}, "config field 'alpha' must be int, got str '10'"),
])
def test_config_field_of_the_wrong_type_is_one_error_line(tmp_path, capsys, command, values, message):
    required = {"retrieve": {"data": "d.csv", "queries": "q.csv", "out": "o.csv"},
                "multilabel": {"out": "o.csv", "synthetic": True}}[command]
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**required, **values}))
    assert main([command, "--config", str(config)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


_REGISTRIES = {("retrieve", "methods"): METHODS, ("retrieve", "hashes"): HASHES, ("multilabel", "methods"): ML_METHODS}


def _list_refusal(key, names, items) -> str:
    """The message that refuses `items` as config field `key`."""
    if not items:
        return f"config field {key!r} must be a nonempty list"
    bad = items[-1]
    expected = "names from " + ",".join(names) if names else "int"
    return f"config field {key!r} must be a list of {expected}, got {type(bad).__name__} {bad!r} in it"


@pytest.mark.parametrize("command, key", [*_REGISTRIES, ("retrieve", "ks")])
@pytest.mark.parametrize("item, text", [(None, ","), ("bogus", "bogus"), (True, "True")])
def test_list_field_refusal_is_one_error_line_naming_the_field(tmp_path, capsys, command, key, item, text):
    cls, required = {"retrieve": (ExperimentConfig, ["--data", "d.csv", "--queries", "q.csv"]),
                     "multilabel": (MultilabelConfig, ["--synthetic"])}[command]
    names = _REGISTRIES.get((command, key))
    items = [] if item is None else [names[0] if names else 5, item]
    values = {"data": "d.csv", "queries": "q.csv"} if command == "retrieve" else {"synthetic": True}
    with pytest.raises(ValueError, match=f"^{re.escape(_list_refusal(key, names, items))}$"):
        cls.from_dict({**values, "out": "o.csv", key: items})

    # the flag takes a comma list of text, so True arrives as the text 'True'
    out = tmp_path / "o.csv"
    assert main([command, *required, f"--{key}", text, "--out", str(out)]) == 1
    message = _list_refusal(key, names, [] if item is None else [text])
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists() and not Path(f"{out}.json").exists()


_REQUIRED = {"retrieve": {"data": "d.csv", "queries": "q.csv"}, "multilabel": {"synthetic": True}}


def _flag(key: str) -> str:
    return "--" + ("lambda" if key == "lam" else key.replace("_", "-"))


def _flags(values: dict) -> list:
    """The command line that gives the config fields `values`: True is a
    bare flag, a list a comma list."""
    argv = []
    for key, value in values.items():
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        argv += [_flag(key)] if value is True else [_flag(key), text]
    return argv


@pytest.mark.parametrize("command, key, text, value", [
    ("retrieve", "ks", "5,true", [5, "true"]),
    ("retrieve", "l", "x", "x"),
    ("retrieve", "lam", "x", "x"),
    ("retrieve", "alpha", "4.5", "4.5"),
    ("multilabel", "rank", "x", "x"),
    ("multilabel", "pool", "x", "x"),
    ("multilabel", "d", "2.0", "2.0"),
])
def test_flag_value_refused_in_the_words_of_the_config_file(tmp_path, capsys, command, key, text, value):
    # a derived flag hands a value its type cannot read to the configs' one
    # type rule, so the flag and the same value in --config give one line
    out = tmp_path / "o.csv"
    required = {**_REQUIRED[command], "out": str(out)}
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**required, key: value}))
    assert main([command, "--config", str(config)]) == 1
    from_file = capsys.readouterr().err.splitlines()
    assert len(from_file) == 1 and from_file[0].startswith(f"error: config field {key!r} must be ")
    assert main([command, *_flags(required), _flag(key), text]) == 1
    assert capsys.readouterr().err.splitlines() == from_file
    assert not out.exists() and not Path(f"{out}.json").exists()


@pytest.mark.parametrize("command, values", [
    ("retrieve", {"data": "d.csv", "queries": "q.csv", "methods": ["nn", "qprel"], "hashes": ["nh"], "ks": [5, 10],
                  "lam": 1, "l": 12, "L": 3, "alpha": 4, "seed": 7}),
    ("multilabel", {"data": "x.svm", "d": 40, "test": "t.svm", "factors": "f.bin", "hierarchy": "h.txt",
                    "n_labels": 300, "n_queries": 6, "rank": 5, "ridge": 0.5, "methods": ["exact"], "alpha": 3,
                    "pool": 9, "lam": 0.25, "l": 10, "L": 2, "seed": 1, "predictions_json": "p.json"}),
])
def test_every_derived_flag_parses_to_the_config_of_the_file(command, values):
    # one valid value for every non-bool field, as flags and as a config
    cls = {"retrieve": ExperimentConfig, "multilabel": MultilabelConfig}[command]
    values = {"out": "o.csv", **values}
    assert set(values) == {f.name for f in dataclasses.fields(cls) if f.type != "bool"}
    args = vars(build_parser().parse_args([command, *_flags(values)]))
    assert cls.from_dict({}, **{k: args[k] for k in values}) == cls.from_dict(values)


@pytest.mark.parametrize("command, key", list(_REGISTRIES))
def test_name_list_flag_help_lists_exactly_the_registry(monkeypatch, command, key):
    monkeypatch.setenv("COLUMNS", "200")
    verbs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    help_text = verbs.choices[command].format_help()
    lines = [line.split() for line in help_text.splitlines() if line.strip().startswith(f"--{key} ")]
    assert lines == [[f"--{key}", key.upper(), "comma", "list", "from:", ",".join(_REGISTRIES[command, key])]]


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
              "--l": "l", "--L": "L", "--alpha": "alpha", "--seed": "seed", "--no-timing": "timing"}
    assert _surface(build_parser()) == {
        "toy-gen": {"--out": "out", "--queries-out": "queries_out", "--n-per-class": "n_per_class",
                    "--n-queries": "n_queries", "--d": "d", "--spread": "spread", "--seed": "seed"},
        "index build": {"--data": "data", "--kind": "kind", "--l": "l", "--L": "L", "--alpha": "alpha",
                        "--seed": "seed", "--out": "out"},
        "index query": {"--index": "index", "--data": "data", "--queries": "queries", "--out": "out"},
        "retrieve": {**shared, "--queries": "queries", "--hashes": "hashes", "--ks": "ks"},
        "multilabel": {**shared, "--d": "d", "--test": "test", "--factors": "factors", "--hierarchy": "hierarchy",
                       "--synthetic": "synthetic", "--n-labels": "n_labels", "--n-queries": "n_queries",
                       "--rank": "rank", "--ridge": "ridge", "--pool": "pool", "--predictions-json": "predictions_json"},
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
        "FactorModel", "PLAIN", "SelectionProblem", "build", "build_label_index", "h_score", "hash_matrix",
        "mean_pairwise_distance", "new_family", "precision_at_k", "predict_diverse", "predict_exact",
        "qp_relax_solve", "query", "select_greedy_div", "select_mmr", "select_nn", "select_qp_rel", "select_rerank",
        "tune",
    }


def test_import_loads_no_scipy():
    code = "import sys, hashdiv, hashdiv.cli, hashdiv.experiment; print(sorted(m for m in sys.modules if 'scipy' in m))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(_SRC)})
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


def test_outputs_byte_identical_across_processes(tmp_path):
    # two interpreters with different string hashing must write the same
    # bytes: no output may depend on set or dict order keyed on str hashes
    assert main(["toy-gen", "--out", str(tmp_path / "t.csv"), "--n-per-class", "100"]) == 0
    (tmp_path / "dup.csv").write_text((tmp_path / "t.csv").read_text() * 2)
    _write_docs(tmp_path / "docs.svm")
    (tmp_path / "test.svm").write_text("0 1:0.5 2:0.5\n1 4:0.3 5:0.9\n0 2:0.7 3:0.1\n1 5:0.3 6:0.9\n")
    # 10 clusters under one root over 500 labels
    (tmp_path / "tree.txt").write_text("".join([f"{c} 999999\n" for c in range(1000, 1010)]
                                               + [f"{i} {1000 + i % 10}\n" for i in range(500)]))
    libsvm = ["multilabel", "--data", "../docs.svm", "--d", "6", "--methods", "exact,mmr,lshdiv", "--pool", "4",
              "--alpha", "2", "--rank", "2", "--l", "4", "--L", "2", "--no-timing"]
    runs = (
        ["toy-gen", "--out", "data.csv", "--queries-out", "queries.csv", "--n-per-class", "100", "--n-queries", "8",
         "--d", "16"],
        ["retrieve", "--data", "data.csv", "--queries", "queries.csv", "--out", "r.csv", "--no-timing", "--ks", "5,10",
         "--methods", "nn,rerank,greedy,mmr,qprel", "--hashes", "nh,lshdiv,lshsdiv,pcahash", "--l", "10", "--L", "6"],
        ["multilabel", "--synthetic", "--n-labels", "500", "--n-queries", "10", "--no-timing", "--out", "m.csv",
         "--methods", "exact,mmr,lshdiv,lshsdiv,pcahash", "--predictions-json", "p.json"],
        ["tune", "--data", "../dup.csv"],  # every point twice
        [*libsvm, "--out", "svm.csv"],
        [*libsvm, "--test", "../test.svm", "--out", "st.csv"],
        ["multilabel", "--synthetic", "--n-labels", "500", "--n-queries", "20", "--methods", "exact,mmr,lshsdiv",
         "--l", "8", "--L", "4", "--hierarchy", "../tree.txt", "--no-timing", "--out", "tree.csv"],
    )

    def outputs(hash_seed):
        cwd = tmp_path / f"hashseed{hash_seed}"
        cwd.mkdir()
        stdout = []
        for argv in runs:
            proc = _cli_process(argv, cwd, PYTHONHASHSEED=str(hash_seed))
            assert proc.returncode == 0, proc.stderr
            stdout.append(proc.stdout)
        return stdout, {path.name: path.read_bytes() for path in cwd.iterdir()}

    first = outputs(1)
    assert [bool(text) for text in first[0]] == [False, False, False, True, False, False, False]
    assert sorted(first[1]) == ["data.csv", "m.csv", "m.csv.json", "p.json", "queries.csv", "r.csv", "r.csv.json",
                                "st.csv", "st.csv.json", "svm.csv", "svm.csv.json", "tree.csv", "tree.csv.json"]
    assert outputs(2) == first
