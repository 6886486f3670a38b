import json
import re

import numpy as np
import pytest

from hashdiv import lsh
from hashdiv.cli import main
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


def test_retrieve_expensive_gate_fails_cleanly(toy_paths, tmp_path, capsys):
    data, queries = toy_paths
    rc = main(["retrieve", "--data", str(data), "--queries", str(queries),
               "--methods", "qprel", "--hashes", "nh", "--ks", "5",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "allow_expensive" in capsys.readouterr().err


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
