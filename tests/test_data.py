import math
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from hashdiv.data import (
    Dataset,
    ParseError,
    ToyConfig,
    load_dense,
    load_sparse,
    make_toy,
    normalize_rows,
    save_dense,
)


def test_load_dense_single_row(tmp_path):
    p = tmp_path / "one.csv"
    p.write_text("1,0,0\n")
    ds = load_dense(p)
    assert ds.n == 1 and ds.d == 3
    assert np.isclose(np.linalg.norm(ds.vectors[0]), 1.0)
    assert ds.categories is None


def test_load_dense_normalizes(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("3,4\n")
    ds = load_dense(p)
    np.testing.assert_allclose(ds.vectors[0], [0.6, 0.8])


@pytest.mark.parametrize("row", [[1e200, 1e200], [1e-200, 0.0], [-1e308, 1e308], [0.0, 5e-324]])
def test_rows_near_the_float_limits_normalize_to_unit_vectors(tmp_path, row):
    # the plain norm of each of these finite rows over- or underflows
    want = np.asarray(row) / np.max(np.abs(row))
    want /= np.linalg.norm(want)
    rows = np.array([[1.0, 0.0], row])
    (tmp_path / "x.csv").write_text("\n".join(",".join(repr(v) for v in r) for r in rows.tolist()) + "\n")
    features = " ".join(f"{i + 1}:{v!r}" for i, v in enumerate(row) if v)
    (tmp_path / "x.svm").write_text(f"0 1:1.0\n1 {features}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outs = (normalize_rows(rows), load_dense(tmp_path / "x.csv").vectors,
                load_sparse(tmp_path / "x.svm", d=2).vectors)
    for out in outs:
        assert np.array_equal(out, [[1.0, 0.0], want])
        assert abs(np.linalg.norm(out[1]) - 1.0) < 1e-15


def test_ordinary_rows_keep_the_plain_arithmetic(tmp_path):
    centers = ((1.0,) + (0.0,) * 7, (-1.0,) + (0.0,) * 7)
    path, svm = tmp_path / "toy.csv", tmp_path / "toy.svm"
    raw = make_toy(ToyConfig(n_per_class=100, class_centers=centers, spread=0.25, seed=3)).vectors
    raw[::7, 3] = 0.0  # LIBSVM rows with absent features
    svm.write_text("".join("0 " + " ".join(f"{i + 1}:{v!r}" for i, v in enumerate(r) if v) + "\n"
                           for r in raw.tolist()))
    path.write_text("".join(",".join(repr(v) for v in r) + "\n" for r in raw.tolist()))
    # both loaders normalize the whole file by the one rule, normalize_rows
    for vectors in (load_dense(path).vectors, load_sparse(svm, d=8).vectors):
        assert np.array_equal(vectors, normalize_rows(raw))
    assert np.array_equal(normalize_rows(raw), raw / np.linalg.norm(raw, axis=1)[:, None])
    # a zero row stays zero
    out = normalize_rows(np.vstack([raw[:2], np.zeros(8)]))
    assert np.array_equal(out[:2], normalize_rows(raw[:2])) and not out[2].any()


def test_load_dense_zero_vector_rejected(tmp_path):
    p = tmp_path / "z.csv"
    p.write_text("1,1\n0,0\n")
    with pytest.raises(ParseError, match="zero vector") as exc:
        load_dense(p)
    assert exc.value.line_no == 2


def test_load_dense_ragged_row_reports_line(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("1,0\n1,0,0\n")
    with pytest.raises(ParseError, match="ragged"):
        load_dense(p)


def test_load_dense_label_prefix(tmp_path):
    p = tmp_path / "lab.csv"
    p.write_text("2:5:1,0\n0:1:0,1\n")
    ds = load_dense(p)
    assert ds.categories.tolist() == [2, 0]
    assert ds.subtopics.tolist() == [5, 1]


def test_load_dense_crlf(tmp_path):
    p = tmp_path / "crlf.csv"
    p.write_bytes(b"1,0\r\n0,1\r\n")
    assert load_dense(p).n == 2


def test_dense_roundtrip(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("0:1:0.3,0.4,0.5\n1:0:-1,2,0.25\n")
    ds = load_dense(p)
    q = tmp_path / "b.csv"
    save_dense(ds, q)
    ds2 = load_dense(q)
    np.testing.assert_allclose(ds2.vectors, ds.vectors, atol=1e-12, rtol=0)
    assert ds2.categories.tolist() == ds.categories.tolist()


def test_load_sparse_format(tmp_path):
    p = tmp_path / "s.svm"
    p.write_text("1,5 3:0.5 7:1.2\n")
    ds = load_sparse(p, d=10)
    assert ds.label_sets[0] == frozenset({1, 5})
    assert isinstance(ds.vectors, np.ndarray) and ds.vectors.shape == (1, 10)
    row = ds.vectors[0]
    assert np.flatnonzero(row).tolist() == [2, 6] and row[[2, 6]].tolist() == [0.5 / 1.3, 1.2 / 1.3]


def test_load_sparse_unit_basis(tmp_path):
    p = tmp_path / "e.svm"
    p.write_text("2 1:1.0\n")
    ds = load_sparse(p, d=4)
    np.testing.assert_allclose(ds.vectors[0], [1, 0, 0, 0])


def test_load_sparse_index_out_of_range(tmp_path):
    p = tmp_path / "bad.svm"
    p.write_text("2 5:1.0\n")
    with pytest.raises(ParseError, match="index out of range"):
        load_sparse(p, d=4)


def test_load_sparse_negative_label_rejected(tmp_path):
    # a negative id would index the label matrix from its end
    p = tmp_path / "neg.svm"
    p.write_text("1 1:1.0\n-3,1 1:0.5 2:0.5\n")
    with pytest.raises(ParseError, match=r"neg\.svm:2: negative label id in '-3,1'"):
        load_sparse(p, d=3)


def test_load_sparse_non_monotone(tmp_path):
    p = tmp_path / "mono.svm"
    p.write_text("1 3:1.0 2:1.0\n")
    with pytest.raises(ParseError, match="strictly increasing"):
        load_sparse(p, d=5)


def test_make_toy_empty():
    cfg = ToyConfig(n_per_class=0, class_centers=((1.0, 0.0), (0.0, 1.0)), spread=0.1, seed=0)
    ds = make_toy(cfg)
    assert ds.n == 0 and ds.d == 2


def test_make_toy_deterministic():
    cfg = ToyConfig(n_per_class=50, class_centers=((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)), spread=0.2, seed=9)
    a, b = make_toy(cfg), make_toy(cfg)
    assert np.array_equal(a.vectors, b.vectors)
    assert np.array_equal(a.categories, b.categories)


def test_make_toy_classes_separate():
    centers = ((1.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0))
    ds = make_toy(ToyConfig(n_per_class=500, class_centers=centers, spread=0.2, seed=4))
    c = np.asarray(centers, dtype=float)
    own = np.linalg.norm(ds.vectors - c[ds.categories], axis=1)
    other = np.linalg.norm(ds.vectors - c[1 - ds.categories], axis=1)
    assert np.mean(own < other) >= 0.99


def test_make_toy_unit_norm():
    ds = make_toy(ToyConfig(n_per_class=64, class_centers=((1.0, 0.0), (0.0, 1.0)), spread=0.5, seed=1))
    np.testing.assert_allclose(np.linalg.norm(ds.vectors, axis=1), 1.0, atol=1e-9)


def test_toy_config_validation():
    with pytest.raises(ValueError, match="^n_per_class must be >= 0$"):
        ToyConfig(n_per_class=-1)
    for spread in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="spread must be finite and > 0"):
            ToyConfig(n_per_class=1, class_centers=((1.0, 0.0), (0.0, 1.0)), spread=spread, seed=0)
    with pytest.raises(ValueError, match="distinct"):
        ToyConfig(n_per_class=1, class_centers=((1.0, 0.0), (1.0, 0.0)), spread=0.1, seed=0)
    with pytest.raises(ValueError, match="^exactly two class centers required$"):
        ToyConfig(n_per_class=1, class_centers=((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)), spread=0.1, seed=0)


@pytest.mark.parametrize("seed", [-1, 2**63, 1.0])
def test_toy_config_refuses_a_seed_outside_the_blob_field(seed):
    # the one seed rule, data.check_seed, before numpy sees the seed
    with pytest.raises(ValueError, match=rf"^seed={re.escape(repr(seed))} is not an integer in \[0, 2\*\*63\)$"):
        ToyConfig(n_per_class=1, seed=seed)


def test_subtopic_counts(tmp_path):
    p = tmp_path / "st.csv"
    p.write_text("0:0:1,0\n0:1:0.9,0.1\n0:1:0.8,0.2\n1:0:0,1\n")
    ds = load_dense(p)
    assert ds.subtopic_count_per_category == {0: 2, 1: 1}


def test_dense_rows_match_row_indexing(small_toy):
    ids = np.array([5, 0, 5, small_toy.n - 1])
    assert np.array_equal(small_toy.dense_rows(ids), small_toy.vectors[ids])
    assert small_toy.dense_rows([]).shape == (0, small_toy.d)
    with pytest.raises(IndexError):
        small_toy.dense_rows([0, small_toy.n])


def test_dataset_requires_a_dense_array():
    vectors = np.eye(3)
    for form in (sp.csr_matrix(vectors), vectors.tolist()):
        with pytest.raises(ValueError, match="dense numpy array"):
            Dataset(vectors=form)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_coordinates(bad):
    vectors = np.eye(3)
    vectors[1, 2] = bad
    with pytest.raises(ValueError, match="point 1 has a NaN or infinite"):
        Dataset(vectors=vectors)


@pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
def test_load_dense_rejects_non_finite_field(tmp_path, field):
    path = tmp_path / "bad.csv"
    for text, line in ((f"1.0,0.0\n0.5,{field}\n", 2), (f"\n1.0,0.0\n\n0.5,{field}\n1.0,1.0\n", 4)):
        path.write_text(text)
        with pytest.raises(ParseError, match=f":{line}: .*NaN or infinite"):
            load_dense(path)


@pytest.mark.parametrize("text", ["1,0\nnan,1\n1,0\n1,0,0\n", "1,0\ninf,1\n0,0\n"], ids=["then-ragged", "then-zero"])
def test_load_dense_reports_the_first_faulty_line(tmp_path, text):
    # a NaN or infinite line is reported ahead of any later fault
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=":2: a NaN or infinite value$") as exc:
        load_dense(path)
    assert exc.value.line_no == 2


@pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
def test_load_sparse_rejects_non_finite_field(tmp_path, field):
    path = tmp_path / "bad.svm"
    path.write_text(f"0 1:1.0\n1 2:0.5 3:{field}\n")
    with pytest.raises(ParseError, match=":2: .*NaN or infinite"):
        load_sparse(path, d=3)


@pytest.mark.parametrize("text, message", [
    ("1,0\n0:1,0.5\n", "expected 'category:subtopic:value' prefix, got '0:1'"),
    ("1,0\na:1:0.5,1\n", "non-integer label in prefix 'a:1:0.5'"),
    ("1,0\n0.5,x\n", "non-numeric value"),
], ids=["prefix-arity", "label", "value"])
def test_load_dense_refuses_a_malformed_line(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=f":2: {re.escape(message)}$") as exc:
        load_dense(path)
    assert exc.value.line_no == 2


@pytest.mark.parametrize("text, d, error, message", [
    ("0 1:1.0\n", 0, ValueError, "dimension d must be positive"),
    ("0 1:1.0\n", -1, ValueError, "dimension d must be positive"),
    ("0 1:1.0\na,1 1:0.5\n", 3, ParseError, ":2: bad label field 'a,1'"),
    ("0 1:1.0\n1 x:0.5\n", 3, ParseError, ":2: bad feature token 'x:0.5'"),
    ("0 1:1.0\n1 1:0.5:2\n", 3, ParseError, ":2: bad feature token '1:0.5:2'"),
    ("0 1:1.0\n1 2:y\n", 3, ParseError, ":2: bad feature token '2:y'"),
], ids=["d-zero", "d-negative", "label", "index", "arity", "value"])
def test_load_sparse_refuses_bad_input(tmp_path, text, d, error, message):
    path = tmp_path / "bad.svm"
    path.write_text(text)
    with pytest.raises(error, match=f"{re.escape(message)}$"):
        load_sparse(path, d=d)


@pytest.mark.parametrize("loader, kwargs, text", [
    (load_dense, {}, "1,0\n0,0\n1,0,0\n"),
    (load_sparse, {"d": 3}, "0 1:1.0\n1 2:0.0\n2 x:1.0\n"),
], ids=["dense-then-ragged", "sparse-then-bad-token"])
def test_a_zero_row_is_reported_ahead_of_a_later_fault(tmp_path, loader, kwargs, text):
    # the zero-row check runs per line, before the file is normalized
    path = tmp_path / "zero.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=":2: zero vector cannot be normalized$") as exc:
        loader(path, **kwargs)
    assert exc.value.line_no == 2


@pytest.mark.parametrize("fields, message", [
    ({"vectors": np.ones(3)}, "vectors must be 2-d"),
    ({"vectors": np.ones((3, 2)), "categories": np.zeros(2)}, "categories must have one entry per point"),
    ({"vectors": np.ones((3, 2)), "subtopics": np.zeros((3, 1))}, "subtopics must have one entry per point"),
    ({"vectors": np.ones((3, 2)), "label_sets": (frozenset(),) * 4}, "label_sets must have one entry per point"),
])
def test_dataset_refuses_a_mismatched_shape(fields, message):
    with pytest.raises(ValueError, match=message):
        Dataset(**fields)


def test_normalize_rows_leaves_its_input_as_it_is():
    # ordinary, overflowing, zero and subnormal rows, the last three fixed up one by one
    raw = np.array([[3.0, 4.0], [1e200, 1e200], [0.0, 0.0], [0.0, 5e-324], [np.inf, 1.0]])
    before = raw.copy()
    out = normalize_rows(raw)
    assert np.array_equal(raw, before) and not np.shares_memory(out, raw)
    assert np.array_equal(out[[0, 2, 3, 4]], [[0.6, 0.8], [0.0, 0.0], [0.0, 1.0], [np.inf, 1.0]])
    assert abs(np.linalg.norm(out[1]) - 1.0) < 1e-15


@pytest.mark.parametrize("shape", [(2500, 8), (40, 500)])
def test_normalize_rows_matches_one_whole_array_division(shape):
    # the norms come a block of rows at a time; these shapes span several blocks
    raw = np.random.default_rng(5).standard_normal(shape) * np.logspace(-3, 3, shape[0])[:, None]
    assert np.array_equal(normalize_rows(raw), raw / np.linalg.norm(raw, axis=1)[:, None])
