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
    save_dense(make_toy(ToyConfig(n_per_class=100, class_centers=centers, spread=0.25, seed=3)), path)
    raw = load_dense(path, normalize=False).vectors
    raw[::7, 3] = 0.0  # LIBSVM rows with absent features
    svm.write_text("".join("0 " + " ".join(f"{i + 1}:{v!r}" for i, v in enumerate(r) if v) + "\n"
                           for r in raw.tolist()))
    path.write_text("".join(",".join(repr(v) for v in r) + "\n" for r in raw.tolist()))
    # each value divided by the float of the norm of the values its line stores
    for vectors, stored in ((load_dense(path).vectors, lambda r: r),
                            (load_sparse(svm, d=8).vectors, lambda r: [v for v in r if v])):
        assert np.array_equal(vectors, [[v / float(np.linalg.norm(stored(r))) for v in r] for r in raw.tolist()])
    assert np.array_equal(normalize_rows(raw), raw / np.linalg.norm(raw, axis=1)[:, None])
    with pytest.raises(ValueError, match="zero vector at row 2"):
        normalize_rows(np.vstack([raw[:2], np.zeros(8)]))


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
    ds2 = load_dense(q, normalize=False)
    np.testing.assert_allclose(ds2.vectors, ds.vectors, atol=1e-12, rtol=0)
    assert ds2.categories.tolist() == ds.categories.tolist()


def test_load_sparse_format(tmp_path):
    p = tmp_path / "s.svm"
    p.write_text("1,5 3:0.5 7:1.2\n")
    ds = load_sparse(p, d=10, normalize=False)
    assert ds.label_sets[0] == frozenset({1, 5})
    assert isinstance(ds.vectors, np.ndarray) and ds.vectors.shape == (1, 10)
    row = ds.vectors[0]
    assert np.flatnonzero(row).tolist() == [2, 6] and row[[2, 6]].tolist() == [0.5, 1.2]


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
    with pytest.raises(ValueError, match="spread"):
        ToyConfig(n_per_class=1, class_centers=((1.0, 0.0), (0.0, 1.0)), spread=0.0, seed=0)
    with pytest.raises(ValueError, match="distinct"):
        ToyConfig(n_per_class=1, class_centers=((1.0, 0.0), (1.0, 0.0)), spread=0.1, seed=0)


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
        for normalize in (True, False):
            with pytest.raises(ParseError, match=f":{line}: .*NaN or infinite"):
                load_dense(path, normalize=normalize)


@pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
def test_load_sparse_rejects_non_finite_field(tmp_path, field):
    path = tmp_path / "bad.svm"
    path.write_text(f"0 1:1.0\n1 2:0.5 3:{field}\n")
    for normalize in (True, False):
        with pytest.raises(ParseError, match=":2: .*NaN or infinite"):
            load_sparse(path, d=3, normalize=normalize)
