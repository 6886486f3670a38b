import re
import struct

import numpy as np
import pytest

from hashdiv.experiment import make_planted
from hashdiv.multilabel import (
    FactorModel,
    build_label_index,
    fit_lowrank_ridge,
    load_factors,
    predict_diverse,
    predict_exact,
    predict_mmr,
    save_factors,
)
from hashdiv.select import SelectionProblem, select_mmr


class TestFactorIO:
    def test_identity_roundtrip(self, tmp_path):
        model = FactorModel(W=np.eye(4), H=np.eye(4))
        path = tmp_path / "m.bin"
        save_factors(model, path)
        back = load_factors(path)
        assert np.array_equal(back.W, model.W) and np.array_equal(back.H, model.H)

    def test_random_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(3)
        model = FactorModel(W=rng.standard_normal((30, 5)), H=rng.standard_normal((8, 5)))
        path = tmp_path / "m.bin"
        save_factors(model, path)
        back = load_factors(path)
        assert back.W.tobytes() == model.W.tobytes()
        assert back.H.tobytes() == model.H.tobytes()

    def test_truncated_file_rejected(self, tmp_path):
        model = FactorModel(W=np.eye(3), H=np.eye(3))
        path = tmp_path / "m.bin"
        save_factors(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="size mismatch"):
            load_factors(path)
        path.write_bytes(b"HDVX" + blob[4:])
        with pytest.raises(ValueError, match=r"^not a factor-model file \(bad magic\)$"):
            load_factors(path)

    @pytest.mark.parametrize("size", [4, 20])
    def test_truncated_header_rejected(self, tmp_path, size):
        path = tmp_path / "m.bin"
        save_factors(FactorModel(W=np.eye(3), H=np.eye(3)), path)
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ValueError, match=f"^truncated factor file: {size} bytes, the header alone is 28$"):
            load_factors(path)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            FactorModel(W=np.array([[np.nan]]), H=np.ones((1, 1)))
        with pytest.raises(ValueError, match=r"^W must be \(L, k\) and H \(d, k\) with matching k$"):
            FactorModel(W=np.ones((3, 2)), H=np.ones((4, 3)))

    @pytest.mark.parametrize("w, h", [((0, 2), (4, 2)), ((3, 0), (4, 0)), ((3, 2), (0, 2))])
    def test_zero_dimension_rejected(self, tmp_path, w, h):
        # no labels, no factors or no features: a run would divide by zero
        # labels or score every document 0
        message = (rf"^a factor model needs at least one label, feature and factor, "
                   rf"got W of shape {re.escape(str(w))} and H of shape {re.escape(str(h))}$")
        with pytest.raises(ValueError, match=message):
            FactorModel(W=np.ones(w), H=np.ones(h))
        path = tmp_path / "m.bin"
        path.write_bytes(b"HDVM" + struct.pack("<QQQ", w[0], h[0], w[1]) + bytes(8 * (w[0] + h[0]) * w[1]))
        with pytest.raises(ValueError, match=message):
            load_factors(path)


class TestFitLowRankRidge:
    def test_planted_sign_agreement(self):
        # large-margin planted instance: bimodal factors give |score| >= 1,
        # so an exact rank-k linear predictor of the signs exists
        rng = np.random.default_rng(0)
        n, d, L, k = 500, 30, 40, 5
        Z = np.sign(rng.standard_normal((n, k)))
        W0 = np.sign(rng.standard_normal((L, k)))
        H0 = np.linalg.qr(rng.standard_normal((d, k)))[0]
        X = Z @ H0.T
        Y = np.sign(Z @ W0.T + 0.5)  # +0.5 breaks the k-even zero-sum ties
        model = fit_lowrank_ridge(X, Y, k=k, ridge=1e-6)
        agree = np.mean(np.sign(X @ model.H @ model.W.T) == Y)
        assert agree >= 0.99

    def test_full_rank_small_ridge_reconstructs(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((12, 12)) + 4 * np.eye(12)
        Y = rng.standard_normal((12, 12))
        model = fit_lowrank_ridge(X, Y, k=12, ridge=1e-10)
        resid = np.linalg.norm(Y - X @ model.H @ model.W.T) / np.linalg.norm(Y)
        assert resid < 1e-6

    def test_zero_ridge_rejected(self):
        for ridge in (0.0, np.nan):
            with pytest.raises(ValueError, match="^ridge must be > 0"):
                fit_lowrank_ridge(np.eye(3), np.eye(3), k=2, ridge=ridge)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match=r"^rank k=4 out of range \[1, 3\] for 3 features and 3 labels$"):
            fit_lowrank_ridge(np.eye(3), np.eye(3), k=4, ridge=1.0)
        with pytest.raises(ValueError, match="^X and Y disagree on the number of rows$"):
            fit_lowrank_ridge(np.eye(3), np.eye(4), k=2, ridge=1.0)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((40, 6))
        Y = np.sign(rng.standard_normal((40, 9)))
        a = fit_lowrank_ridge(X, Y, k=3, ridge=0.5)
        b = fit_lowrank_ridge(X, Y, k=3, ridge=0.5)
        assert np.array_equal(a.W, b.W) and np.array_equal(a.H, b.H)


class TestPredictExact:
    def test_aligned_row_wins(self):
        H = np.eye(3)
        W = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        model = FactorModel(W=W, H=H)
        pred = predict_exact(model, np.array([0.0, 1.0, 0.0]), alpha=1)
        assert pred.labels.tolist() == [1]
        assert pred.eval_count == 3

    def test_alpha_below_one_refused(self):
        with pytest.raises(ValueError, match="^alpha must be >= 1$"):
            predict_exact(FactorModel(W=np.eye(3), H=np.eye(3)), np.ones(3), alpha=0)

    def test_alpha_equals_all_labels_sorted_by_score(self):
        rng = np.random.default_rng(2)
        model = FactorModel(W=rng.standard_normal((6, 4)), H=rng.standard_normal((5, 4)))
        x = rng.standard_normal(5)
        pred = predict_exact(model, x, alpha=6)
        assert np.all(np.diff(pred.scores) <= 1e-15)
        assert set(pred.labels.tolist()) == set(range(6))

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        model = FactorModel(W=rng.standard_normal((25, 6)), H=rng.standard_normal((9, 6)))
        for _ in range(5):
            x = rng.standard_normal(9)
            scores = [sum(model.W[i, j] * sum(model.H[r, j] * x[r] for r in range(9)) for j in range(6)) for i in range(25)]
            ref = sorted(range(25), key=lambda i: (-scores[i], i))[:4]
            pred = predict_exact(model, x, alpha=4)
            assert pred.labels.tolist() == ref

    def test_scale_invariance_of_label_set(self):
        rng = np.random.default_rng(8)
        model = FactorModel(W=rng.standard_normal((12, 3)), H=rng.standard_normal((4, 3)))
        x = rng.standard_normal(4)
        a = predict_exact(model, x, alpha=5)
        b = predict_exact(model, 3.7 * x, alpha=5)
        assert a.labels.tolist() == b.labels.tolist()
        np.testing.assert_allclose(b.scores, 3.7 * a.scores)


class TestPredictDiverse:
    def test_alpha_covers_all_labels(self):
        model, X, _ = make_planted(30, 8, 16, 5, n_clusters=4, seed=0)
        index = build_label_index(model, 8, 4, seed=0)
        pred = predict_diverse(model, index, X[0], alpha=30, lam=0.5)
        assert set(pred.labels.tolist()) == set(range(30))
        assert pred.eval_count == 30

    def test_eval_count_below_label_count(self):
        model, X, _ = make_planted(2000, 12, 30, 10, n_clusters=40, seed=1)
        index = build_label_index(model, 12, 8, seed=1)
        evals = [predict_diverse(model, index, x, alpha=5, lam=0.8).eval_count for x in X]
        assert max(evals) <= 2000
        assert np.mean(evals) <= 0.2 * 2000

    def test_candidate_set_grows_with_tables(self):
        model, X, _ = make_planted(500, 8, 20, 8, n_clusters=10, seed=3)
        few = build_label_index(model, 10, 2, seed=5)
        many = build_label_index(model, 10, 12, seed=5)
        for x in X:
            a = predict_diverse(model, few, x, alpha=4, lam=0.7)
            b = predict_diverse(model, many, x, alpha=4, lam=0.7)
            assert a.eval_count <= b.eval_count

    def test_converges_to_exhaustive_probing(self):
        # l=1 with many tables approaches a full scan: the candidate set
        # covers essentially every label
        model, X, _ = make_planted(500, 8, 20, 8, n_clusters=10, seed=3)
        wide = build_label_index(model, 1, 32, seed=5)
        for x in X:
            pred = predict_diverse(model, wide, x, alpha=4, lam=0.7)
            assert pred.eval_count >= 0.99 * 500

    def test_scores_are_raw_inner_products(self):
        model, X, _ = make_planted(200, 6, 12, 3, n_clusters=5, seed=9)
        index = build_label_index(model, 8, 6, seed=9)
        pred = predict_diverse(model, index, X[0], alpha=4, lam=0.9)
        expected = model.W[pred.labels] @ (model.H.T @ X[0])
        np.testing.assert_allclose(pred.scores, expected, atol=1e-12)


    @pytest.mark.parametrize("n_labels, rank", [(500, 8), (300, 10)])
    def test_index_over_another_label_matrix_refused(self, n_labels, rank):
        # a 500-label index once raised IndexError from model.W[res.ids]
        model, X, _ = make_planted(300, 8, 20, 1, n_clusters=5, seed=0)
        other, _, _ = make_planted(n_labels, rank, 20, 1, n_clusters=5, seed=1)
        index = build_label_index(other, 8, 4, seed=0)
        message = f"label index over a ({n_labels}, {rank}) label matrix, the model's W is (300, 8)"
        for x in (X[0], np.zeros(20)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                predict_diverse(model, index, x, alpha=4, lam=0.5)

    def test_row_whose_norm_overflows_is_indexed_by_its_direction(self):
        rng = np.random.default_rng(4)
        W = rng.standard_normal((40, 6))
        W[7] *= 1e300  # finite, but its plain norm is inf
        model = FactorModel(W=W, H=np.eye(6))
        index = build_label_index(model, 8, 4, seed=0)
        x = W[7] / 1e300  # embeds onto label 7's direction
        np.testing.assert_allclose(index.dataset.vectors[7], x / np.linalg.norm(x), rtol=1e-12)
        assert predict_exact(model, x, alpha=1).labels.tolist() == [7]
        assert predict_diverse(model, index, x, alpha=3, lam=0.9).labels[0] == 7
        W[3] = 0.0
        with pytest.raises(ValueError, match="W has a zero row"):
            build_label_index(FactorModel(W=W, H=np.eye(6)), 8, 4, seed=0)

def mmr_oracle(model, x, pool, lam):
    """The experiment harness's MMR predictor before it moved into
    hashdiv.multilabel: (labels, scores)."""
    norms = np.linalg.norm(model.W, axis=1)
    Wn = model.W / np.where(norms == 0, 1.0, norms)[:, None]
    scores = model.scores(x)
    order = np.lexsort((np.arange(scores.size), -scores))
    cand = np.sort(order[: min(3 * pool, scores.size)])
    z = model.H.T @ np.asarray(x, dtype=float).ravel()
    nz = np.linalg.norm(z)
    problem = SelectionProblem(query=z / nz if nz > 0 else z, ids=cand, vectors=Wn[cand], k=pool, lam=lam)
    res = select_mmr(problem)
    return res.ids, scores[res.ids]


class TestPredictMmr:
    @pytest.mark.parametrize("n_labels, alpha", [(300, 5), (12, 5), (8, 9)])
    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.7, 1.0])
    def test_matches_the_harness_oracle(self, n_labels, alpha, lam):
        # duplicated rows tie exactly, a zero row scores 0 and stays a zero
        # vector, and at 3 * alpha >= n_labels the pool is every label,
        # which is underfilled at alpha > n_labels
        model, X, _ = make_planted(n_labels, 6, 12, 8, n_clusters=4, seed=n_labels)
        W = model.W.copy()
        W[[4, 7]] = W[1]
        W[2] = 0.0
        model = FactorModel(W=W, H=model.H)
        for x in X:
            pred = predict_mmr(model, x, alpha, lam)
            labels, scores = mmr_oracle(model, x, alpha, lam)
            assert pred.labels.tolist() == labels.tolist()
            assert pred.scores.tobytes() == scores.tobytes()
            assert pred.eval_count == n_labels
            assert pred.underfilled == (min(3 * alpha, n_labels) < alpha)

    def test_scores_are_raw_inner_products(self):
        model, X, _ = make_planted(200, 6, 12, 3, n_clusters=5, seed=9)
        pred = predict_mmr(model, X[0], alpha=4, lam=0.5)
        assert pred.labels.size == 4
        np.testing.assert_allclose(pred.scores, model.W[pred.labels] @ (model.H.T @ X[0]), rtol=0, atol=1e-12)

    def test_row_whose_norm_overflows_keeps_its_direction(self):
        # label 0 is the first pick at unit scale; at 1e200 its norm
        # overflows, and dividing by it once made the row a zero vector
        W = np.array([[1, 1, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 1, 0]], dtype=float)
        x = np.array([1.0, 0.9, 0.2, 0.1])
        unit = predict_mmr(FactorModel(W=W, H=np.eye(4)), x, alpha=3, lam=0.5)
        W[0] *= 1e200
        big = predict_mmr(FactorModel(W=W, H=np.eye(4)), x, alpha=3, lam=0.5)
        assert unit.labels[0] == 0
        assert big.labels.tolist() == unit.labels.tolist()


PREDICTORS = {
    "exact": lambda model, index, x: predict_exact(model, x, 2),
    "mmr": lambda model, index, x: predict_mmr(model, x, 2, 0.5),
    "diverse": lambda model, index, x: predict_diverse(model, index, x, 2, 0.5),
}


class TestDegenerateDocuments:
    """One rule for all three predictors: a zero H^T x gives an empty,
    underfilled prediction with eval_count 0; a non-finite one raises."""

    @pytest.fixture(scope="class")
    def model_and_index(self):
        # feature 3 was never seen in training, so H has a zero row there
        rng = np.random.default_rng(4)
        H = np.vstack([np.linalg.qr(rng.standard_normal((3, 2)))[0], np.zeros((1, 2))])
        model = FactorModel(W=rng.standard_normal((8, 2)), H=H)
        return model, build_label_index(model, 4, 2, seed=0)

    @pytest.mark.parametrize("x", [np.zeros(4), np.array([0.0, 0.0, 0.0, 1.0])], ids=["zero", "unseen-feature"])
    @pytest.mark.parametrize("method", PREDICTORS)
    def test_zero_embedding_gives_empty_prediction(self, model_and_index, method, x):
        pred = PREDICTORS[method](*model_and_index, x)
        assert pred.labels.size == 0 and pred.scores.size == 0
        assert pred.eval_count == 0 and pred.underfilled

    @pytest.mark.parametrize("method, alpha, lam, cause", [
        *((method, 0, 0.5, "alpha must be >= 1") for method in PREDICTORS),
        *((method, 3, lam, "lambda must lie in") for method in ("mmr", "diverse") for lam in (5.0, -0.5, np.nan)),
    ])
    def test_bad_alpha_or_lambda_raises_on_a_zero_embedding(self, model_and_index, method, alpha, lam, cause):
        model, index = model_and_index
        call = {
            "exact": lambda: predict_exact(model, np.zeros(4), alpha),
            "mmr": lambda: predict_mmr(model, np.zeros(4), alpha, lam),
            "diverse": lambda: predict_diverse(model, index, np.zeros(4), alpha, lam),
        }[method]
        with pytest.raises(ValueError, match=cause):
            call()

    @pytest.mark.parametrize("at", [0, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("method", [*PREDICTORS, "scores"])
    def test_non_finite_document_raises(self, model_and_index, method, bad, at):
        # feature 3 embeds to zero, and is refused all the same
        call = {**PREDICTORS, "scores": lambda model, index, x: model.scores(x)}[method]
        x = np.array([0.5, 0.2, 0.1, 0.0])
        x[at] = bad
        with pytest.raises(ValueError, match=f"^document feature {at} is NaN or infinite$"):
            call(*model_and_index, x)

    @pytest.mark.parametrize("method", PREDICTORS)
    def test_finite_document_whose_embedding_overflows_raises(self, model_and_index, method):
        with pytest.raises(ValueError, match=r"^embedded query H\^T x or its norm overflows$"):
            PREDICTORS[method](*model_and_index, np.array([1e308, 1e308, 1e308, 0.0]))

    @pytest.fixture(scope="class")
    def six_features(self):
        rng = np.random.default_rng(5)
        model = FactorModel(W=rng.standard_normal((8, 2)), H=rng.standard_normal((6, 2)))
        return model, build_label_index(model, 4, 2, seed=0)

    @pytest.mark.parametrize("fill", [0.0, 0.5])
    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (1, 6), (5,), (7,)])
    @pytest.mark.parametrize("method", [*PREDICTORS, "scores"])
    def test_document_of_the_wrong_shape_raises(self, six_features, method, shape, fill):
        # a (2, 3) document is not the 6-vector it would ravel to; a zero
        # one is refused before the zero embedding's early return
        call = {**PREDICTORS, "scores": lambda model, index, x: model.scores(x)}[method]
        with pytest.raises(ValueError, match=rf"^document must be a 1-d array of 6 features, got shape {re.escape(str(shape))}$"):
            call(*six_features, np.full(shape, fill))
