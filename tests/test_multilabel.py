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
    save_factors,
)


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

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            FactorModel(W=np.array([[np.nan]]), H=np.ones((1, 1)))


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
        with pytest.raises(ValueError, match="ridge"):
            fit_lowrank_ridge(np.eye(3), np.eye(3), k=2, ridge=0.0)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            fit_lowrank_ridge(np.eye(3), np.eye(3), k=4, ridge=1.0)

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

    def test_zero_embedded_query_rejected(self):
        model = FactorModel(W=np.eye(3), H=np.eye(3))
        index = build_label_index(model, 4, 2, seed=0)
        with pytest.raises(ValueError, match="zero vector"):
            predict_diverse(model, index, np.zeros(3), alpha=1, lam=0.5)

    def test_scores_are_raw_inner_products(self):
        model, X, _ = make_planted(200, 6, 12, 3, n_clusters=5, seed=9)
        index = build_label_index(model, 8, 6, seed=9)
        pred = predict_diverse(model, index, X[0], alpha=4, lam=0.9)
        expected = model.W[pred.labels] @ (model.H.T @ X[0])
        np.testing.assert_allclose(pred.scores, expected, atol=1e-12)
