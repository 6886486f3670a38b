import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashdiv.linalg import project_capped_simplex, truncated_svd


def jacobi_eigh(A, sweeps=50, tol=1e-13):
    """Independent dense eigensolver: cyclic Jacobi rotations on a symmetric
    matrix. Oracle for the spectrum of `truncated_svd`."""
    A = np.array(A, dtype=float)
    n = A.shape[0]
    V = np.eye(n)
    for _ in range(sweeps):
        off = np.sqrt(sum(A[i, j] ** 2 for i in range(n) for j in range(n) if i != j))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) < 1e-18:
                    continue
                theta = 0.5 * np.arctan2(2 * A[p, q], A[q, q] - A[p, p])
                c, s = np.cos(theta), np.sin(theta)
                J = np.eye(n)
                J[p, p] = c
                J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
                V = V @ J
    return np.diag(A), V


@st.composite
def svd_inputs(draw):
    """A d x n matrix and a rank alpha: Gaussian, with singular values drawn
    from a few levels (so they repeat, also at the cut, and may be zero), or
    of low rank; then optionally with duplicate and zero columns and zero
    rows, at a scale from 1e-3 to 1e3."""
    d, n = draw(st.integers(1, 12)), draw(st.integers(1, 40))
    alpha = draw(st.integers(1, min(d, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["gaussian", "repeated", "low-rank"]))
    if shape == "gaussian":
        X = rng.standard_normal((d, n))
    elif shape == "repeated":
        k = min(d, n)
        Q = np.linalg.qr(rng.standard_normal((d, k)))[0]
        P = np.linalg.qr(rng.standard_normal((n, k)))[0]
        X = (Q * rng.choice([0.0, 1.0, 2.0, 3.0], size=k)) @ P.T
    else:
        r = draw(st.integers(0, min(d, n) - 1))
        X = rng.standard_normal((d, r)) @ rng.standard_normal((r, n))
    if draw(st.booleans()):
        X = X[:, rng.integers(0, n, size=n)]  # drawn with replacement: duplicate columns
        X[:, rng.random(n) < 0.2] = 0.0
        X[rng.random(d) < 0.2] = 0.0
    return X * 10.0 ** draw(st.integers(-3, 3)), alpha


def sign_rule_holds(U) -> bool:
    """Each column's largest-magnitude entry is positive."""
    return bool(np.all(U[np.abs(U).argmax(axis=0), np.arange(U.shape[1])] > 0.0))


class TestTruncatedSvd:
    def test_identity(self):
        basis = truncated_svd(np.eye(3), alpha=2)
        np.testing.assert_allclose(basis.singular_values, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(basis.U.T @ basis.U, np.eye(2), atol=1e-12)

    def test_diagonal(self):
        basis = truncated_svd(np.diag([3.0, -2.0, 1.0]), alpha=2)
        np.testing.assert_allclose(basis.singular_values, [3.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(basis.U, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], atol=1e-12)

    def test_low_rank_residual_vs_jacobi_oracle(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((20, 5)) @ rng.standard_normal((5, 100))
        basis = truncated_svd(X, alpha=5)
        resid = np.linalg.norm(X - basis.U @ (basis.U.T @ X))
        assert resid <= 1e-6 * np.linalg.norm(X)
        # cross-check the spectrum against an independent Jacobi solve of X X^T
        evals, _ = jacobi_eigh(X @ X.T)
        top = np.sqrt(np.sort(evals)[::-1][:5])
        np.testing.assert_allclose(np.sort(basis.singular_values), np.sort(top), rtol=1e-8)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 40))
        basis = truncated_svd(X, alpha=7)
        np.testing.assert_allclose(basis.U.T @ basis.U, np.eye(7), atol=1e-12)
        assert np.all(np.diff(basis.singular_values) <= 0.0)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            truncated_svd(np.eye(3), alpha=0)
        with pytest.raises(ValueError):
            truncated_svd(np.eye(3), alpha=4)

    def test_one_direct_solve(self):
        basis = truncated_svd(np.eye(3), alpha=2)
        assert [f.name for f in dataclasses.fields(basis)] == ["U", "singular_values"]
        assert (basis.iterations, basis.converged) == (1, True)

    @given(svd_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_svd(self, case):
        X, alpha = case
        basis = truncated_svd(X, alpha)
        U, s = basis.U, basis.singular_values
        ref = np.linalg.svd(X, compute_uv=False)
        scale = ref[0] ** 2  # the Gram's eigenvalues carry rounding relative to s1^2
        assert U.shape == (X.shape[0], alpha) and s.shape == (alpha,)
        np.testing.assert_allclose(s**2, ref[:alpha] ** 2, rtol=0, atol=1e-12 * scale)
        # the captured energy is defined even where singular values repeat at the cut
        assert abs(np.sum((U.T @ X) ** 2) - np.sum(ref[:alpha] ** 2)) <= 1e-12 * alpha * scale
        np.testing.assert_allclose(U.T @ U, np.eye(alpha), atol=1e-12)
        assert sign_rule_holds(U)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 10))
    @settings(max_examples=50, deadline=None)
    def test_vectors_match_numpy_svd_under_the_sign_rule(self, seed, alpha):
        # with gapped singular values the directions are unique up to sign,
        # and the sign rule fixes that sign
        d, n = 10, 30
        rng = np.random.default_rng(seed)
        Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        P = np.linalg.qr(rng.standard_normal((n, d)))[0]
        X = (Q * 2.0 ** -np.arange(d)) @ P.T
        ref = np.linalg.svd(X)[0][:, :alpha]
        ref = ref * np.where(ref[np.abs(ref).argmax(axis=0), np.arange(alpha)] < 0.0, -1.0, 1.0)
        np.testing.assert_allclose(truncated_svd(X, alpha).U, ref, atol=1e-9)


def brute_force_projection(v, k, grid=2001):
    """Exhaustive-tau oracle: scan a fine tau grid plus all breakpoints and
    return the feasible clip that best matches sum = k."""
    v = np.asarray(v, dtype=float)
    taus = np.concatenate([np.linspace(v.min() - 1.5, v.max() + 0.5, grid), v, v - 1.0])
    best, best_gap = None, np.inf
    for tau in taus:
        a = np.clip(v - tau, 0.0, 1.0)
        gap = abs(a.sum() - k)
        if gap < best_gap:
            best, best_gap = a, gap
    return best


class TestCappedSimplexProjection:
    def test_fixed_point(self):
        v = np.array([0.2, 0.5, 0.3])
        np.testing.assert_allclose(project_capped_simplex(v, 1), v, atol=1e-12)

    def test_known_kkt_solution(self):
        # enumerated active sets by hand: only the free/free/zero split is
        # KKT-consistent and it yields (0.7, 0.3, 0.0)
        np.testing.assert_allclose(project_capped_simplex([0.9, 0.5, 0.1], 1), [0.7, 0.3, 0.0], atol=1e-12)

    def test_symmetric_input(self):
        out = project_capped_simplex([10.0, 10.0, 10.0], 2)
        np.testing.assert_allclose(out, [2 / 3] * 3, atol=1e-12)
        assert np.isclose(out.sum(), 2.0)

    def test_k_equals_n(self):
        np.testing.assert_allclose(project_capped_simplex([-5.0, 9.0], 2), [1.0, 1.0])

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            project_capped_simplex([1.0, 2.0], 3)

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=40),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_feasibility_idempotence_optimality(self, vals, k, wseed):
        v = np.array(vals)
        k = min(k, v.size)
        out = project_capped_simplex(v, k)
        assert np.all(out >= -1e-12) and np.all(out <= 1 + 1e-12)
        assert np.isclose(out.sum(), k, atol=1e-9)
        again = project_capped_simplex(out, k)
        np.testing.assert_allclose(again, out, atol=1e-9)
        # no feasible point is closer to v than the projection
        rng = np.random.default_rng(wseed)
        w = project_capped_simplex(rng.uniform(-1, 2, size=v.size), k)
        assert np.linalg.norm(out - v) <= np.linalg.norm(w - v) + 1e-9

    def test_matches_tau_scan_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            k = int(rng.integers(1, n + 1))
            v = rng.uniform(-3, 3, size=n)
            out = project_capped_simplex(v, k)
            oracle = brute_force_projection(v, k)
            np.testing.assert_allclose(out, oracle, atol=2e-3)

    @given(
        st.lists(st.one_of(st.floats(-5, 5), st.sampled_from([-1.0, 0.0, 0.25, 1.0, 2.0])), min_size=2, max_size=40),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_kkt_conditions(self, vals, data):
        # the projection is clip(v - tau, 0, 1) for one tau: free coordinates
        # share tau, zeros have v_i <= tau, ones have v_i >= tau + 1
        v = np.array(vals)
        n = v.size
        k = data.draw(st.sampled_from([1, n - 1]) | st.integers(1, n - 1))
        a = project_capped_simplex(v, k)
        assert abs(a.sum() - k) <= 1e-12 * n
        free = (a > 0.0) & (a < 1.0)
        zeros, ones = v[a == 0.0], v[a == 1.0]
        assert free.sum() + zeros.size + ones.size == n
        if free.any():
            taus = v[free] - a[free]
            assert np.ptp(taus) <= 1e-12
            lo, hi = taus.max(), taus.min() + 1.0
        else:
            lo = hi = ones.min() - 1.0  # k >= 1, so with no free coordinate some are ones
        assert np.all(zeros <= lo + 1e-12)
        assert np.all(ones >= hi - 1e-12)
