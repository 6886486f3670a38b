"""Numerical kernels: truncated SVD by subspace iteration, and Euclidean
projection onto the capped simplex {a : sum(a) = k, 0 <= a <= 1}.

Subspace iteration was chosen over Lanczos: simpler, deterministic given a
seeded start block, and adequate for the desk-scale ranks (<= 500) this
library targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TruncatedBasis:
    """Top singular directions of a d x n matrix X.

    U: (d, alpha) with orthonormal columns, singular values non-increasing.
    residual_history holds max-column residual |X X^T u - s^2 u| / s1^2 per
    outer iteration.
    """

    U: np.ndarray
    singular_values: np.ndarray
    converged: bool
    iterations: int
    residual_history: tuple[float, ...] = ()


def truncated_svd(X, alpha: int, tol: float = 1e-6, max_iter: int = 300) -> TruncatedBasis:
    """Top-alpha left singular vectors of X (d x n, columns are points).

    Block power iteration on X X^T with QR re-orthonormalization and a
    Rayleigh-Ritz rotation each sweep. Column i of the result satisfies
    ||X X^T u_i - s_i^2 u_i|| <= tol * s_1^2 on convergence; if max_iter is
    exhausted the best iterate is returned with converged=False.
    """
    d, n = X.shape
    if not 1 <= alpha <= min(d, n):
        raise ValueError(f"alpha={alpha} out of range [1, {min(d, n)}]")
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((d, alpha)))
    history: list[float] = []
    converged = False
    it = 0
    lam = np.zeros(alpha)
    for it in range(1, max_iter + 1):
        W = X.T @ Q                     # (n, alpha)
        Z = X @ W                       # X X^T Q
        B = W.T @ W                     # = Q^T X X^T Q, symmetric PSD
        evals, V = np.linalg.eigh(B)
        order = np.argsort(evals)[::-1]
        lam = np.clip(evals[order], 0.0, None)
        U = Q @ V[:, order]
        R = Z @ V[:, order] - U * lam   # per-column residual X X^T u - lam u
        res = np.linalg.norm(R, axis=0)
        scale = lam[0] if lam[0] > 0 else 1.0
        history.append(float(res.max() / scale))
        if np.all(res <= tol * scale):
            Q = U
            converged = True
            break
        Q, _ = np.linalg.qr(Z)
    else:
        Q = U
    return TruncatedBasis(
        U=Q,
        singular_values=np.sqrt(lam),
        converged=converged,
        iterations=it,
        residual_history=tuple(history),
    )


def project_capped_simplex(v, k: int) -> np.ndarray:
    """Euclidean projection of v onto {a : sum(a) = k, 0 <= a <= 1}.

    The projection is clip(v - tau, 0, 1) with tau solving
    mass(tau) = sum_i clip(v_i - tau, 0, 1) = k. mass is piecewise linear
    and non-increasing with breakpoints {v_i - 1, v_i}; sort + cumsum
    evaluates it at every breakpoint at once and tau is interpolated on the
    segment that brackets k (Wang & Lu, "Projection onto the capped
    simplex", arXiv 1503.01002). Exact in exact arithmetic, no tolerance
    knob. O(n log n).
    """
    v = np.asarray(v, dtype=float).ravel()
    n = v.size
    if not 0 < k <= n:
        raise ValueError(f"budget k={k} out of range (0, {n}]")
    if k == n:
        return np.ones(n)
    s = np.sort(v)
    s1 = s - 1.0
    csum = np.zeros(n + 1)
    np.cumsum(s, out=csum[1:])
    bps = np.concatenate([s1, s])
    bps.sort()
    # at tau = b: v_i <= b clip to 0, v_i - 1 > b clip to 1, the rest are
    # free; comparing against s1 rather than b + 1 keeps the counts exact
    lo = s.searchsorted(bps, side="right")
    hi = s1.searchsorted(bps, side="right")
    free = hi - lo
    mass = (n - hi) + (csum[hi] - csum[lo]) - bps * free
    # mass(bps[0]) = n > k and mass(bps[-1]) = 0 < k, so j + 1 < 2n
    j = np.count_nonzero(mass >= k) - 1
    # tau = b + shift, with the free values taken relative to b: v - b is
    # exact near b, so the result sums to k even when |v| is large
    b = bps[j]
    if free[j] == 0:
        shift = 0.5 * (bps[j + 1] - b)  # mass is flat (= k) on this segment
    else:
        shift = (n - hi[j] + (s[lo[j]:hi[j]] - b).sum() - k) / free[j]
    return np.clip((v - b) - shift, 0.0, 1.0)
