"""Numerical kernels: the truncated SVD of a short, wide matrix, and
Euclidean projection onto the capped simplex {a : sum(a) = k, 0 <= a <= 1}.

Every truncated SVD here is of a d x n matrix with small d (the feature
dimension, tens), so one symmetric eigensolve of the d x d Gram X X^T is
exact and cheap. An iterative solver (subspace iteration, Lanczos) pays
only when d itself is large (Halko, Martinsson & Tropp, SIAM Review 2011),
and it brings a start vector, an iteration count and a tolerance to set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TruncatedBasis:
    """Top singular directions of a d x n matrix X.

    U: (d, alpha) with orthonormal columns, singular values non-increasing.
    """

    U: np.ndarray
    singular_values: np.ndarray
    # one direct solve; bench/workloads.py reports these in its --trace mode
    iterations = 1
    converged = True


def truncated_svd(X, alpha: int) -> TruncatedBasis:
    """Top-alpha left singular vectors of X (d x n, columns are points).

    One `eigh` of the d x d Gram X X^T: its top-alpha eigenpairs in
    descending order, singular values sqrt(max(eigenvalue, 0)). Each column
    is flipped so that its largest-magnitude entry is positive, which makes
    the signs a function of X and not of the LAPACK build.
    """
    d, n = X.shape
    if not 1 <= alpha <= min(d, n):
        raise ValueError(f"alpha={alpha} out of range [1, {min(d, n)}]")
    evals, V = np.linalg.eigh(X @ X.T)
    U = V[:, ::-1][:, :alpha]
    pivots = U[np.abs(U).argmax(axis=0), np.arange(alpha)]
    return TruncatedBasis(
        U=U * np.where(pivots < 0.0, -1.0, 1.0),
        singular_values=np.sqrt(np.clip(evals[::-1][:alpha], 0.0, None)),
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
