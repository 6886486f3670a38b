"""Retrieval / diversification strategies over a candidate set.

All selectors consume a SelectionProblem whose candidates are kept in
ascending-id order, and every strategy, qp_relax_solve too, is a pure
deterministic function of that problem alone: the relaxed solve stops by
fixed rules (_WOLFE_VERTICES, _WOLFE_TOL, _NEWTON_STEPS, _NEWTON_TOL).
Every selector answers an empty pool with an empty, underfilled result,
whatever its query; only a nonempty pool's scores can overflow. One
ranking rule, the k best first with ties to the lowest id, lives in
top_k: nn, rerank's pool and qprel's rounding rank through it, as do the
multilabel MMR pool and cutoff. Greedy, MMR and rerank also break
their score ties by ascending id, twin candidates included. qprel does not
for exact twins on Wolfe's path: its oracle's partition order decides
which copies enter a k-set, so their weights, and the picks, need not
favour the lowest id.

qp_relax_solve minimizes the quadratic form lam * c^T a + |X^T a|^2
(c_i = -q.x_i, X the candidate vectors as rows) over the capped simplex.
The form is |X^T a - t|^2 - |t|^2 for t = lam q / 2, so it is solved in the
candidates' d-dimensional image: by Wolfe's min-norm point over the images
of the k-sets, or, when t lies inside that image, by the least-norm a that
reaches it, found by semismooth Newton on a (d + 1)-dimensional dual.
Wolfe's corral keeps the Cholesky factor of its bordered Gram up to date
as vertices enter and leave, in Python floats, so its minor cycles call
no solver. This form absorbs constants differently from the greedy score,
so its lam is not numerically interchangeable with greedy's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def check_query(q: np.ndarray, d: int) -> float:
    """|q| (inf beyond float64), or ValueError unless the query q is a 1-d
    array of d finite coordinates. A finite |q| proves every coordinate
    finite, so only a NaN, an inf or a norm beyond float64 needs the scan;
    hypot scales, so it neither overflows nor warns where q @ q would."""
    if q.shape != (d,):
        raise ValueError(f"query must be a 1-d array of {d} coordinates, got shape {q.shape}")
    norm = math.hypot(*q.tolist())
    if not math.isfinite(norm) and not np.isfinite(q).all():
        raise ValueError("query has a NaN or infinite coordinate")
    return norm


def check_lam(lam: float) -> None:
    """Raise ValueError unless lam lies in [0, 1], which a NaN does not."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")


@dataclass(frozen=True)
class SelectionProblem:
    """Query + candidate pool. `ids` must be distinct and ascending, with
    `vectors[i]` the dense vector of candidate `ids[i]`; `query` is a 1-d
    array with one coordinate per column of `vectors`. The candidates'
    squared norms are kept in `_sq` and their largest in `_sq_max`, and
    |q| in `_q_norm`; together they bound every selector's scores
    (_check_scale): finite rows whose norms overflow are accepted here and
    refused by every selector."""

    query: np.ndarray
    ids: np.ndarray
    vectors: np.ndarray
    k: int
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "query", np.asarray(self.query, dtype=float))
        object.__setattr__(self, "ids", np.asarray(self.ids, dtype=int))
        object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=float))
        if self.vectors.ndim != 2:
            raise ValueError(f"candidate vectors must be a 2-d array, got shape {self.vectors.shape}")
        q_norm = check_query(self.query, self.vectors.shape[1])
        if self.k < 1:
            raise ValueError("k must be >= 1")
        check_lam(self.lam)
        if self.ids.ndim != 1:
            raise ValueError("candidate ids must be a 1-d array")
        if self.ids.size != self.vectors.shape[0]:
            raise ValueError("ids and vectors disagree on candidate count")
        if (self.ids[1:] <= self.ids[:-1]).any():
            raise ValueError("candidate ids must be distinct and ascending")
        sq = np.einsum("ij,ij->i", self.vectors, self.vectors)
        top = float(sq[sq.argmax()]) if sq.size else 0.0  # argmax costs less than max, and picks a NaN
        # einsum warns of no overflow; only a norm that is not finite needs
        # the scan that tells a bad coordinate from an overflowed norm
        if not math.isfinite(top) and not np.isfinite(self.vectors).all():
            raise ValueError("a candidate vector has a NaN or infinite coordinate")
        object.__setattr__(self, "_sq", sq)
        object.__setattr__(self, "_sq_max", top)
        object.__setattr__(self, "_q_norm", q_norm)

    @property
    def size(self) -> int:
        return self.ids.size


@dataclass(frozen=True)
class SelectionResult:
    ids: np.ndarray          # ordered, length min(k, #candidates)
    underfilled: bool


@dataclass(frozen=True)
class QpSolveReport:
    alpha: np.ndarray
    relaxed_objective: float
    iterations: int
    converged: bool
    gap: float  # Frank-Wolfe gap at alpha: relaxed_objective - gap <= relaxed optimum


_MAX = np.finfo(float).max


def check_scale(top: float, most: int) -> None:
    """Raise ValueError unless `most` * B is at most half the largest
    float64, B = `top` the largest squared norm among the candidates and
    the query. A caller passes the bound on its scores and sums in units
    of B (|x.y| <= B, |x - y|^2 <= 4B), so none of them overflows into a
    quiet wrong pick, with room left for rounding. A squared norm that
    overflowed is inf and fails, and a Python float product overflows to
    inf without a warning."""
    if not top <= _MAX / (2 * most):
        raise ValueError("candidate or query vectors too large: their selection scores would overflow float64")


def _check_scale(problem: SelectionProblem, most: int) -> None:
    """check_scale with B from the problem: its candidates' `_sq_max` and
    the square of its query's `_q_norm`. An empty pool has no scores to
    overflow, so it passes whatever its query."""
    if problem.size:
        check_scale(max(problem._sq_max, problem._q_norm * problem._q_norm), most)


def _sq_dists_to_query(problem: SelectionProblem) -> np.ndarray:
    diff = problem.vectors - problem.query
    return np.einsum("ij,ij->i", diff, diff)


def _result(problem: SelectionProblem, picked: list[int] | np.ndarray) -> SelectionResult:
    ids = problem.ids[picked]
    return SelectionResult(ids=ids, underfilled=ids.size < problem.k)


def top_k(keys: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k smallest keys (all of them when k >= their
    count), smallest first, ties to the lowest `ids` value; the ids need
    not be ascending. A partition finds the k-th key, and only the keys at
    or below it are sorted. A NaN key ranks last, as a full sort puts it:
    the mask "not above the k-th key" keeps it, and keeps every key when
    the k-th is NaN."""
    if k < keys.size:
        near = (~(keys > np.partition(keys, k - 1)[k - 1])).nonzero()[0]
    else:
        near = np.arange(keys.size)
    return near[np.lexsort((ids[near], keys[near]))][:k]


def select_nn(problem: SelectionProblem) -> SelectionResult:
    """Plain nearest neighbors: the k candidates closest to the query,
    nearest first, ties to the lowest id (top_k). Vectors so large that a
    squared distance could overflow float64 raise ValueError."""
    _check_scale(problem, 4)
    return _result(problem, top_k(_sq_dists_to_query(problem), problem.ids, problem.k))


def select_greedy_div(problem: SelectionProblem) -> SelectionResult:
    """Greedy accuracy/diversity selection: at iteration i (1-based) pick

        argmin_r  lam * |q - r|^2 - (1/i) * sum_{s in S} |r - s|^2

    over the remaining pool; the first pick is the pure NN since S starts
    empty; the diversity sum is divided by the 1-based iteration index.
    With p the sum of the picked rows,

        i * score_i(r) + sum_{s in S} |s|^2 = i * lam |q - r|^2 + (1 - i) |r|^2 + (2 r).p,

    and the left side ranks r as score_i does. So each pick after the first
    is one row-wise product of the m x (d + 2) array [2X | |r|^2 | lam |q - r|^2]
    with w = [p | 1 - i | i]: O(k m d) in all, and no m x m Gram matrix
    is formed. Ties go to the lowest id, exact ties between distinct rows
    included: on rows whose products are exact (small integers, a dyadic
    lam) the product is the exact left side, with no division to round.
    Vectors so large that a score could overflow float64 raise ValueError."""
    m = problem.size
    kk = min(problem.k, m)
    if kk == 0:
        return _result(problem, [])
    X = problem.vectors
    d = X.shape[1]
    # |r|^2 <= B, |q - r|^2 <= 4B and |r.p| <= (kk - 1) B, so every term and
    # partial sum of the product is at most 7 kk B: at most 7/8 of the
    # largest float64 under this bound, 4 kk B <= max / 2
    _check_scale(problem, 4 * kk)
    A = np.empty((m, d + 2))
    np.multiply(X, 2.0, out=A[:, :d])  # doubling is exact
    A[:, d] = problem._sq
    base = A[:, d + 1]
    np.multiply(_sq_dists_to_query(problem), problem.lam, out=base)  # picked rows get +inf
    # the first score is base; the first minimum is the lowest id on ties
    j = int(base.argmin())  # the method skips np.argmin's dispatch
    picked = [j]
    w, score = np.zeros(d + 2), np.empty(m)
    p = w[:d]  # the sum of the picked rows
    for i in range(2, kk + 1):
        p += X[j]
        w[d], w[d + 1] = 1 - i, i
        base[j] = np.inf
        # einsum reduces each row alone, so equal rows get equal bits; a BLAS
        # product need not, which would let a later twin win a tie
        np.einsum("ij,j->i", A, w, out=score)
        j = int(score.argmin())
        picked.append(j)
    return _result(problem, picked)


def select_mmr(problem: SelectionProblem) -> SelectionResult:
    """Maximal marginal relevance with sim(a, b) = a.b: first pick is the
    max-similarity candidate, then argmax of
    lam * sim(q, r) - (1 - lam) * max_{s in S} sim(r, s).

    Ties go to the lowest id: the similarities are row-wise einsums, which
    give equal rows equal bits where a BLAS product need not. Vectors so
    large that a similarity could overflow float64 raise ValueError."""
    X = problem.vectors
    _check_scale(problem, 1)
    m = problem.size
    kk = min(problem.k, m)
    if kk == 0:
        return _result(problem, [])
    sims = np.einsum("ij,j->i", X, problem.query)
    j = int(sims.argmax())
    picked = [j]
    rel = problem.lam * sims  # picked entries get -inf so they never win argmax
    max_sel = np.full(m, -np.inf)  # max similarity to any selected point
    col, score = np.empty(m), np.empty(m)
    for _ in range(1, kk):
        rel[j] = -np.inf
        np.einsum("ij,j->i", X, X[j], out=col)
        np.maximum(max_sel, col, out=max_sel)
        np.multiply(max_sel, 1.0 - problem.lam, out=score)
        np.subtract(rel, score, out=score)
        j = int(score.argmax())
        picked.append(j)
    return _result(problem, picked)


def select_rerank(problem: SelectionProblem) -> SelectionResult:
    """Backward selection: restrict to the 3 * k nearest candidates
    (top_k), then greedily grow the set maximizing summed squared distance
    to the points already chosen, starting from the nearest. Only the pool
    is scored, in ascending id order, so argmax gives ties to the lowest
    id. Vectors so large that a score could overflow float64 raise
    ValueError."""
    if problem.size == 0:
        return _result(problem, [])
    kk = min(problem.k, problem.size)
    _check_scale(problem, 4 * kk)  # a diversity sum adds kk squared distances
    pool = top_k(_sq_dists_to_query(problem), problem.ids, 3 * problem.k)
    rest = np.sort(pool[1:])
    picked = [pool[0]]
    X = problem.vectors[rest]
    sum_div = np.zeros(rest.size)
    for _ in range(kk - 1):
        diff = X - problem.vectors[picked[-1]]
        sum_div += np.einsum("ij,ij->i", diff, diff)
        j = int(sum_div.argmax())
        picked.append(rest[j])
        sum_div[j] = -np.inf
    return _result(problem, picked)


def _power_of_two_near(r: float) -> float:
    """The power of two nearest r > 0 on a log scale, 1.0 for r = 0.
    Dividing by it is exact, so a problem scaled by any power of two is
    solved on the same bits."""
    if r == 0.0:
        return 1.0
    mant, e = math.frexp(r)  # r = mant * 2^e with 0.5 <= mant < 1
    return math.ldexp(1.0, e - (mant < math.sqrt(0.5)))


def _oracle(X: np.ndarray, t: np.ndarray, k: int, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The linear oracle of P = Z - t at y: the k-set S minimizing y.(X^T 1[S]),
    the k smallest entries of X y, and its vertex X^T 1[S] - t."""
    S = (X @ y).argpartition(k - 1)[:k]
    v = np.add.reduce(X[S])
    v -= t
    return S, v


def _factor_row(a: list[float], L: list[list[float]], y: list[float]) -> bool:
    """Append to L, the lower Cholesky factor of a positive definite
    matrix M, and to y = L^-1 1 the rows that M bordered by `a` (its new
    last row, diagonal last) adds, or return False and leave both as they
    are when the pivot is not positive: the new row is dependent on the
    others up to rounding. Every sum runs left to right over ascending p:

        L_ij = (a_j - sum_{p<j} L_ip L_jp) / L_jj,  L_ii = sqrt(a_i - sum_{p<i} L_ip^2),
        y_i = (1 - sum_{p<i} L_ip y_p) / L_ii."""
    row = []
    for j, Lj in enumerate(L):
        s = a[j]
        for p in range(j):
            s -= row[p] * Lj[p]
        row.append(s / Lj[j])
    s = a[len(L)]
    for u in row:
        s -= u * u
    if not s > 0.0:  # a NaN too
        return False
    piv = math.sqrt(s)
    s = 1.0
    for u, w in zip(row, y):
        s -= u * w
    row.append(piv)
    L.append(row)
    y.append(s / piv)
    return True


def _affine_weights(L: list[list[float]], y: list[float]) -> list[float]:
    """mu = L^-T y scaled to sum 1, for L and y as _factor_row keeps them:
    mu_i = (y_i - sum_{p>i} L_pi mu_p) / L_ii from the last row up, each
    sum over ascending p, then each mu_i divided by their sum, taken left
    to right."""
    r = len(y)
    mu = [0.0] * r
    for i in range(r - 1, -1, -1):
        s = y[i]
        for p in range(i + 1, r):
            s -= L[p][i] * mu[p]
        mu[i] = s / L[i][i]
    total = mu[0]
    for u in mu[1:]:
        total += u
    return [u / total for u in mu]


def _wolfe(X: np.ndarray, t: np.ndarray, k: int, S: np.ndarray, v: np.ndarray, max_iter: int,
           tol: float) -> tuple[np.ndarray, int]:
    """Wolfe's min-norm point of P = Z - t, started at its vertex v, the
    image of the k-set S. The corral holds affinely independent vertices,
    so at most d + 1. Each major cycle adds the oracle's vertex at the
    current point x; each minor cycle moves x to the corral's affine
    min-norm point, weights mu solving (G + 1 1^T) mu = 1 up to scale for
    the corral Gram G, or as far toward it as the weights stay
    nonnegative, dropping the vertex whose weight reaches zero. |x| falls
    at every major cycle, and x stops once the Frank-Wolfe gap
    2 (|x|^2 - x.v) is at most tol * max(1, |f|), f = |x|^2 - |t|^2, or
    after max_iter vertices past the first, or when the Cholesky factor of
    G + 1 1^T finds a vertex dependent on the others up to rounding (a
    pivot that is not positive): x stays at its last point. Returns
    alpha, the corral's weighted sum of k-set indicators, exactly 1.0 for
    a candidate in every k-set, and the count of vertices added.

    As in Wolfe (Math. Programming 1976), the factor is updated, not
    re-solved: the lower triangle of G + 1 1^T, its Cholesky factor L and
    y = L^-1 1 are Python-float rows. A vertex that enters appends one
    row to each (_factor_row); a drop compacts the rows in order and
    re-factors from the first dropped one; and each minor cycle's mu is
    L^-T y by back substitution (_affine_weights). The weights, the ratio
    test (the first minimum wins) and the step toward mu are Python floats
    too, so only a drop's compaction of the corral's k-sets and vertices
    calls numpy within a minor cycle."""
    m, d = X.shape
    sets = np.empty((d + 1, k), dtype=np.intp)
    V = np.empty((d + 1, d))
    sets[0], V[0] = S, v
    xx = float(v.dot(v))  # 1-d .dot is the ddot that @ calls, minus its dispatch
    A, L, y = [[xx + 1.0]], [], []
    _factor_row(A[0], L, y)  # its pivot is at least 1
    lam, x = [1.0], v
    tt = float(t.dot(t))
    it = 0
    while it < max_iter:
        S, v = _oracle(X, t, k, x)
        drop = xx - float(x.dot(v))
        vv = float(v.dot(v))
        # the gap rule, or a drop below rounding, where v lies in the corral's affine hull
        if 2.0 * drop <= tol * max(1.0, abs(xx - tt)) or drop <= 1e-14 * math.sqrt(xx * vv):
            break
        r = len(lam)
        if r == d + 1:
            break  # a full corral spans R^d: x is 0 up to rounding
        row = (V[:r].dot(v) + 1.0).tolist()
        row.append(vv + 1.0)
        if not _factor_row(row, L, y):
            break
        it += 1
        sets[r], V[r] = S, v
        A.append(row)
        lam.append(0.0)
        while True:
            mu = _affine_weights(L, y)
            if min(mu) > 0.0:
                break
            # step from lam toward mu until the first weight reaches zero
            j = step = -1
            for i, u in enumerate(mu):
                if u <= 0.0:
                    room = lam[i] - u
                    ratio = lam[i] / room if room > 0.0 else 0.0
                    if j < 0 or ratio < step:
                        j, step = i, ratio
            lam = [a + step * (u - a) for a, u in zip(lam, mu)]
            lam[j] = 0.0
            # drop vertex j, and any other whose weight rounding took to 0,
            # compacting in order; rows before the first keep their factor
            out = [i for i, a in enumerate(lam) if not a > 0.0]
            for i in reversed(out):
                n = len(lam) - 1
                sets[i:n], V[i:n] = sets[i + 1 : n + 1], V[i + 1 : n + 1]
                del lam[i], A[i]
                for a in A[i:]:
                    del a[i]
            del L[out[0] :], y[out[0] :]
            if not all(_factor_row(a, L, y) for a in A[out[0] :]):
                mu = None  # the corral left is dependent up to rounding: keep lam
                break
        if mu is None:
            break
        lam = mu
        x = np.array(lam).dot(V[: len(lam)])
        new_xx = float(x.dot(x))
        if not new_xx < xx:
            break  # rounding left no descent
        xx = new_xx
    r = len(lam)
    sets = sets[:r].ravel()
    alpha = np.bincount(sets, weights=np.repeat(lam, k), minlength=m)
    alpha[np.bincount(sets, minlength=m) == r] = 1.0
    return alpha, it


_NEWTON_STEPS = 20   # successful solves take at most about 7
_NEWTON_TOL = 1e-13  # on |(X^T a - t, sum(a) - k)| relative to |(t, k)|
_WOLFE_VERTICES = 500  # vertices Wolfe's algorithm adds past its first
_WOLFE_TOL = 1e-8      # on its Frank-Wolfe gap relative to max(1, |f|)


def _min_norm_alpha(X: np.ndarray, t: np.ndarray, k: int) -> np.ndarray | None:
    """The least-norm a with X^T a = t, sum(a) = k and 0 <= a <= 1, or
    None when there is none (t outside Z) or Newton's method does not
    reach it. Its dual is the unconstrained convex problem in w = (y, tau)

        min psi(w) = sum_i h(x_i.y + tau) - t.y - k tau,

    h(s) = 0, s^2/2 or s - 1/2 below 0, on [0, 1] and above 1, whose
    gradient is (X^T a - t, sum(a) - k) at a = clip(X y + tau, 0, 1). A
    semismooth Newton step solves with the generalized Hessian, the Gram
    of [X, 1] over the rows strictly inside (0, 1), and a backtracking line
    search keeps it descending. When t lies outside Z, psi falls without
    bound along a y that separates t from Z, and the iterate's own y soon
    proves it. The start w = (0, k/m) is a = k/m, so when no weight reaches
    a bound the first step is the exact least-squares projection of
    a = k/m onto X^T a = t, sum(a) = k. Equal rows of X get equal weights:
    s is a row-wise einsum."""
    m, d = X.shape
    A = np.column_stack([X, np.ones(m)])
    b = np.append(t, k)
    stop = _NEWTON_TOL * math.sqrt(float(b @ b))

    def dual(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, np.ndarray, float]:
        s = np.einsum("ij,j->i", A, w)
        a = np.clip(s, 0.0, 1.0)
        grad = A.T @ a - b
        return s, a, float(a @ (s - 0.5 * a) - b @ w), grad, math.sqrt(float(grad @ grad))

    w = np.zeros(d + 1)
    w[d] = k / m
    s, a, psi, grad, gn = dual(w)
    for i in range(_NEWTON_STEPS):
        if gn <= stop:
            return a
        # y separates t from Z once t.y exceeds the largest y.z over Z, the
        # sum of the k largest entries of X y, that is once b.w exceeds the
        # sum of the k largest entries of s, by more than rounding (the rows
        # and t have norms below 2); the start has y = 0
        if i and b @ w - np.partition(s, m - k)[m - k:].sum() > 1e-12 * (k + 2) * math.sqrt(float(w @ w)):
            return None
        AF = A[(s > 0.0) & (s < 1.0)]
        # the Gram H of the free rows is singular when they span fewer than
        # d + 1 dimensions (twins, or too few of them): a gradient step of
        # length at most 1 runs along its null space, which only rows at a
        # bound can end
        ev, U = np.linalg.eigh(AF.T @ AF)
        inv = np.divide(1.0, ev, out=np.full(d + 1, 1.0 / gn), where=ev > 1e-12 * ev[-1])
        step = U @ (inv * (U.T @ -grad))
        slope = float(grad @ step)
        h = 1.0
        while True:
            w2 = w + h * step
            s2, a2, psi2, grad2, gn2 = dual(w2)
            # near the solution psi's decrease drops below its rounding,
            # and the gradient's does not
            if psi2 <= psi + 1e-4 * h * slope or gn2 <= (1.0 - 1e-4 * h) * gn:
                break
            h *= 0.5
            if h < 1e-12:
                return None
        w, s, a, psi, grad, gn = w2, s2, a2, psi2, grad2, gn2
    return None


def _relaxed_alpha(problem: SelectionProblem) -> tuple[np.ndarray, int, np.ndarray, np.ndarray, float]:
    """The solve that qp_relax_solve describes, without its certificate:
    returns alpha, the count of vertices added, and the X and t it was
    solved on with the power of two they were divided by."""
    m = problem.size
    if m == 0:
        raise ValueError("QP relaxation needs a nonempty candidate set")
    if problem.k > m:
        raise ValueError(f"k={problem.k} exceeds candidate count {m}")
    k = problem.k
    # a vertex sums k rows, so |v| <= k sqrt(B) + |t| <= (k + 1/2) sqrt(B)
    # for B bounding |x|^2 and |q|^2, and a Gram entry or the gap
    # 2 (|x|^2 - x.v) is at most (2k + 1)^2 B; the Newton Gram sums m
    # products of at most B
    _check_scale(problem, max(m, (2 * k + 1) ** 2))
    t = 0.5 * problem.lam * problem.query
    scale = _power_of_two_near(max(math.sqrt(problem._sq_max), math.hypot(*t.tolist())))
    X, t = problem.vectors / scale, t / scale
    p = X.sum(axis=0) * (k / m) - t
    S, v = _oracle(X, t, k, p)
    alpha, it = None, 0
    if p @ v <= 0.0:  # p.v, the least p.(z - t) over Z, is positive only when t lies outside Z
        alpha = _min_norm_alpha(X, t, k)
    if alpha is None:
        alpha, it = _wolfe(X, t, k, S, v, _WOLFE_VERTICES, _WOLFE_TOL)
    return alpha, it, X, t, scale


def qp_relax_solve(problem: SelectionProblem) -> QpSolveReport:
    """Minimize f(a) = lam * c^T a + |X^T a|^2 over the capped simplex
    {sum a = k, 0 <= a <= 1}.

    With t = lam q / 2, f(a) = |X^T a - t|^2 - |t|^2, so f depends on a only
    through the d-vector X^T a: the problem is the min-norm point of
    P = Z - t, Z = {X^T a}, whose vertices are the images of the k-sets.
    Wolfe's algorithm finds it in d-space (Wolfe, Math. Programming 1976;
    _wolfe), with the corral's affine min-norm weights taken from a
    Cholesky factor that is updated as vertices enter and leave, as in
    Wolfe's paper, not re-solved. It is a fully corrective Frank-Wolfe
    method (Lacoste-Julien & Jaggi, NeurIPS 2015), started at the vertex
    that Frank-Wolfe steps to from a = k/m and stopped on the Frank-Wolfe
    gap, or where the factor finds the corral dependent up to rounding.
    `iterations` counts the vertices added past that first one, and
    _WOLFE_VERTICES bounds it. The returned alpha is sum_j lam_j 1[S_j]
    over the corral's k-sets S_j, with exactly 1.0 where a candidate lies
    in every one, so ties among the ones go by id.

    When t lies in Z, every a with X^T a = t is optimal, and alpha is the
    least-norm one, the projection of a = k/m onto the optimal set
    (_min_norm_alpha), with iterations 0. It is sought first unless the
    start vertex v, at the image p of a = k/m, proves t outside Z by
    p.v > 0; Wolfe runs when there is no such a.

    The problem is solved on X and t divided by the power of two nearest
    the larger of the largest candidate norm and |t|, so a problem scaled
    by a power of two gets the same alpha. relaxed_objective, gap and
    converged are computed from the returned alpha, converged being
    gap <= _WOLFE_TOL * max(1, |f|) on the scaled problem; select_qp_rel
    runs the same solve and skips this certificate. Vectors so large that
    a vertex, a corral Gram entry (up to (k sqrt(B) + |t|)^2), the gap or
    the Newton Gram over m rows could overflow float64 raise ValueError.
    """
    alpha, it, X, t, scale = _relaxed_alpha(problem)
    k = problem.k
    # the certificate, from alpha
    p = X.T @ alpha - t
    g = X @ p
    f = float(p @ p - t @ t)
    gap = 2.0 * float(g @ alpha - np.partition(g, k - 1)[:k].sum())
    return QpSolveReport(alpha=alpha, relaxed_objective=f * scale * scale, iterations=it,
                         converged=gap <= _WOLFE_TOL * max(1.0, abs(f)), gap=gap * scale * scale)


def select_qp_rel(problem: SelectionProblem) -> SelectionResult:
    """Round the relaxed solution: keep the k largest fractional weights
    (ties by ascending id). The weights are qp_relax_solve's alpha, bit for
    bit, from the same solve without the certificate (objective and gap),
    which rounding does not read. With fewer candidates than k the whole
    pool is returned underfilled (the relaxation is only solvable for
    k <= n)."""
    if problem.k >= problem.size:
        return _result(problem, list(range(problem.size)))
    alpha = _relaxed_alpha(problem)[0]
    return _result(problem, top_k(-alpha, problem.ids, problem.k))
