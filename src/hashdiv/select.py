"""Retrieval / diversification strategies over a candidate set.

All selectors consume a SelectionProblem whose candidates are kept in
ascending-id order and break score ties by ascending id, which makes every
strategy a pure deterministic function of its input.

qp_relax_solve minimizes the quadratic form lam * c^T a + |X^T a|^2
(c_i = -q.x_i, X the candidate vectors as rows, so |X^T a|^2 = a^T G a for
the Gram matrix G, which is never formed) over the capped simplex by
spectral projected gradient with face steps; this form absorbs constants
differently from the greedy score, so its lam is not numerically
interchangeable with greedy's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import project_capped_simplex


@dataclass(frozen=True)
class SelectionProblem:
    """Query + candidate pool. `ids` must be distinct and ascending, with
    `vectors[i]` the dense vector of candidate `ids[i]`; `query` is a 1-d
    array with one coordinate per column of `vectors`. The candidates'
    squared norms are kept in `_sq` and their largest in `_sq_max`, which
    bounds every selector's scores (_check_scale): finite rows whose norms
    overflow are accepted here and refused by every selector."""

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
        if self.query.shape != self.vectors.shape[1:]:
            raise ValueError(f"query must be a 1-d array of {self.vectors.shape[1]} coordinates, got shape {self.query.shape}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")
        if self.ids.ndim != 1:
            raise ValueError("candidate ids must be a 1-d array")
        if self.ids.size != self.vectors.shape[0]:
            raise ValueError("ids and vectors disagree on candidate count")
        if not np.isfinite(self.query).all():
            raise ValueError("query has a NaN or infinite coordinate")
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


def _check_scale(problem: SelectionProblem, most: int) -> None:
    """Raise ValueError unless `most` * B is at most half the largest
    float64, B the largest squared norm among the candidates (the
    problem's `_sq_max`) and the query. A selector passes the bound on its
    scores and sums in units of B (|x.y| <= B, |x - y|^2 <= 4B), so none
    of them overflows into a quiet wrong pick, with room left for
    rounding. A squared norm that overflowed is inf and fails; hypot
    scales, so |q| cannot overflow on the way, and a Python float product
    overflows to inf without a warning."""
    qn = math.hypot(*problem.query.tolist())
    if not max(problem._sq_max, qn * qn) <= _MAX / (2 * most):
        raise ValueError("candidate or query vectors too large: their selection scores would overflow float64")


def _sq_dists_to_query(problem: SelectionProblem) -> np.ndarray:
    diff = problem.vectors - problem.query
    return np.einsum("ij,ij->i", diff, diff)


def _result(problem: SelectionProblem, picked: list[int]) -> SelectionResult:
    ids = problem.ids[picked]
    return SelectionResult(ids=ids, underfilled=ids.size < problem.k)


def select_nn(problem: SelectionProblem) -> SelectionResult:
    """Plain nearest neighbors: the k candidates closest to the query,
    nearest first, ties to the lowest id. Only the candidates within the
    k-th smallest distance, found by a partition, are sorted. Vectors so
    large that a squared distance could overflow float64 raise ValueError."""
    _check_scale(problem, 4)
    d2 = _sq_dists_to_query(problem)
    near = np.arange(d2.size)
    if problem.k < d2.size:
        near = np.flatnonzero(d2 <= d2[np.argpartition(d2, problem.k - 1)[problem.k - 1]])
    order = near[np.lexsort((problem.ids[near], d2[near]))]
    return _result(problem, list(order[: problem.k]))


def select_greedy_div(problem: SelectionProblem) -> SelectionResult:
    """Greedy accuracy/diversity selection: at iteration i (1-based) pick

        argmin_r  lam * |q - r|^2 - (1/i) * sum_{s in S} |r - s|^2

    over the remaining pool; the first pick is the pure NN since S starts
    empty; the diversity sum is divided by the 1-based iteration index.
    Ties go to the lowest id. Each pick but the last adds one column of
    X X^T, computed on demand, so the cost is O(k m d) and no m x m Gram
    matrix is formed. Vectors so large that a score could overflow float64
    raise ValueError."""
    m = problem.size
    kk = min(problem.k, m)
    if kk == 0:
        return _result(problem, [])
    X, sq = problem.vectors, problem._sq
    _check_scale(problem, 4 * kk)  # a diversity sum adds kk - 1 squared distances
    base = problem.lam * _sq_dists_to_query(problem)  # picked entries get +inf so they never win argmin
    # the diversity sum is still zero at the first pick, so its score is
    # base; the first minimum is the lowest id on ties
    picked = [int(base.argmin())]
    sum_div = np.zeros(m)  # sum of |r - s|^2 over already-picked s
    col, score = np.empty(m), np.empty(m)
    for i in range(2, kk + 1):
        j = picked[-1]
        base[j] = np.inf
        # |r - s_j|^2 = sq + (sq[j] - 2 x_r.x_j), in the same IEEE steps:
        # x * -2 and a + -b are exact rewrites of -(2 x) and a - b.
        # einsum reduces each row alone, so equal rows get equal bits; a BLAS
        # product need not, which would let a later twin win a tie. The -2
        # stays out of the einsum, as it would round subnormal products.
        np.einsum("ij,j->i", X, X[j], out=col)
        col *= -2.0
        col += sq[j]
        col += sq
        sum_div += col
        np.divide(sum_div, i, out=score)
        np.subtract(base, score, out=score)
        picked.append(int(score.argmin()))  # the method skips np.argmin's dispatch
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
    sims = np.einsum("ij,j->i", X, problem.query)
    m = problem.size
    kk = min(problem.k, m)
    available = np.ones(m, dtype=bool)
    max_sel = np.full(m, -np.inf)  # max similarity to any selected point
    picked: list[int] = []
    for i in range(kk):
        if i == 0:
            score = sims.copy()
        else:
            score = problem.lam * sims - (1.0 - problem.lam) * max_sel
        score[~available] = -np.inf
        j = int(score.argmax())
        picked.append(j)
        available[j] = False
        np.maximum(max_sel, np.einsum("ij,j->i", X, X[j]), out=max_sel)
    return _result(problem, picked)


def select_rerank(problem: SelectionProblem) -> SelectionResult:
    """Backward selection: restrict to the 3 * k nearest candidates, then
    greedily grow the set maximizing summed squared distance to the points
    already chosen, starting from the nearest. Vectors so large that a
    score could overflow float64 raise ValueError."""
    if problem.size == 0:
        return _result(problem, [])
    m = problem.size
    kk = min(problem.k, m)
    _check_scale(problem, 4 * kk)  # a diversity sum adds kk squared distances
    d2q = _sq_dists_to_query(problem)
    pool_size = min(3 * problem.k, m)
    by_distance = np.lexsort((problem.ids, d2q))
    in_pool = np.zeros(m, dtype=bool)
    in_pool[by_distance[:pool_size]] = True

    nearest = int(by_distance[0])
    picked = [nearest]
    in_pool[nearest] = False
    sum_div = np.zeros(m)
    diff = problem.vectors - problem.vectors[nearest]
    sum_div += np.einsum("ij,ij->i", diff, diff)
    for _ in range(kk - 1):
        score = np.where(in_pool, sum_div, -np.inf)
        j = int(np.argmax(score))
        picked.append(j)
        in_pool[j] = False
        diff = problem.vectors - problem.vectors[j]
        sum_div += np.einsum("ij,ij->i", diff, diff)
    return _result(problem, picked)


def _fw_gap(grad: np.ndarray, alpha: np.ndarray, k: int) -> float:
    """Frank-Wolfe duality gap g.a - min over the capped simplex of g.z; the
    minimizer puts weight 1 on the k smallest gradient entries (Jaggi,
    ICML 2013). For a convex objective f(a) - gap lower-bounds the minimum."""
    return float(grad @ alpha - np.partition(grad, k - 1)[:k].sum())


def _face_step(X: np.ndarray, alpha: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Minimize |X^T a - target|^2 over the face of the capped simplex that
    alpha lies on: the coordinates strictly inside (0, 1) move by the
    min-norm least-squares step delta with sum(delta) = 0, cut short where a
    coordinate reaches a bound. The objective is convex along delta with its
    minimum at the full step, so the cut step still descends. This is the
    face phase of GPCG (More & Toraldo, SIAM J. Optim. 1991); as X^T a has
    only d entries, a direct least-squares solve replaces its conjugate
    gradients."""
    free = np.flatnonzero((alpha > 0.0) & (alpha < 1.0))
    if free.size < 2:
        return alpha
    B = X[free].T
    # with centered columns the step moves X^T a as B @ delta does for any
    # sum(delta) = 0; centering delta again removes the rounding that an
    # ill-conditioned B leaves in its sum
    delta = np.linalg.lstsq(B - B.mean(axis=1, keepdims=True), target - X.T @ alpha, rcond=1e-10)[0]
    delta -= delta.mean()
    a = alpha[free]
    with np.errstate(divide="ignore"):
        room = np.where(delta > 0, 1.0 - a, a) / np.abs(delta)
    out = alpha.copy()
    out[free] = np.clip(a + min(1.0, float(room.min())) * delta, 0.0, 1.0)
    return out


def qp_relax_solve(problem: SelectionProblem, max_iter: int = 500, tol: float = 1e-8) -> QpSolveReport:
    """Minimize f(a) = lam * c^T a + |X^T a|^2 over the capped simplex
    {sum a = k, 0 <= a <= 1}, started at a = k/m.

    Each iteration takes one spectral projected gradient step (Birgin,
    Martinez & Raydan, SIAM J. Optim. 2000): it projects a - s g, moves
    along d = proj - a by the exact line minimizer
    t = min(1, -g.d / (2 |X^T d|^2)) and sets the next s to the
    Barzilai-Borwein step |d|^2 / (2 |X^T d|^2), clamped to [1e-10, 1e10],
    the first s being 1 / (2 lambda_max(X^T X)). The step picks the face;
    a face step (_face_step) then minimizes on it. Neither step raises f.
    f is convex, so the iterate is converged once the Frank-Wolfe gap is at
    most tol * max(1, |f|) or the gradient step t |d| is at most tol.
    Vectors so large that X^T X or a gradient could overflow float64
    raise ValueError.
    """
    m = problem.size
    if m == 0:
        raise ValueError("QP relaxation needs a nonempty candidate set")
    if problem.k > m:
        raise ValueError(f"k={problem.k} exceeds candidate count {m}")
    X = problem.vectors
    k = problem.k
    # an entry of X^T X sums m products; |X^T a| <= k |x|, so a gradient
    # entry is at most (2k + 1) B and its dot with a step of 1-norm 2k at
    # most 2k (2k + 1) B
    _check_scale(problem, max(m, 2 * k * (2 * k + 1)))
    # lam * c = -2 X target, so f(a) = |X^T a - target|^2 - |target|^2
    target = 0.5 * problem.lam * problem.query

    def evaluate(a: np.ndarray) -> tuple[np.ndarray, float, float]:
        xa = X.T @ a
        grad = 2.0 * (X @ (xa - target))
        f = float(xa @ (xa - 2.0 * target))
        return grad, f, _fw_gap(grad, a, k)

    alpha = np.full(m, k / m)
    grad, f, gap = evaluate(alpha)
    converged = gap <= tol * max(1.0, abs(f))
    top = float(np.linalg.eigvalsh(X.T @ X)[-1])
    step = 1.0 / (2.0 * top) if top > 0 else 1.0
    it = 0
    while not converged and it < max_iter:
        it += 1
        d = project_capped_simplex(alpha - step * grad, k) - alpha
        xd = X.T @ d
        curv = float(xd @ xd)
        dd = float(d @ d)
        t = 1.0 if curv <= 0 else min(1.0, max(0.0, -float(grad @ d) / (2.0 * curv)))
        step = 1e10 if curv <= 0 else min(1e10, max(1e-10, dd / (2.0 * curv)))
        alpha = _face_step(X, alpha + t * d, target)
        grad, f, gap = evaluate(alpha)
        converged = gap <= tol * max(1.0, abs(f)) or t * math.sqrt(dd) <= tol
    return QpSolveReport(alpha=alpha, relaxed_objective=f, iterations=it, converged=converged, gap=gap)


def select_qp_rel(problem: SelectionProblem, max_iter: int = 500, tol: float = 1e-8) -> SelectionResult:
    """Round the relaxed solution: keep the k largest fractional weights
    (ties by ascending id). With fewer candidates than k the whole pool is
    returned underfilled (the relaxation is only solvable for k <= n)."""
    if problem.size == 0:
        return _result(problem, [])
    if problem.k >= problem.size:
        return _result(problem, list(range(problem.size)))
    report = qp_relax_solve(problem, max_iter=max_iter, tol=tol)
    order = np.lexsort((problem.ids, -report.alpha))
    return _result(problem, list(order[: problem.k]))
