import numpy as np
import pytest
from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hashdiv.hashing import PLAIN, new_family
from hashdiv.lsh import build, query
from hashdiv.select import (
    SelectionProblem,
    qp_relax_solve,
    select_greedy_div,
    select_mmr,
    select_nn,
    select_qp_rel,
    select_rerank,
)

# ---------------------------------------------------------------------------
# naive reference selectors: literal pure-python loops over the definitions,
# independent of the library's vectorized implementations
# ---------------------------------------------------------------------------


def sqd(a, b):
    return float(sum((x - y) ** 2 for x, y in zip(a, b)))


def ref_nn(q, ids, X, k):
    order = sorted(range(len(ids)), key=lambda i: (sqd(q, X[i]), ids[i]))
    return [ids[i] for i in order[:k]]


def ref_greedy(q, ids, X, k, lam):
    remaining = list(range(len(ids)))
    chosen = []
    for i in range(1, min(k, len(ids)) + 1):
        best, best_score = None, None
        for r in remaining:
            score = lam * sqd(q, X[r]) - sum(sqd(X[r], X[s]) for s in chosen) / i
            if best is None or score < best_score or (score == best_score and ids[r] < ids[best]):
                best, best_score = r, score
        chosen.append(best)
        remaining.remove(best)
    return [ids[i] for i in chosen]


def ref_mmr(q, ids, X, k, lam):
    def sim(a, b):
        return float(sum(x * y for x, y in zip(a, b)))

    remaining = list(range(len(ids)))
    chosen = []
    for step in range(min(k, len(ids))):
        best, best_score = None, None
        for r in remaining:
            if not chosen:
                score = sim(q, X[r])
            else:
                score = lam * sim(q, X[r]) - (1 - lam) * max(sim(X[r], X[s]) for s in chosen)
            if best is None or score > best_score or (score == best_score and ids[r] < ids[best]):
                best, best_score = r, score
        chosen.append(best)
        remaining.remove(best)
    return [ids[i] for i in chosen]


def ref_rerank(q, ids, X, k):
    pool_size = min(3 * k, len(ids))
    by_dist = sorted(range(len(ids)), key=lambda i: (sqd(q, X[i]), ids[i]))
    pool = by_dist[:pool_size]
    chosen = [pool[0]]
    pool = pool[1:]
    while pool and len(chosen) < min(k, len(ids)):
        best, best_score = None, None
        for r in pool:
            score = sum(sqd(X[r], X[s]) for s in chosen)
            if best is None or score > best_score or (score == best_score and ids[r] < ids[best]):
                best, best_score = r, score
        chosen.append(best)
        pool.remove(best)
    return [ids[i] for i in chosen]


def eq2_objective(q, X, subset, lam):
    subset = list(subset)
    c = sum(-float(np.dot(q, X[i])) for i in subset)
    g = sum(float(np.dot(X[i], X[j])) for i in subset for j in subset)
    return lam * c + g


def twin_problem(seed, m, d, n_dup, k, lam):
    """m random rows plus copies of n_dup of them, twins at scattered positions."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(d)
    X = rng.standard_normal((m, d))
    X = np.vstack([X, X[rng.choice(m, size=min(n_dup, m), replace=False)]])
    X = X[rng.permutation(X.shape[0])]
    return SelectionProblem(q, np.arange(X.shape[0]), X, k=k, lam=lam)


def random_problem(seed, n=12, d=5, k=3, lam=0.5, clustered=False):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(d)
    q /= np.linalg.norm(q)
    X = rng.standard_normal((n, d))
    if clustered:
        X = q + 0.4 * X
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return SelectionProblem(query=q, ids=np.arange(n), vectors=X, k=k, lam=lam)


class TestSelectNn:
    def test_duplicate_of_query_wins(self):
        q = np.array([1.0, 0.0])
        prob = SelectionProblem(q, [0, 1], np.array([[1.0, 0.0], [0.0, 1.0]]), k=1, lam=0.5)
        assert select_nn(prob).ids.tolist() == [0]

    def test_underfill(self):
        q = np.array([1.0, 0.0])
        prob = SelectionProblem(q, [0, 1], np.array([[1.0, 0.0], [0.0, 1.0]]), k=5, lam=0.5)
        res = select_nn(prob)
        assert res.ids.tolist() == [0, 1]
        assert res.underfilled

    def test_matches_sort_oracle(self):
        for seed in range(20):
            prob = random_problem(seed, n=10, k=3)
            ref = ref_nn(prob.query, prob.ids.tolist(), prob.vectors.tolist(), 3)
            assert select_nn(prob).ids.tolist() == ref


class TestSelectGreedyDiv:
    def test_k1_is_nn(self):
        for lam in (0.1, 0.5, 1.0):
            prob = random_problem(7, k=1, lam=lam)
            assert select_greedy_div(prob).ids.tolist() == select_nn(prob).ids.tolist()

    def test_lambda_one_set_is_k_nearest(self):
        # at lam=1 the order can differ from NN but the formula still applies;
        # check the scoring rule directly instead of assuming NN equivalence
        prob = random_problem(3, lam=1.0)
        ref = ref_greedy(prob.query, prob.ids.tolist(), prob.vectors.tolist(), prob.k, 1.0)
        assert select_greedy_div(prob).ids.tolist() == ref

    def test_collinear_second_pick(self):
        # three candidates on a ray from q; first pick nearest, second pick by
        # enumerating the greedy scoring expression over the two leftovers
        q = np.array([1.0, 0.0])
        X = np.array([[0.9, 0.0], [0.8, 0.0], [0.0, 0.0]])
        lam = 0.5
        prob = SelectionProblem(q, [0, 1, 2], X, k=2, lam=lam)
        res = select_greedy_div(prob)
        assert res.ids[0] == 0
        scores = {r: lam * sqd(q, X[r]) - sqd(X[r], X[0]) / 2 for r in (1, 2)}
        assert res.ids[1] == min(scores, key=scores.get)

    def test_matches_reference(self):
        for seed in range(30):
            prob = random_problem(seed, n=14, k=4, lam=0.4)
            ref = ref_greedy(prob.query, prob.ids.tolist(), prob.vectors.tolist(), 4, 0.4)
            assert select_greedy_div(prob).ids.tolist() == ref

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 160),
        d=st.sampled_from([5, 8, 24]),
        n_dup=st.integers(1, 160),
        k=st.integers(1, 12),
        lam=st.sampled_from([0.25, 0.5, 0.75]),
    )
    # here a BLAS Gram matrix gives twins 0 and 36 different last bits, and
    # a greedy that reads it picks 36 second
    @example(seed=7, m=19, d=8, n_dup=19, k=10, lam=0.5)
    def test_duplicate_rows_tie_to_lowest_id(self, seed, m, d, n_dup, k, lam):
        prob = twin_problem(seed, m, d, n_dup, k, lam)
        ref = ref_greedy(prob.query, prob.ids.tolist(), prob.vectors.tolist(), k, lam)
        assert select_greedy_div(prob).ids.tolist() == ref


class TestSelectMmr:
    def test_lambda_one_equals_nn(self):
        for seed in range(10):
            prob = random_problem(seed, lam=1.0)
            assert select_mmr(prob).ids.tolist() == select_nn(prob).ids.tolist()

    def test_pure_novelty_picks_distinct(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        prob = SelectionProblem(a, [0, 1, 2], np.array([a, a, b]), k=2, lam=0.0)
        res = select_mmr(prob)
        assert res.ids[0] == 0
        assert res.ids[1] == 2

    def test_matches_reference(self):
        for seed in range(30):
            prob = random_problem(seed, n=12, k=4, lam=0.6)
            ref = ref_mmr(prob.query, prob.ids.tolist(), prob.vectors.tolist(), 4, 0.6)
            assert select_mmr(prob).ids.tolist() == ref

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 40),
        d=st.sampled_from([5, 8, 24]),
        n_dup=st.integers(1, 40),
        k=st.integers(1, 12),
        lam=st.sampled_from([0.25, 0.5, 0.75]),
    )
    # here BLAS similarities give twins different last bits, and an MMR
    # that reads them picks the higher-id twin
    @example(seed=15, m=11, d=8, n_dup=11, k=10, lam=0.5)
    def test_duplicate_rows_tie_to_lowest_id(self, seed, m, d, n_dup, k, lam):
        prob = twin_problem(seed, m, d, n_dup, k, lam)
        ref = ref_mmr(prob.query, prob.ids.tolist(), prob.vectors.tolist(), k, lam)
        assert select_mmr(prob).ids.tolist() == ref


class TestSelectRerank:
    def test_far_point_chosen_second(self):
        q = np.array([1.0, 0.0])
        X = np.array([[0.99, 0.01], [0.98, 0.02], [-1.0, 0.0]])
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        prob = SelectionProblem(q, [0, 1, 2], X, k=2, lam=0.5)
        res = select_rerank(prob)
        assert res.ids.tolist() == [0, 2]

    def test_matches_reference(self):
        for seed in range(30):
            prob = random_problem(seed, n=12, k=3)
            ref = ref_rerank(prob.query, prob.ids.tolist(), prob.vectors.tolist(), 3)
            assert select_rerank(prob).ids.tolist() == ref

class TestQpRelax:
    def test_n_equals_k_all_ones(self):
        prob = random_problem(1, n=4, k=4)
        rep = qp_relax_solve(prob)
        np.testing.assert_allclose(rep.alpha, 1.0)
        assert rep.converged

    def test_two_point_kkt(self):
        # hand enumeration of the 2-d active sets: mass concentrates on the
        # candidate aligned with the query
        q = np.array([1.0, 0.0])
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        prob = SelectionProblem(q, [0, 1], X, k=1, lam=1.0)
        rep = qp_relax_solve(prob, max_iter=2000, tol=1e-12)
        assert rep.alpha[0] > rep.alpha[1]
        assert np.isclose(rep.alpha.sum(), 1.0, atol=1e-6)

    def test_feasibility(self):
        for seed in range(10):
            prob = random_problem(seed)
            rep = qp_relax_solve(prob, max_iter=1000, tol=1e-10)
            assert np.isclose(rep.alpha.sum(), prob.k, atol=1e-6)
            assert np.all(rep.alpha >= -1e-9) and np.all(rep.alpha <= 1 + 1e-9)

    def test_objective_monotone_decrease(self):
        # the solver is deterministic, so max_iter=j stops it after its first
        # j iterations; tol=0 keeps it from stopping sooner. This clustered
        # problem keeps moving for many iterations, so most steps are strict
        prob = random_problem(15, n=60, k=10, clustered=True)
        objs = [qp_relax_solve(prob, max_iter=j, tol=0.0).relaxed_objective for j in range(22)]
        steps = np.diff(objs)
        assert np.all(steps <= 1e-12)
        assert np.count_nonzero(steps < 0) >= 10

    def test_relaxation_lower_bounds_integral(self):
        for seed in range(25):
            prob = random_problem(seed, n=10, k=3, clustered=True)
            rep = qp_relax_solve(prob, max_iter=3000, tol=1e-12)
            best = min(
                eq2_objective(prob.query, prob.vectors, s, prob.lam)
                for s in combinations(range(10), 3)
            )
            assert rep.relaxed_objective <= best + 1e-12

    def test_empty_candidates_rejected(self):
        prob = SelectionProblem(np.array([1.0, 0.0]), np.empty(0, dtype=int), np.empty((0, 2)), k=1, lam=0.5)
        with pytest.raises(ValueError):
            qp_relax_solve(prob)

    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 10),
        st.integers(2, 6),
        st.integers(1, 10),
        st.floats(0.0, 1.0),
        st.booleans(),
    )
    # a degenerate instance on which projected gradient steps alone still had
    # a relative gap of 1.4e-8 after 500 iterations
    @example(seed=1012, n=6, d=3, k=1, lam=1.0, clustered=False)
    @settings(max_examples=100, deadline=None)
    def test_converges_with_certified_bound(self, seed, n, d, k, lam, clustered):
        k = min(k, n)
        prob = random_problem(seed, n=n, d=d, k=k, lam=lam, clustered=clustered)
        rep = qp_relax_solve(prob)
        assert rep.converged
        assert abs(rep.alpha.sum() - k) <= 1e-9
        assert np.all(rep.alpha >= -1e-12) and np.all(rep.alpha <= 1.0 + 1e-12)
        assert rep.gap >= -1e-12
        best = min(eq2_objective(prob.query, prob.vectors, s, lam) for s in combinations(range(n), k))
        assert rep.relaxed_objective - rep.gap <= best + 1e-12

    def test_converges_on_hashed_toy_candidates(self, small_toy):
        index = build(small_toy, new_family(PLAIN, 8, 6, small_toy.d, seed=0))
        reports = []
        for q in small_toy.vectors:
            ids = query(index, q).ids
            prob = SelectionProblem(q, ids, small_toy.dense_rows(ids), k=10, lam=0.5)
            if prob.size > prob.k:
                reports.append(qp_relax_solve(prob, max_iter=500))
        assert len(reports) >= 150
        assert np.mean([r.converged for r in reports]) >= 0.95
        assert np.median([r.iterations for r in reports]) <= 100


class TestSelectQpRel:
    def test_integral_alpha_passthrough(self):
        # candidates equal to q plus orthogonal noise: the relaxed solution is
        # already integral on well-separated instances with lam = 1
        q = np.array([1.0, 0.0, 0.0])
        X = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]])
        prob = SelectionProblem(q, [0, 1, 2, 3], X, k=1, lam=1.0)
        rep = qp_relax_solve(prob, max_iter=3000, tol=1e-12)
        res = select_qp_rel(prob, max_iter=3000, tol=1e-12)
        assert res.ids.tolist() == [int(np.argmax(rep.alpha))]

    def test_n_equals_k_returns_all(self):
        prob = random_problem(3, n=5, k=5)
        assert set(select_qp_rel(prob).ids.tolist()) == set(range(5))

    def test_rounding_near_optimal(self):
        close = 0
        for seed in range(40):
            prob = random_problem(seed, n=12, d=6, k=3, lam=0.5, clustered=True)
            res = select_qp_rel(prob, max_iter=2000, tol=1e-10)
            rounded = eq2_objective(prob.query, prob.vectors, res.ids.tolist(), 0.5)
            best = min(
                eq2_objective(prob.query, prob.vectors, s, 0.5)
                for s in combinations(range(12), 3)
            )
            close += rounded <= best + 0.10 * abs(best)
        assert close >= 0.9 * 40


class TestProblemValidation:
    def test_bad_lambda(self):
        with pytest.raises(ValueError):
            SelectionProblem(np.ones(2), [0], np.ones((1, 2)), k=1, lam=1.5)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            SelectionProblem(np.ones(2), [0], np.ones((1, 2)), k=0, lam=0.5)

    def test_duplicate_ids(self):
        with pytest.raises(ValueError):
            SelectionProblem(np.ones(2), [0, 0], np.ones((2, 2)), k=1, lam=0.5)
        with pytest.raises(ValueError, match="ascending"):
            SelectionProblem(np.ones(2), [0, 2, 1], np.ones((3, 2)), k=1, lam=0.5)
        with pytest.raises(ValueError, match="1-d"):
            SelectionProblem(np.ones(2), 0, np.ones((1, 2)), k=1, lam=0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_candidate_row_rejected(self, bad):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        X[1, 0] = bad
        with pytest.raises(ValueError, match="candidate vector"):
            SelectionProblem(np.array([1.0, 0.0]), [0, 1, 2], X, k=1, lam=0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_rejected(self, bad):
        with pytest.raises(ValueError, match="query"):
            SelectionProblem(np.array([bad, 0.0]), [0], np.ones((1, 2)), k=1, lam=0.5)

    def test_all_selectors_return_min_k_distinct(self):
        for seed in range(5):
            prob = random_problem(seed, n=8, k=20)
            for fn in (select_nn, select_greedy_div, select_mmr, select_rerank):
                res = fn(prob)
                assert len(res.ids) == 8
                assert len(set(res.ids.tolist())) == 8
                assert res.underfilled
