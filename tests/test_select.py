import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hashdiv import select
from hashdiv.data import ToyConfig, load_dense, make_toy, save_dense
from hashdiv.hashing import PLAIN, new_family
from hashdiv.lsh import build, query
from hashdiv.select import (
    SelectionProblem,
    _factor_row,
    _oracle,
    _wolfe,
    qp_relax_solve,
    select_greedy_div,
    select_mmr,
    select_nn,
    select_qp_rel,
    select_rerank,
    top_k,
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


def loop_greedy_div(problem):
    """select_greedy_div in its plain form: every pick, the first and the
    last included, builds the whole weight w = [p | 1 - i | i], p the sum
    of the picked rows, and the whole score A w for A = [2X | |r|^2 |
    lam |q - r|^2]. The library skips the steps that cannot change a pick
    and updates w in place, so the two must pick the same ids, bit-level
    ties included."""
    X = problem.vectors
    m, d = X.shape
    diff = X - problem.query
    sq = np.einsum("ij,ij->i", X, X)
    A = np.column_stack([2.0 * X, sq, problem.lam * np.einsum("ij,ij->i", diff, diff)])
    p = np.zeros(d)
    picked: list[int] = []
    for i in range(1, min(problem.k, m) + 1):
        # einsum reduces each row alone, so equal rows get equal bits; a BLAS
        # product need not, which would let a later twin win a tie
        score = np.einsum("ij,j->i", A, np.concatenate([p, [1 - i, i]]))
        j = int(np.argmin(score))  # first minimum = lowest id on ties
        picked.append(j)
        A[j, d + 1] = np.inf  # picked rows never win argmin again
        p = p + X[j]
    return problem.ids[picked]


def fraction_greedy(q, X, k, lam):
    """ref_greedy in exact rational arithmetic, so every tie is exact and
    goes to the lowest position."""
    q, lam = [Fraction(v) for v in q], Fraction(lam)
    X = [[Fraction(v) for v in row] for row in X]

    def sq(a, b):
        return sum((x - y) ** 2 for x, y in zip(a, b))

    remaining, chosen = list(range(len(X))), []
    for i in range(1, min(k, len(X)) + 1):
        best = min(remaining, key=lambda r: (lam * sq(q, X[r]) - sum(sq(X[r], X[s]) for s in chosen) / i, r))
        chosen.append(best)
        remaining.remove(best)
    return chosen


@st.composite
def integer_rows(draw):
    """1 to 12 rows and a query of 1 to 3 coordinates in [-3, 3]."""
    d = draw(st.integers(1, 3))
    coords = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    return draw(st.lists(coords, min_size=1, max_size=12)), draw(coords)


def loop_mmr(problem):
    """select_mmr as first written: every pick forms the whole score
    lam * sims - (1 - lam) * max_sel and masks the picked entries with
    -inf. The library puts -inf into lam * sims once per pick and writes
    into preallocated arrays, which are the same IEEE operations, so the
    two must pick the same ids."""
    X = problem.vectors
    sims = np.einsum("ij,j->i", X, problem.query)
    m = problem.size
    available = np.ones(m, dtype=bool)
    max_sel = np.full(m, -np.inf)
    picked: list[int] = []
    for i in range(min(problem.k, m)):
        score = sims.copy() if i == 0 else problem.lam * sims - (1.0 - problem.lam) * max_sel
        score[~available] = -np.inf
        j = int(score.argmax())
        picked.append(j)
        available[j] = False
        np.maximum(max_sel, np.einsum("ij,j->i", X, X[j]), out=max_sel)
    return problem.ids[picked]


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

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_ties_at_the_kth_distance_match_a_full_lexsort(self, data):
        # small integer coordinates tie many distances exactly, and the
        # k-th nearest row is copied to scattered positions, so the k-th
        # place itself is shared
        m = data.draw(st.integers(1, 40))
        d = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(1, m + 2))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        X = rng.integers(-2, 3, size=(m, d)).astype(float)
        q = rng.integers(-2, 3, size=d).astype(float)
        ids = np.sort(rng.choice(5 * m, size=m, replace=False))
        d2 = np.einsum("ij,ij->i", X - q, X - q)
        kth = np.lexsort((ids, d2))[min(k, m) - 1]
        X[rng.random(m) < 0.3] = X[kth]
        d2 = np.einsum("ij,ij->i", X - q, X - q)
        full = ids[np.lexsort((ids, d2))][:k]
        assert select_nn(SelectionProblem(q, ids, X, k, 0.5)).ids.tolist() == full.tolist()


class TestTopK:
    @settings(max_examples=300, deadline=None)
    @given(
        keys=st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, math.inf, math.nan]), min_size=1, max_size=40),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 42),
    )
    # the k-th key is NaN, so every key is kept for the sort
    @example(keys=[math.nan, 1.0, math.nan, 0.0], seed=0, k=3)
    # NaN keys past a finite k-th key never reach the first k
    @example(keys=[math.nan, 1.0, math.nan, 0.0], seed=0, k=2)
    def test_matches_a_full_lexsort(self, keys, seed, k):
        # few distinct keys tie often, -0.0 ties 0.0, and the ids are
        # distinct but not ascending, so every tie is broken by them
        keys = np.array(keys)
        ids = np.random.default_rng(seed).choice(5 * keys.size, size=keys.size, replace=False)
        assert top_k(keys, ids, k).tolist() == np.lexsort((ids, keys))[:k].tolist()


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

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 300),
        d=st.integers(1, 64),
        n_dup=st.integers(0, 300),
        k=st.integers(1, 24),
        lam=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        scale=st.sampled_from([1.0, 1e-161]),
    )
    # m < k; both ends of lambda; subnormal squared norms and products,
    # where underflow, not the scores' real order, sets the picks
    @example(seed=1, m=3, d=4, n_dup=2, k=10, lam=0.5, scale=1.0)
    @example(seed=2, m=40, d=8, n_dup=20, k=12, lam=0.0, scale=1.0)
    @example(seed=3, m=40, d=8, n_dup=20, k=12, lam=1.0, scale=1.0)
    @example(seed=4, m=60, d=8, n_dup=30, k=10, lam=0.5, scale=1e-162)
    def test_equals_the_plain_loop(self, seed, m, d, n_dup, k, lam, scale):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((m, d)) * scale
        X = np.vstack([X, X[rng.choice(m, size=min(n_dup, m), replace=False)]])
        X = X[rng.permutation(X.shape[0])]
        ids = np.sort(rng.choice(10 * X.shape[0], size=X.shape[0], replace=False))
        prob = SelectionProblem(rng.standard_normal(d) * scale, ids, X, k=k, lam=lam)
        res = select_greedy_div(prob)
        assert np.array_equal(res.ids, loop_greedy_div(prob))
        assert res.underfilled == (X.shape[0] < k)

    @settings(max_examples=300, deadline=None)
    @given(rows=integer_rows(), k=st.integers(1, 14), lam=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
    # at the third pick rows 2 and 3 tie at exactly 1/6; a score divided by
    # i rounds them apart and picks 3 first
    @example(rows=([[1], [2], [-1], [1]], [2]), k=4, lam=0.5)
    def test_exact_ties_go_to_the_lowest_id(self, rows, k, lam):
        # small integer rows and a dyadic lambda tie many scores exactly,
        # and every product and sum of the kernel is exact on them
        X, q = rows
        prob = SelectionProblem(np.array(q, dtype=float), np.arange(len(X)), np.array(X, dtype=float), k=k, lam=lam)
        assert select_greedy_div(prob).ids.tolist() == fraction_greedy(q, X, k, lam)

    # 60 rows, d = 16: at 1e155 every squared norm overflows, at 1e153 the
    # running diversity sum does; both once gave a repeated id
    @pytest.mark.parametrize("scale", [1e155, 1e153])
    def test_overflowing_scores_raise(self, scale):
        with pytest.raises(ValueError, match="overflow"):
            select_greedy_div(scaled_problem(scale))

    def test_a_power_of_two_scale_below_the_bound_keeps_the_picks(self):
        # scaling by a power of two is exact, so every score scales exactly
        # by its square; qprel solves on the rows divided by a power of two
        # near their largest norm, the same bits at every scale
        for scale in (2.0**460, 2.0**-200):
            for select in (select_nn, select_rerank, select_greedy_div, select_mmr, select_qp_rel):
                assert np.array_equal(select(scaled_problem(scale)).ids, select(scaled_problem(1.0)).ids), (select, scale)


# 60 rows, d = 16: at 1e155 nn and rerank once returned [0 1 ... 9] and
# qprel an unnamed LinAlgError; at 1e153 rerank's diversity sums overflow
# and its picks changed
@pytest.mark.parametrize("select, scale", [(select_nn, 1e155), (select_rerank, 1e155), (select_rerank, 1e153),
                                           (select_qp_rel, 1e155)])
def test_overflowing_scores_raise(select, scale):
    with pytest.raises(ValueError, match="overflow"):
        select(scaled_problem(scale))


def test_finite_rows_whose_norms_overflow_are_accepted_then_refused_by_every_selector():
    # every coordinate is finite, but |x|^2 = 1e400 is not
    X = np.array([[1e200, 0.0], [0.0, 1.0], [0.6, 0.8]])
    prob = SelectionProblem(np.array([1.0, 0.0]), [0, 1, 2], X, k=2, lam=0.5)
    for select in (select_nn, select_rerank, select_greedy_div, select_mmr, select_qp_rel):
        with pytest.raises(ValueError, match="overflow"):
            select(prob)


@pytest.mark.parametrize("scale", [1.0, 1e200])
def test_an_empty_pool_is_answered_empty_and_underfilled_whatever_its_query(scale):
    # an empty pool has no scores to overflow, so every selector answers it
    # before its overflow rule; at 1e200 the query's square overflows, and
    # nn and mmr once refused it as too large
    prob = SelectionProblem(scale * np.ones(4), np.empty(0, dtype=int), np.empty((0, 4)), k=3, lam=0.5)
    for select in (select_nn, select_rerank, select_greedy_div, select_mmr, select_qp_rel):
        res = select(prob)
        assert res.ids.size == 0 and res.underfilled, select


@pytest.mark.parametrize("k", [1, 3, 5])
def test_greedy_refuses_the_query_at_the_float_where_its_square_passes_the_bound(k):
    # greedy's bound is |q|^2 <= max / (2 * 4 kk), kk = min(k, m), with
    # |q| the hypot the constructor keeps: the float just below the square
    # root of the bound is accepted and the next one refused
    bound = np.finfo(float).max / (2 * 4 * min(k, 3))
    below = math.sqrt(bound)
    while below * below > bound:
        below = math.nextafter(below, 0.0)
    while (nxt := math.nextafter(below, math.inf)) * nxt <= bound:
        below = nxt
    above = math.nextafter(below, math.inf)
    assert below * below <= bound < above * above
    assert math.hypot(below, 0.0, 0.0) == below and math.hypot(above, 0.0, 0.0) == above
    X = np.eye(3)
    res = select_greedy_div(SelectionProblem(np.array([below, 0.0, 0.0]), [0, 1, 2], X, k=k, lam=0.5))
    assert res.ids[0] == 0 and res.ids.size == min(k, 3)
    with pytest.raises(ValueError, match="would overflow float64"):
        select_greedy_div(SelectionProblem(np.array([above, 0.0, 0.0]), [0, 1, 2], X, k=k, lam=0.5))


def scaled_problem(scale: float) -> SelectionProblem:
    rng = np.random.default_rng(7)
    X = rng.standard_normal((60, 16)) * scale
    return SelectionProblem(rng.standard_normal(16) * scale, np.arange(60), X, k=10, lam=0.5)


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

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(0, 120),
        d=st.integers(1, 24),
        n_dup=st.integers(0, 60),
        k=st.integers(1, 15),
        lam=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        integer=st.booleans(),
    )
    @example(seed=0, m=0, d=3, n_dup=0, k=4, lam=0.5, integer=False)  # an empty pool
    def test_equals_the_plain_loop(self, seed, m, d, n_dup, k, lam, integer):
        # integer rows tie many similarities exactly, and copied rows are twins
        rng = np.random.default_rng(seed)
        if integer:
            X, q = rng.integers(-2, 3, size=(m, d)).astype(float), rng.integers(-2, 3, size=d).astype(float)
        else:
            X, q = rng.standard_normal((m, d)), rng.standard_normal(d)
        X = np.vstack([X, X[rng.choice(m, size=min(n_dup, m), replace=False)]])
        X = X[rng.permutation(X.shape[0])]
        ids = np.sort(rng.choice(10 * X.shape[0], size=X.shape[0], replace=False))
        prob = SelectionProblem(q, ids, X, k=k, lam=lam)
        res = select_mmr(prob)
        assert np.array_equal(res.ids, loop_mmr(prob))
        assert res.underfilled == (X.shape[0] < k)

    def test_overflowing_similarities_raise(self):
        # at 1e155 every similarity of two rows overflows, which once gave
        # the pool's index order after the first pick
        with pytest.raises(ValueError, match="overflow"):
            select_mmr(scaled_problem(1e155))


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

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 160),
        d=st.sampled_from([5, 8, 24]),
        n_dup=st.integers(1, 160),
        k=st.integers(1, 12),
    )
    def test_duplicate_rows_tie_to_lowest_id(self, seed, m, d, n_dup, k):
        # twins tie on their distance to the query, at the pool's edge
        # too, and on every diversity sum
        prob = twin_problem(seed, m, d, n_dup, k, 0.5)
        ref = ref_rerank(prob.query, prob.ids.tolist(), prob.vectors.tolist(), k)
        assert select_rerank(prob).ids.tolist() == ref

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40), d=st.integers(1, 4), k=st.integers(1, 15))
    def test_integer_rows_tie_to_lowest_id(self, seed, m, d, k):
        # small integer coordinates tie the diversity sums of distinct rows
        # at different distances from the query, and every sum is exact
        rng = np.random.default_rng(seed)
        X = rng.integers(-2, 3, size=(m, d)).astype(float)
        ids = np.sort(rng.choice(5 * m, size=m, replace=False))
        prob = SelectionProblem(rng.integers(-2, 3, size=d).astype(float), ids, X, k=k, lam=0.5)
        assert select_rerank(prob).ids.tolist() == ref_rerank(prob.query, ids.tolist(), X.tolist(), k)


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
        rep = qp_relax_solve(prob)
        assert rep.alpha[0] > rep.alpha[1]
        assert np.isclose(rep.alpha.sum(), 1.0, atol=1e-6)

    def test_feasibility(self):
        for seed in range(10):
            prob = random_problem(seed)
            rep = qp_relax_solve(prob)
            assert np.isclose(rep.alpha.sum(), prob.k, atol=1e-6)
            assert np.all(rep.alpha >= -1e-9) and np.all(rep.alpha <= 1 + 1e-9)

    def test_objective_monotone_decrease(self, monkeypatch):
        # the solver is deterministic, so a vertex cap of j stops it after
        # its first j vertices; a gap tolerance of 0 keeps it from stopping
        # sooner. This clustered problem takes many vertices, and each one
        # that Wolfe's algorithm adds lowers the objective, so most steps
        # are strict
        prob = random_problem(15, n=60, k=10, clustered=True)
        monkeypatch.setattr(select, "_WOLFE_TOL", 0.0)
        objs = []
        for j in range(22):
            monkeypatch.setattr(select, "_WOLFE_VERTICES", j)
            objs.append(qp_relax_solve(prob).relaxed_objective)
        steps = np.diff(objs)
        assert np.all(steps <= 1e-12)
        assert np.count_nonzero(steps < 0) >= 10

    def test_relaxation_lower_bounds_integral(self):
        for seed in range(25):
            prob = random_problem(seed, n=10, k=3, clustered=True)
            rep = qp_relax_solve(prob)
            best = min(
                eq2_objective(prob.query, prob.vectors, s, prob.lam)
                for s in combinations(range(10), 3)
            )
            assert rep.relaxed_objective <= best + 1e-12

    def test_target_on_the_boundary_of_the_image_reaches_the_optimum(self):
        # t = lam q / 2 is the image of the k-set {0, 2, 6}, on the boundary
        # of Z: Newton's line search backtracks there, and Wolfe's algorithm
        # may finish; which path ends the solve, and in how many steps, is
        # not pinned here
        X = np.array([[2, 1, 2], [0, 2, 0], [0, -1, 0], [-2, 2, -2], [-1, -1, 1], [-1, -2, -2], [-1, -2, -1],
                      [-1, -2, -1], [1, 2, 0]], dtype=float)
        prob = SelectionProblem((X[0] + X[2] + X[6]) / 0.125, np.arange(9), X, k=3, lam=0.25)
        best = min(eq2_objective(prob.query, X, s, prob.lam) for s in combinations(range(9), 3))
        rep = qp_relax_solve(prob)
        assert rep.converged
        assert rep.relaxed_objective <= best + 1e-12
        assert eq2_objective(prob.query, X, select_qp_rel(prob).ids, prob.lam) == best

    def test_empty_candidates_rejected(self):
        prob = SelectionProblem(np.array([1.0, 0.0]), np.empty(0, dtype=int), np.empty((0, 2)), k=1, lam=0.5)
        with pytest.raises(ValueError):
            qp_relax_solve(prob)
        # select_qp_rel returns a pool of at most k whole; the solver refuses it
        prob = SelectionProblem(np.array([1.0, 0.0]), [0, 1], np.eye(2), k=3, lam=0.5)
        with pytest.raises(ValueError, match="^k=3 exceeds candidate count 2$"):
            qp_relax_solve(prob)

    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 10),
        st.integers(2, 6),
        st.integers(1, 10),
        st.floats(0.0, 1.0),
        st.booleans(),
    )
    # a degenerate instance: six candidates in d = 3, k = 1 and lam = 1
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
                reports.append(qp_relax_solve(prob))
        assert len(reports) >= 150
        assert np.mean([r.converged for r in reports]) >= 0.95
        assert np.median([r.iterations for r in reports]) <= 100

    def test_a_vertex_cap_of_zero_returns_a_feasible_unconverged_alpha(self, monkeypatch):
        # the pool lies to one side of the target, so Wolfe's algorithm runs,
        # and a cap of 0 vertices stops it at its first vertex
        prob = random_problem(15, n=60, k=10, clustered=True)
        full = qp_relax_solve(prob)
        monkeypatch.setattr(select, "_WOLFE_VERTICES", 0)
        rep = qp_relax_solve(prob)
        assert rep.iterations == 0 and not rep.converged
        assert abs(rep.alpha.sum() - 10) <= 1e-9
        assert np.all(rep.alpha >= 0.0) and np.all(rep.alpha <= 1.0)
        assert rep.relaxed_objective > full.relaxed_objective

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 10), d=st.integers(1, 3), k=st.integers(1, 9),
           lam=st.floats(0.05, 1.0))
    def test_target_inside_the_image_gives_the_least_norm_alpha(self, seed, n, d, k, lam):
        # t = X^T a0 for an a0 strictly inside the capped simplex, so every
        # a with X^T a = t is optimal; the solver returns the least-norm one,
        # which SLSQP finds from a0. d + 1 < n leaves more than one optimal a
        d, k = min(d, n - 2), min(k, n - 1)
        prob, a0 = target_inside_problem(seed, n, d, k, lam)
        rep = qp_relax_solve(prob)
        assert rep.iterations == 0 and rep.converged
        np.testing.assert_allclose(rep.alpha, least_norm_optimum(prob, a0), atol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_exact_twins_get_equal_weight_when_the_target_is_inside(self, seed):
        prob, a0 = target_inside_problem(seed, 10, 2, 3, 0.5, n_twins=4)
        rep = qp_relax_solve(prob)
        assert rep.iterations == 0
        _, first, inverse = np.unique(prob.vectors, axis=0, return_index=True, return_inverse=True)
        assert np.array_equal(rep.alpha, rep.alpha[first][inverse.ravel()])
        np.testing.assert_allclose(rep.alpha, least_norm_optimum(prob, a0), atol=1e-6)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10), d=st.integers(1, 6), k=st.integers(1, 10),
           lam=st.floats(0.0, 1.0), n_dup=st.integers(0, 5))
    def test_ragged_problems_are_feasible_with_a_certified_gap(self, seed, n, d, k, lam, n_dup):
        # rows of norms from 0.1 to 3, some of them exact copies; the
        # reported objective and gap are recomputed here from alpha
        rng = np.random.default_rng(seed)
        k = min(k, n)
        X = rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0, size=(n, 1))
        X[rng.integers(0, n, n_dup)] = X[rng.integers(0, n, n_dup)]
        q = rng.standard_normal(d) * rng.uniform(0.1, 3.0)
        prob = SelectionProblem(q, np.arange(n), X, k=k, lam=lam)
        rep = qp_relax_solve(prob)
        a = rep.alpha
        assert rep.converged
        assert abs(a.sum() - k) <= 1e-9 * k
        assert np.all(a >= 0.0) and np.all(a <= 1.0)
        grad = 2.0 * X @ (X.T @ a) - lam * X @ q
        f = a @ X @ (X.T @ a) - lam * q @ (X.T @ a)
        gap = grad @ a - np.sort(grad)[:k].sum()
        scale = max(1.0, abs(f))
        assert abs(rep.relaxed_objective - f) <= 1e-9 * scale
        assert abs(rep.gap - gap) <= 1e-9 * scale and rep.gap <= 1e-8 * scale
        best = min(eq2_objective(q, X, s, lam) for s in combinations(range(n), k))
        assert rep.relaxed_objective - rep.gap <= best + 1e-9 * max(1.0, abs(best))


def target_inside_problem(seed, n, d, k, lam, n_twins=0):
    """n rows (the last n_twins copies of earlier ones) and a target
    t = lam q / 2 = X^T a0, a0 a mix of k/n and random k-sets, so every
    a0 entry lies strictly inside (0, 1)."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    if n_twins:
        X[n - n_twins:] = X[rng.choice(n - n_twins, n_twins)]
    mix = np.zeros(n)
    for w in rng.dirichlet(np.ones(4)):
        mix[rng.choice(n, k, replace=False)] += w
    a0 = 0.2 * k / n + 0.8 * mix
    return SelectionProblem(2.0 * (X.T @ a0) / lam, np.arange(n), X, k=k, lam=lam), a0


def least_norm_optimum(prob, a0):
    """min |a|^2 subject to X^T a = X^T a0, sum(a) = k, 0 <= a <= 1, by
    SLSQP. The equalities [X, 1]^T a = [X, 1]^T a0 are taken along an
    orthonormal basis of their row space, so twins leave none dependent."""
    from scipy.optimize import minimize

    A = np.column_stack([prob.vectors, np.ones(a0.size)]).T
    U, sv, _ = np.linalg.svd(A, full_matrices=False)
    B = U[:, sv > 1e-10 * sv[0]].T @ A
    res = minimize(lambda a: a @ a, a0, jac=lambda a: 2.0 * a, method="SLSQP", bounds=[(0.0, 1.0)] * a0.size,
                   constraints=[{"type": "eq", "fun": lambda a: B @ (a - a0), "jac": lambda a: B}],
                   options={"ftol": 1e-15, "maxiter": 500})
    assert res.success, res.message
    return res.x


# ---------------------------------------------------------------------------
# reference Wolfe loop: the corral's weights, ratio test, drops and
# compaction as numpy arrays, one array operation per step, with the
# corral's affine weights computed from G + 1 1^T from scratch at every
# minor cycle. With cholesky_weights the library, which keeps Python floats
# and updates its factor as vertices enter and leave, must run the same
# floating-point operations in the same order, so its alpha is equal bit
# for bit. lapack_weights is the library's solve before the factor update:
# rounding apart, the same algorithm.
# ---------------------------------------------------------------------------


def reference_oracle(X, t, k, y):
    S = (X @ y).argpartition(k - 1)[:k]
    return S, X[S].sum(axis=0) - t


def reference_factor(M):
    """The textbook row Cholesky factor L of the matrix M, row by row,
    with y = L^-1 1, or None at the first pivot that is not positive.
    Every sum is a Python float sum, left to right over ascending p:
    L_ij = (M_ij - sum_{p<j} L_ip L_jp) / L_jj for j < i, then
    L_ii = sqrt(M_ii - sum_{p<i} L_ip^2), then y_i = (1 - sum_{p<i} L_ip y_p) / L_ii."""
    n = len(M)
    L, y = [[0.0] * n for _ in range(n)], [0.0] * n
    for i in range(n):
        for j in range(i + 1):
            s = float(M[i][j])
            for p in range(j):
                s -= L[i][p] * L[j][p]
            if j < i:
                L[i][j] = s / L[j][j]
            elif s > 0.0:
                L[i][i] = math.sqrt(s)
            else:
                return None
        s = 1.0
        for p in range(i):
            s -= L[i][p] * y[p]
        y[i] = s / L[i][i]
    return L, y


def reference_weights(L, y):
    """mu = L^-T y by back substitution from the last row up, each sum
    left to right over ascending p, then divided by its left-to-right sum."""
    n = len(y)
    mu = [0.0] * n
    for i in reversed(range(n)):
        s = y[i]
        for p in range(i + 1, n):
            s -= L[p][i] * mu[p]
        mu[i] = s / L[i][i]
    total = mu[0]
    for u in mu[1:]:
        total += u
    return np.array([u / total for u in mu])


def cholesky_weights(M):
    """reference_weights of reference_factor(M), or None at a pivot that is
    not positive."""
    factor = reference_factor(M)
    return None if factor is None else reference_weights(*factor)


def lapack_weights(M):
    """The solution of M mu = 1 by np.linalg.solve, divided by its sum, or
    None where LAPACK finds M singular."""
    try:
        mu = np.linalg.solve(M, np.ones(len(M)))
    except np.linalg.LinAlgError:
        return None
    return mu / mu.sum()


def reference_wolfe(X, t, k, S, v, max_iter, tol, weights=cholesky_weights):
    """Returns alpha, the vertices added and the count of corral drops.
    `weights` maps G + 1 1^T to the corral's affine weights, or to None
    where that matrix is singular up to rounding: a vertex that makes it so
    is not added, and a drop that does stops the loop."""
    m, d = X.shape
    sets = np.empty((d + 1, k), dtype=np.intp)
    V = np.empty((d + 1, d))
    G = np.empty((d + 1, d + 1))
    sets[0], V[0] = S, v
    G[0, 0] = xx = float(v @ v)
    lam, x = np.ones(1), v
    tt = float(t @ t)
    it = drops = 0
    while it < max_iter:
        S, v = reference_oracle(X, t, k, x)
        drop = xx - x @ v
        vv = float(v @ v)
        if 2.0 * drop <= tol * max(1.0, abs(xx - tt)) or drop <= 1e-14 * math.sqrt(xx * vv):
            break
        r = lam.size
        if r == d + 1:
            break
        G[r, :r] = G[:r, r] = V[:r].dot(v)
        G[r, r] = vv
        if weights(G[: r + 1, : r + 1] + 1.0) is None:
            break
        it += 1
        sets[r], V[r] = S, v
        lam = np.append(lam, 0.0)
        while True:
            r = lam.size
            mu = weights(G[:r, :r] + 1.0)
            if mu is None or mu.min() > 0.0:
                break
            out = np.flatnonzero(mu <= 0.0)
            room = lam[out] - mu[out]
            ratio = np.divide(lam[out], room, out=np.zeros(out.size), where=room > 0.0)
            j = ratio.argmin()
            lam += ratio[j] * (mu - lam)
            lam[out[j]] = 0.0
            keep = np.flatnonzero(lam > 0.0)
            sets[: keep.size], V[: keep.size] = sets[keep], V[keep]
            G[: keep.size, : keep.size] = G[np.ix_(keep, keep)]
            lam = lam[keep]
            drops += 1
        if mu is None:
            break
        lam = mu
        x = lam.dot(V[:r])
        new_xx = float(x @ x)
        if not new_xx < xx:
            break
        xx = new_xx
    sets = sets[: lam.size].ravel()
    alpha = np.bincount(sets, weights=np.repeat(lam, k), minlength=m)
    alpha[np.bincount(sets, minlength=m) == lam.size] = 1.0
    return alpha, it, drops


def wolfe_inputs(seed, shape):
    """A pool of 2 to 120 rows in d = 1 to 10, k up to 15, and lam in
    [0, 1]: rows of norms from 0.1 to 3 ("ragged"), small integers
    ("integer": ties and dependent vertices) or a tight cluster
    ("clustered": many corral drops), up to half of them overwritten by
    copies of others. The sizes come from the seed, so every example has a
    pool's size. Returns X, t = lam q / 2, k and the image of a = k/m."""
    rng = np.random.default_rng(seed)
    m, d = int(rng.integers(2, 121)), int(rng.integers(1, 11))
    k = int(rng.integers(1, min(m, 15) + 1))
    if shape == "integer":
        X = rng.integers(-2, 3, size=(m, d)).astype(float)
    else:
        X = rng.standard_normal((m, d)) * rng.uniform(0.1, 3.0, size=(m, 1))
    if shape == "clustered":
        X = rng.standard_normal(d) + 0.3 * X
    n_dup = int(rng.integers(0, m // 2 + 1))
    X[rng.integers(0, m, n_dup)] = X[rng.integers(0, m, n_dup)]
    t = 0.5 * rng.uniform(0.0, 1.0) * rng.standard_normal(d)
    return X, t, k, X.sum(axis=0) * (k / m) - t


def relaxed_objective(X, t, alpha):
    p = X.T @ alpha - t
    return float(p @ p - t @ t)


def test_wolfe_runs_the_reference_operations():
    drops = []

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["ragged", "integer", "clustered"]),
           max_iter=st.sampled_from([0, 3, 500]))
    # at max_iter 3 the factor update converges after 3 vertices and 2
    # drops; the solve it replaced needs a 4th vertex and a 3rd drop, so
    # the cut stops it at a higher objective
    @example(seed=222, shape="clustered", max_iter=3)
    def check(seed, shape, max_iter):
        X, t, k, p = wolfe_inputs(seed, shape)
        S, v = _oracle(X, t, k, p)
        S_ref, v_ref = reference_oracle(X, t, k, p)
        assert np.array_equal(S, S_ref) and np.array_equal(v, v_ref)
        alpha, it = _wolfe(X, t, k, S, v, max_iter, 1e-8)
        alpha_ref, it_ref, n_drops = reference_wolfe(X, t, k, S_ref, v_ref, max_iter, 1e-8)
        assert np.array_equal(alpha, alpha_ref) and it == it_ref
        drops.append(n_drops)
        # the solve that the factor update replaced reaches the same
        # objective when both stop by their own rule
        f = relaxed_objective(X, t, reference_wolfe(X, t, k, S, v, max_iter, 1e-8, lapack_weights)[0])
        objective = relaxed_objective(X, t, alpha)
        if max_iter != 3:
            assert abs(objective - f) <= 1e-12 * max(1.0, abs(f))
            return
        # cut short, the two can stop at different steps: each lies between
        # the start vertex's objective and the complete solve's
        start = relaxed_objective(X, t, _wolfe(X, t, k, S, v, 0, 1e-8)[0])
        least = relaxed_objective(X, t, _wolfe(X, t, k, S, v, 500, 1e-8)[0])
        for g in (objective, f):
            rounding = 1e-12 * max(1.0, abs(g))
            assert least - rounding <= g <= start + rounding

    check()
    # the drop path, the one the partial re-factor runs, ran: in about
    # 15% of the examples
    assert sum(n > 0 for n in drops) >= len(drops) // 20


@pytest.mark.parametrize("seed", range(20))
def test_factor_updates_equal_a_factor_from_scratch(seed):
    # rows appended one at a time give reference_factor's bits; so do the
    # rows of a subset, factored again from the first row left out on top
    # of the rows before it, as a drop from the corral does
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 10))
    V = rng.standard_normal((r, r + 1)) * rng.uniform(0.1, 3.0, size=(r, 1))
    M = V @ V.T + 1.0
    L, y = [], []
    assert all(_factor_row(M[i, : i + 1].tolist(), L, y) for i in range(r))
    ref_L, ref_y = reference_factor(M)
    assert L == [row[: i + 1] for i, row in enumerate(ref_L)] and y == ref_y
    keep = sorted(rng.choice(r, int(rng.integers(1, r)), replace=False).tolist())
    first = next(i for i in range(r) if i not in keep)
    K = M[np.ix_(keep, keep)]
    del L[first:], y[first:]
    assert all(_factor_row(K[c, : c + 1].tolist(), L, y) for c in range(first, len(keep)))
    ref_L, ref_y = reference_factor(K)
    assert L == [row[: i + 1] for i, row in enumerate(ref_L)] and y == ref_y


def test_a_dependent_vertex_is_refused_and_leaves_the_factor():
    # the collinear vertices (0, 0), (2, 0) and (1, 0): G + 1 1^T has a third pivot of exactly 0
    V = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    M = V @ V.T + 1.0
    assert M.tolist() == [[1.0, 1.0, 1.0], [1.0, 5.0, 3.0], [1.0, 3.0, 2.0]]
    L, y = [], []
    assert _factor_row([1.0], L, y) and _factor_row([1.0, 5.0], L, y)
    assert (L, y) == ([[1.0], [1.0, 2.0]], [1.0, 0.0])
    assert not _factor_row([1.0, 3.0, 2.0], L, y)
    assert (L, y) == ([[1.0], [1.0, 2.0]], [1.0, 0.0])


@pytest.mark.parametrize("seed", [0, 1])
def test_toy_picks_equal_the_lapack_solves(tmp_path, monkeypatch, seed):
    # the C5 toy shape through the CSV round trip, plain l = 12, L = 6,
    # k = 10, lambda = 0.5: every pool's ordered picks are those of the
    # loop that solves each minor cycle by np.linalg.solve
    centers = ((1.0,) + (0.0,) * 7, (-1.0,) + (0.0,) * 7)
    paths = tmp_path / "base.csv", tmp_path / "queries.csv"
    save_dense(make_toy(ToyConfig(500, centers, 0.25, seed)), paths[0])
    save_dense(make_toy(ToyConfig(100, centers, 0.25, seed + 1)), paths[1])
    data, queries = load_dense(paths[0]), load_dense(paths[1])
    index = build(data, new_family(PLAIN, 12, 6, data.d, seed=0))
    problems = []
    for q in queries.vectors:
        ids = query(index, q).ids
        problems.append(SelectionProblem(q, ids, data.dense_rows(ids), k=10, lam=0.5))
    picks = [select_qp_rel(p).ids.tolist() for p in problems]
    calls = []

    def counted(*args):
        calls.append(args)
        return reference_wolfe(*args, lapack_weights)[:2]

    monkeypatch.setattr(select, "_wolfe", counted)
    assert [select_qp_rel(p).ids.tolist() for p in problems] == picks
    assert len(calls) >= 190, len(calls)  # Wolfe's path, not the least-norm one, on almost every pool


class TestSelectQpRel:
    def test_integral_alpha_passthrough(self):
        # candidates equal to q plus orthogonal noise: the relaxed solution is
        # already integral on well-separated instances with lam = 1
        q = np.array([1.0, 0.0, 0.0])
        X = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]])
        prob = SelectionProblem(q, [0, 1, 2, 3], X, k=1, lam=1.0)
        rep = qp_relax_solve(prob)
        res = select_qp_rel(prob)
        assert res.ids.tolist() == [int(np.argmax(rep.alpha))]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["ragged", "integer", "clustered"]),
           max_iter=st.sampled_from([0, 3, 500]), tol=st.sampled_from([1e-8, 1e-3]))
    def test_picks_are_the_top_k_of_the_reported_alpha(self, seed, shape, max_iter, tol):
        # select_qp_rel skips the certificate; its picks must still be the
        # k largest entries of qp_relax_solve's alpha, ties to the lowest id
        X, t, k, _ = wolfe_inputs(seed, shape)
        m = X.shape[0]
        k = min(k, m - 1)  # k >= m returns the pool without a solve
        ids = np.cumsum(np.random.default_rng(seed).integers(1, 4, m))
        prob = SelectionProblem(2.0 * t, ids, X, k=k, lam=1.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(select, "_WOLFE_VERTICES", max_iter)
            mp.setattr(select, "_WOLFE_TOL", tol)
            alpha = qp_relax_solve(prob).alpha
            want = sorted(range(m), key=lambda i: (-alpha[i], ids[i]))[:k]
            assert select_qp_rel(prob).ids.tolist() == ids[want].tolist()

    def test_n_equals_k_returns_all(self):
        prob = random_problem(3, n=5, k=5)
        assert set(select_qp_rel(prob).ids.tolist()) == set(range(5))

    def test_rounding_near_optimal(self):
        close = 0
        for seed in range(40):
            prob = random_problem(seed, n=12, d=6, k=3, lam=0.5, clustered=True)
            res = select_qp_rel(prob)
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
        with pytest.raises(ValueError, match="^ids and vectors disagree on candidate count$"):
            SelectionProblem(np.ones(2), [0, 1], np.ones((3, 2)), k=1, lam=0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_candidate_row_rejected(self, bad):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        X[1, 0] = bad
        with pytest.raises(ValueError, match="candidate vector"):
            SelectionProblem(np.array([1.0, 0.0]), [0, 1, 2], X, k=1, lam=0.5)

    @pytest.mark.parametrize("q", [[0.7], [0.6, 0.8, 0.0], [[0.6, 0.8], [0.0, 1.0]]])
    def test_wrong_shaped_query_rejected(self, q):
        # numpy would broadcast a length-1 query, and ravel a (2, 2) one
        # into four coordinates, so either would get an answer
        with pytest.raises(ValueError, match=r"query must be a 1-d array of 4 coordinates, got shape \("):
            SelectionProblem(np.array(q), [0, 1], np.eye(4)[:2], k=1, lam=0.5)

    def test_candidate_vectors_not_2d_rejected(self):
        with pytest.raises(ValueError, match=r"candidate vectors must be a 2-d array, got shape \(3,\)"):
            SelectionProblem(np.ones(3), [0, 1, 2], np.ones(3), k=1, lam=0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_rejected(self, bad):
        with pytest.raises(ValueError, match="query"):
            SelectionProblem(np.array([bad, 0.0]), [0], np.ones((1, 2)), k=1, lam=0.5)

    @pytest.mark.parametrize("scale", [2.0**600, 2.0**-600])
    def test_finite_query_whose_squared_norm_overflows_or_underflows_is_accepted(self, scale):
        # q @ q is inf at 2^600 and 0 at 2^-600, yet every coordinate is finite
        q = np.array([scale, -scale])
        prob = SelectionProblem(q, [0], np.ones((1, 2)), k=1, lam=0.5)
        assert np.array_equal(prob.query, q)

    def test_all_selectors_return_min_k_distinct(self):
        for seed in range(5):
            prob = random_problem(seed, n=8, k=20)
            for fn in (select_nn, select_greedy_div, select_mmr, select_rerank):
                res = fn(prob)
                assert len(res.ids) == 8
                assert len(set(res.ids.tolist())) == 8
                assert res.underfilled
