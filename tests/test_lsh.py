import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import clustered_dataset, edit_index_blob, toy_centers
from hashdiv import hashing, lsh
from hashdiv.data import Dataset, ToyConfig, make_toy, normalize_rows
from hashdiv.hashing import KINDS, PCA, PCA_DIRECT, PLAIN, hash_matrix, new_family
from hashdiv.linalg import TruncatedBasis
from hashdiv.select import (
    SelectionProblem,
    select_greedy_div,
    select_mmr,
    select_nn,
    select_qp_rel,
    select_rerank,
)

SELECTORS = (select_nn, select_rerank, select_greedy_div, select_mmr, select_qp_rel)


@pytest.fixture(scope="module")
def toy_1k():
    return make_toy(ToyConfig(n_per_class=500, class_centers=toy_centers(8), spread=0.25, seed=0))


@pytest.fixture(scope="module")
def toy_index(toy_1k):
    fam = new_family(PLAIN, 10, 4, toy_1k.d, seed=1)
    return lsh.build(toy_1k, fam)


def table_of(index, t):
    """Table t of the flat layout, the buckets whose tagged keys read t
    above bit l: its keys with the tag removed, and its buckets, in key
    order."""
    tag = np.uint64(t) << np.uint64(index.family.l)
    js = np.flatnonzero(index.keys >> np.uint64(index.family.l) == t)
    buckets = [index.ids[index.offsets[j] : index.offsets[j + 1]] for j in js]
    return index.keys[js] ^ tag, buckets


def build_all_tables(dataset, family):
    """Reference build: tag every key with its table, then one stable
    argsort over all L * n tagged keys."""
    tags = np.arange(family.L, dtype=np.uint64) << np.uint64(family.l)
    tagged = (hash_matrix(family, dataset.vectors) | tags).T.ravel()  # table after table
    order = np.argsort(tagged, kind="stable")
    sorted_keys = tagged[order]
    first = np.ones(sorted_keys.size, dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(first)
    offsets = np.append(starts, sorted_keys.size).astype(np.int32)
    return sorted_keys[starts], offsets, (order % dataset.n).astype(np.int32)


def build_per_table(dataset, family):
    """Reference build, one table a pass: each table's keys from
    hash_matrix's one-table slice, a stable argsort of them, its buckets
    tagged and appended."""
    n, l = dataset.n, family.l
    bucket_keys, offsets, ids = [], [], []
    for t in range(family.L):
        keys = hash_matrix(family, dataset.vectors, slice(t, t + 1))[:, 0]
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        first = np.ones(n, dtype=bool)
        first[1:] = sorted_keys[1:] != sorted_keys[:-1]
        bucket_keys.append(sorted_keys[first] | np.uint64(t) << np.uint64(l))
        offsets.append(np.flatnonzero(first) + t * n)
        ids.append(order)
    offsets.append([family.L * n])
    return (np.concatenate(bucket_keys), np.concatenate(offsets).astype(np.int32),
            np.concatenate(ids).astype(np.int32))


# key widths on each side of the 8-, 16-, 32- and 64-bit words, and so of
# the group sizes 8, 4, 2 and 1 tables
WORD_EDGES = (1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64)


class TestBuild:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_per_table_build_at_every_boundary(self, data):
        # with the block budget at 64 r floats, a group of G * l = 64 planes
        # hashes r rows a block, so n on each side of r, 2r, ... ends on a
        # full or a partial block; n on each side of G = 1, 2, 4 and 8 caps
        # the group at n, and L on each side of a multiple of G ends on a
        # full or a partial group
        kind = data.draw(st.sampled_from(KINDS))
        l = data.draw(st.sampled_from(WORD_EDGES))
        L = data.draw(st.sampled_from([L for L in (*range(1, 10), 17) if not lsh._misfit(l, L, 1)]))
        n = data.draw(st.one_of(st.integers(1, 10), st.sampled_from([15, 16, 17, 31, 32, 33, 63, 64, 65])))
        d = data.draw(st.integers(l if kind == PCA_DIRECT else 1, 64 if kind == PCA_DIRECT else 6))
        rows = data.draw(st.sampled_from([None, 1, 2, 3]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        points = rng.standard_normal((n, d))
        points[rng.random(n) < 0.3] = points[0]  # duplicates tie inside a bucket
        points[rng.random(n) < 0.1] = 0.0  # every projection is exactly 0
        basis = None
        if kind != PLAIN:
            alpha = data.draw(st.integers(l if kind == PCA_DIRECT else 1, d))
            basis = TruncatedBasis(U=np.linalg.qr(rng.standard_normal((d, alpha)))[0], singular_values=np.ones(alpha))
        ds = Dataset(vectors=points)
        family = new_family(kind, l, L, d, seed=data.draw(st.integers(0, 99)), basis=basis)
        with pytest.MonkeyPatch.context() as mp:
            if rows is not None:
                mp.setattr(hashing, "_BLOCK_BYTES", 8 * 64 * rows)
            index = lsh.build(ds, family)
        for got, want in zip((index.keys, index.offsets, index.ids), build_per_table(ds, family)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_all_tables_argsort(self, data):
        n = data.draw(st.integers(1, 80))
        d = data.draw(st.integers(1, 5))
        L = data.draw(st.integers(1, 12))
        l = data.draw(st.integers(1, 64 - (L - 1).bit_length()))  # the tag fits above the key bits
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        points = rng.standard_normal((n, d))
        points[rng.random(n) < 0.3] = points[0]  # duplicates tie inside a bucket
        ds = Dataset(vectors=points)
        family = new_family(PLAIN, l, L, d, seed=data.draw(st.integers(0, 99)))
        index = lsh.build(ds, family)
        for got, want in zip((index.keys, index.offsets, index.ids), build_all_tables(ds, family)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("l, L, n, groups", [
        (8, 17, 40, [8, 8, 1]),
        (16, 8, 40, [4, 4]),
        (16, 8, 3, [3, 3, 2]),   # a group holds at most n tables
        (17, 5, 40, [2, 2, 1]),
        (44, 3, 40, [1, 1, 1]),
    ])
    def test_groups_hold_a_word_of_keys(self, l, L, n, groups, monkeypatch):
        # one hash_matrix call a group of tables, their keys in the
        # narrowest unsigned word that holds l bits
        calls = []

        def spy(family, vectors, tables=slice(None), bits=slice(None), out=None):
            calls.append((tables, out.dtype, out.shape))
            return hash_matrix(family, vectors, tables, bits, out)

        monkeypatch.setattr(lsh, "hash_matrix", spy)
        ds = Dataset(vectors=np.random.default_rng(l).standard_normal((n, 5)))
        family = new_family(PLAIN, l, L, 5, seed=l)
        index = lsh.build(ds, family)
        starts = np.cumsum([0] + groups[:-1]).tolist()
        word = np.min_scalar_type((1 << l) - 1)
        assert calls == [(slice(t, t + g), word, (n, g)) for t, g in zip(starts, groups)]
        for got, want in zip((index.keys, index.offsets, index.ids), build_per_table(ds, family)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("l, L", [(16, 8), (12, 17), (44, 10)])
    def test_peak_memory_is_about_the_index(self, l, L):
        # the index it returns and 1 MiB of work space, with keys sorted as
        # two and as eight bytes; a build that holds the (n, L) keys (1.2
        # MiB and more here), the n x L*l float projections (20 MiB and
        # more) or its bucket keys twice (1.6 MiB at (44, 10)) fails
        n = 20_000
        ds = Dataset(vectors=normalize_rows(np.random.default_rng(0).standard_normal((n, 24))))
        family = new_family(PLAIN, l, L, 24, seed=0)
        tracemalloc.start()
        try:
            index = lsh.build(ds, family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        index_bytes = index.keys.nbytes + index.offsets.nbytes + index.ids.nbytes
        assert peak < index_bytes + 2**20

    @pytest.mark.parametrize("L, n, fits", [(1, 2**31 - 1, True), (1, 2**31, False), (4, 2**29, False)])
    def test_ids_must_fit_int32(self, L, n, fits):
        # refused from (l, L, n) alone, before any table or id is allocated;
        # the traced window holds only the call, and the message is matched
        # after it, so pytest's own allocations are not counted
        refusal = None
        tracemalloc.start()
        try:
            try:
                lsh.check_tables(16, L, n)
            except ValueError as e:
                refusal = e
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if fits:
            assert refusal is None
        else:
            assert refusal is not None
            assert re.match(rf"L={L} tables of n={n} points hold {L * n} ids, more than the 2147483647", str(refusal))
        assert peak < 2**14

    def test_single_point(self):
        ds = Dataset(vectors=np.array([[1.0, 0.0]]))
        fam = new_family(PLAIN, 8, 3, 2, seed=0)
        index = lsh.build(ds, fam)
        for t in range(fam.L):
            keys, buckets = table_of(index, t)
            assert keys.size == 1
            assert [b.tolist() for b in buckets] == [[0]]

    def test_equal_keys_in_adjacent_tables_stay_apart(self):
        # with l=1 the one point has key 1 in tables 2..7 of this family
        ds = Dataset(vectors=np.array([[1.0, 0.0]]))
        index = lsh.build(ds, new_family(PLAIN, 1, 8, 2, seed=0))
        assert (index.keys >> np.uint64(1)).tolist() == list(range(8))
        assert lsh.query(index, ds.vectors[0]).touched == 8

    def test_duplicate_points_share_buckets(self):
        ds = Dataset(vectors=np.array([[0.6, 0.8], [0.6, 0.8], [0.0, 1.0]]))
        fam = new_family(PLAIN, 12, 4, 2, seed=2)
        index = lsh.build(ds, fam)
        for t in range(fam.L):
            keys, buckets = table_of(index, t)
            bucket_of = {int(i): int(k) for k, ids in zip(keys, buckets) for i in ids}
            assert bucket_of[0] == bucket_of[1]

    def test_total_entries_and_occupancy(self, toy_1k, toy_index):
        assert toy_index.ids.size == toy_1k.n * toy_index.family.L
        assert np.diff(toy_index.offsets).sum() == toy_1k.n * toy_index.family.L
        for t in range(toy_index.family.L):
            keys, buckets = table_of(toy_index, t)
            occupancy = toy_1k.n / keys.size
            assert occupancy == pytest.approx(np.mean([ids.size for ids in buckets]))

    def test_each_id_once_per_table(self, toy_1k, toy_index):
        for t in range(toy_index.family.L):
            ids = np.concatenate(table_of(toy_index, t)[1])
            assert np.array_equal(np.sort(ids), np.arange(toy_1k.n))

    def test_keys_sorted_and_buckets_hold_their_key(self, toy_1k, toy_index):
        point_keys = hash_matrix(toy_index.family, toy_1k.vectors)
        for t in range(toy_index.family.L):
            keys, buckets = table_of(toy_index, t)
            assert np.all(keys[1:] > keys[:-1])
            for key, ids in zip(keys, buckets):
                assert ids.size > 0 and np.all(np.diff(ids) > 0)
                assert np.all(point_keys[ids, t] == key)

    @pytest.mark.parametrize("l, L, fits", [(59, 32, True), (64, 1, True), (60, 32, False), (64, 2, False)])
    def test_table_tag_must_fit_above_the_key_bits(self, l, L, fits):
        ds = Dataset(vectors=np.array([[1.0, 0.0], [0.0, 1.0]]))
        family = new_family(PLAIN, l, L, 2, seed=0)
        if fits:
            assert lsh.query(lsh.build(ds, family), ds.vectors[1]).ids.tolist() == [1]
        else:
            with pytest.raises(ValueError, match=f"l={l} and L={L} do not fit"):
                lsh.build(ds, family)

    def test_empty_dataset_rejected(self):
        fam = new_family(PLAIN, 8, 1, 2, seed=0)
        with pytest.raises(ValueError, match="empty"):
            lsh.build(Dataset(vectors=np.empty((0, 2))), fam)

    def test_dimension_mismatch(self, toy_1k):
        fam = new_family(PLAIN, 8, 1, toy_1k.d + 1, seed=0)
        with pytest.raises(ValueError, match="dimension"):
            lsh.build(toy_1k, fam)


class TestQuery:
    def test_indexed_point_always_candidate(self, toy_1k, toy_index):
        for i in (0, 123, 999):
            cand = lsh.query(toy_index, toy_1k.vectors[i])
            assert i in cand.ids

    def test_empty_result_is_valid(self):
        ds = Dataset(vectors=np.array([[1.0] + [0.0] * 15]))
        fam = new_family(PLAIN, 64, 1, 16, seed=3)
        index = lsh.build(ds, fam)
        rng = np.random.default_rng(0)
        hits = []
        for _ in range(50):
            q = rng.standard_normal(16)
            q /= np.linalg.norm(q)
            cand = lsh.query(index, q)
            hits.append(cand.ids.size)
        assert min(hits) == 0  # a 64-bit exact match against one point is rare

    def test_candidates_are_exact_bucket_union(self, toy_1k, toy_index):
        # brute force: re-hash every dataset point and compare key equality
        keys = hash_matrix(toy_index.family, toy_1k.vectors)
        rng = np.random.default_rng(5)
        for _ in range(20):
            q = rng.standard_normal(toy_1k.d)
            q /= np.linalg.norm(q)
            qkeys = hash_matrix(toy_index.family, q.reshape(1, -1))[0]
            expected = np.flatnonzero((keys == qkeys).any(axis=1))
            cand = lsh.query(toy_index, q)
            assert np.array_equal(cand.ids, expected)
            assert cand.touched == int((keys == qkeys).sum())

    def test_ids_ascending_and_unique(self, toy_1k, toy_index):
        cand = lsh.query(toy_index, toy_1k.vectors[5])
        assert np.all(np.diff(cand.ids) > 0)

    def test_monotone_in_tables(self, toy_1k):
        # same seed: tables of the small family are a prefix of the big one
        small = lsh.build(toy_1k, new_family(PLAIN, 10, 2, toy_1k.d, seed=7))
        big = lsh.build(toy_1k, new_family(PLAIN, 10, 8, toy_1k.d, seed=7))
        rng = np.random.default_rng(2)
        for _ in range(10):
            q = rng.standard_normal(toy_1k.d)
            q /= np.linalg.norm(q)
            a = set(lsh.query(small, q).ids.tolist())
            b = set(lsh.query(big, q).ids.tolist())
            assert a <= b

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_rejected(self, toy_index, bad):
        q = np.zeros(toy_index.family.d)
        q[1] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            lsh.query(toy_index, q)

    def test_zero_query_rejected(self, toy_index):
        # every bit of a zero vector would read 0 >= 0 and name one bucket
        with pytest.raises(ValueError, match="zero vector"):
            lsh.query(toy_index, np.zeros(toy_index.family.d))

    @pytest.mark.parametrize("scale", [2.0**600, 2.0**-600])
    def test_finite_query_whose_squared_norm_overflows_or_underflows_is_accepted(self, toy_1k, toy_index, scale):
        # q @ q is inf at 2^600 and 0 at 2^-600; hashing is by signs, so a
        # power-of-two scale of q names the same buckets
        q = toy_1k.vectors[5]
        assert np.array_equal(lsh.query(toy_index, scale * q).ids, lsh.query(toy_index, q).ids)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_brute_force_bucket_union_and_survives_persistence(self, data):
        n = data.draw(st.integers(1, 60))
        d = data.draw(st.integers(1, 5))
        L = data.draw(st.integers(1, 32))
        # up to the widest key the tag allows, so the tag sits right above
        # keys whose top bit is set
        top = 64 - (L - 1).bit_length()
        l = data.draw(st.one_of(st.just(top), st.integers(1, top)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        points = rng.standard_normal((n, d))
        points[rng.random(n) < 0.3] = points[0]  # duplicates share every bucket
        ds = Dataset(vectors=points)
        index = lsh.build(ds, new_family(PLAIN, l, L, d, seed=data.draw(st.integers(0, 99))))
        back = lsh.index_from_bytes(lsh.index_to_bytes(index), Dataset(vectors=points.copy()))
        keys = hash_matrix(index.family, points)
        for q in np.vstack([points[:3], rng.standard_normal((3, d))]):
            match = keys == hash_matrix(index.family, q.reshape(1, -1))[0]
            for idx in (index, back):
                cand = lsh.query(idx, q)
                assert np.array_equal(cand.ids, np.flatnonzero(match.any(axis=1)))
                assert cand.touched == int(match.sum())

    def test_sublinear_candidate_fraction(self):
        master = clustered_dataset(2**13, seed=6)
        fam = new_family(PLAIN, 16, 6, master.d, seed=6)
        qvecs = master.vectors[:256]
        fracs = []
        for n in (2**9, 2**11, 2**13):
            ds = Dataset(vectors=master.vectors[:n])
            index = lsh.build(ds, fam)
            sizes = [lsh.query(index, qvecs[i]).ids.size for i in range(256)]
            fracs.append(np.mean(sizes) / n)
        assert fracs[2] < fracs[1] < fracs[0]


class TestRetrieve:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 50),
        l=st.integers(1, 10),
        L=st.integers(1, 5),
        k=st.integers(1, 12),
        lam=st.floats(0.0, 1.0),
        from_data=st.booleans(),
    )
    # a query that is point 0 of three always has 1 to 3 candidates, fewer than k
    @example(seed=4, n=3, l=2, L=2, k=10, lam=0.5, from_data=True)
    def test_equals_hand_chain(self, seed, n, l, L, k, lam, from_data):
        d = 5
        rng = np.random.default_rng(seed)
        ds = Dataset(vectors=normalize_rows(rng.standard_normal((n, d))))
        index = lsh.build(ds, new_family(PLAIN, l, L, d, seed=seed % 100))
        q = ds.vectors[0] if from_data else normalize_rows(rng.standard_normal((1, d)))[0]
        cand = lsh.query(index, q).ids
        every = np.arange(n)
        for select in SELECTORS:
            res, count = lsh.retrieve(index, q, select, k, lam)
            # an empty union is the selector's case too
            want = select(SelectionProblem(query=q, ids=cand, vectors=ds.dense_rows(cand), k=k, lam=lam))
            assert count == cand.size
            assert np.array_equal(res.ids, want.ids) and res.underfilled == want.underfilled
            # no index: the selector over every point
            res, count = lsh.retrieve(ds, q, select, k, lam)
            want = select(SelectionProblem(query=q, ids=every, vectors=ds.vectors, k=k, lam=lam))
            assert count == n
            assert np.array_equal(res.ids, want.ids) and res.underfilled == want.underfilled

    @pytest.mark.parametrize("bad, cause", [(0.0, "zero vector"), (np.nan, "NaN or infinite"), (np.inf, "NaN or infinite")])
    @pytest.mark.parametrize("indexed", [True, False])
    def test_bad_query_rejected_on_both_paths(self, toy_index, bad, cause, indexed):
        q = np.zeros(toy_index.family.d)
        q[1] = bad
        with pytest.raises(ValueError, match=cause):
            lsh.retrieve(toy_index if indexed else toy_index.dataset, q, select_nn, 3, 0.5)

    @pytest.mark.parametrize("shape", [(1,), (3,), (2, 4)])
    @pytest.mark.parametrize("indexed", [True, False])
    def test_wrong_shaped_query_rejected_on_both_paths(self, toy_index, shape, indexed):
        # unchecked, the scan broadcasts a (1,) query and hashing flattens a
        # (2, 4) one into the index's 8 coordinates
        q = np.full(shape, 0.5)
        with pytest.raises(ValueError, match=rf"query must be a 1-d array of 8 coordinates, got shape {re.escape(str(shape))}"):
            lsh.retrieve(toy_index if indexed else toy_index.dataset, q, select_nn, 3, 0.5)

    @pytest.mark.parametrize("q, message", [
        (np.full(1, 0.5), "query must be a 1-d array of 8 coordinates, got shape (1,)"),
        (np.full(3, 0.5), "query must be a 1-d array of 8 coordinates, got shape (3,)"),
        (np.full((2, 4), 0.5), "query must be a 1-d array of 8 coordinates, got shape (2, 4)"),
        (np.array([0.5, np.nan] + [0.0] * 6), "query has a NaN or infinite coordinate"),
        (np.array([0.5, -np.inf] + [0.0] * 6), "query has a NaN or infinite coordinate"),
        (np.zeros(8), "query is the zero vector, which has no direction"),
        (np.full(8, 0.5), None),
    ], ids=["shape-1", "shape-3", "shape-2x4", "nan", "inf", "zero", "good"])
    @pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
    def test_one_query_rule_on_every_entry_point(self, toy_index, q, message, as_list):
        # the query rule has one home, so each entry point refuses a bad
        # query with the same words and answers a Python list as its array;
        # the zero rule is the index's alone
        ds = toy_index.dataset
        calls = {
            "query": lambda q: lsh.query(toy_index, q).ids,
            "retrieve index": lambda q: lsh.retrieve(toy_index, q, select_nn, 3, 0.5)[0].ids,
            "retrieve dataset": lambda q: lsh.retrieve(ds, q, select_nn, 3, 0.5)[0].ids,
            "problem": lambda q: select_nn(SelectionProblem(q, np.arange(5), ds.vectors[:5], 3, 0.5)).ids,
        }
        arg = q.tolist() if as_list else q
        for name, call in calls.items():
            if message is None or (name == "problem" and not q.any()):
                ids = call(arg)
                # the bucket union may hold more than k ids; a selector returns k
                assert ids.tolist() == call(q).tolist() and (ids.size >= 3 if name == "query" else ids.size == 3), name
                continue
            with pytest.raises(ValueError) as exc:
                call(arg)
            assert str(exc.value) == message, name

    def test_full_scan_passes_the_dataset_rows_uncopied(self, toy_1k):
        seen = []
        lsh.retrieve(toy_1k, toy_1k.vectors[3], lambda p: seen.append(p) or select_nn(p), 3, 0.5)
        assert seen[0].vectors is toy_1k.vectors

    def test_empty_union(self):
        ds = Dataset(vectors=np.array([[1.0] + [0.0] * 15]))
        index = lsh.build(ds, new_family(PLAIN, 64, 1, 16, seed=3))
        # the antipode flips every one of the 64 sign bits; each selector
        # answers the empty pool itself
        for select in SELECTORS:
            seen = []
            res, count = lsh.retrieve(index, -ds.vectors[0], lambda p: seen.append(p.size) or select(p), 5, 0.5)
            assert res.ids.size == 0 and res.underfilled and count == 0 and seen == [0]

    @pytest.mark.parametrize("k, lam, cause", [
        (0, 0.5, "k must be >= 1"), (0, 7.5, "k must be >= 1"), (-3, 0.5, "k must be >= 1"),
        (3, 7.5, "lambda must lie in"), (3, -0.1, "lambda must lie in"), (3, np.nan, "lambda must lie in"),
    ])
    @pytest.mark.parametrize("source", ["index", "empty union", "dataset"])
    def test_bad_k_or_lambda_rejected_on_every_path(self, source, k, lam, cause):
        # the same index as test_empty_union: the point finds itself, its
        # antipode finds nothing
        ds = Dataset(vectors=np.array([[1.0] + [0.0] * 15]))
        index = lsh.build(ds, new_family(PLAIN, 64, 1, 16, seed=3))
        q = -ds.vectors[0] if source == "empty union" else ds.vectors[0]
        for select in SELECTORS:
            with pytest.raises(ValueError, match=cause):
                lsh.retrieve(ds if source == "dataset" else index, q, select, k, lam)

    @pytest.mark.parametrize("q_dtype", [np.float64, np.float32, np.int64])
    @pytest.mark.parametrize("indexed", [True, False])
    @pytest.mark.parametrize("integer_data", [True, False])
    def test_problem_equals_the_public_constructor(self, indexed, q_dtype, integer_data):
        # retrieve builds its problem with the public constructor from the
        # rows it gathers, so it must hold exactly what the constructor
        # gives on dense_rows of the same ids
        rng = np.random.default_rng(5)
        vectors = rng.integers(-4, 5, size=(40, 6))
        vectors[vectors[:, 0] == 0, 0] = 1  # no zero rows
        ds = Dataset(vectors=vectors if integer_data else normalize_rows(vectors))
        index = lsh.build(ds, new_family(PLAIN, 3, 4, 6, seed=1))
        q = np.array([2, -1, 0, 3, 1, -2]).astype(q_dtype)
        seen = []
        res, count = lsh.retrieve(index if indexed else ds, q, lambda p: seen.append(p) or select_greedy_div(p), 4, 0.7)
        (problem,) = seen
        ids = lsh.query(index, q).ids if indexed else np.arange(ds.n)
        assert ids.size > 0 and count == ids.size
        public = SelectionProblem(query=q, ids=ids, vectors=ds.dense_rows(ids), k=4, lam=0.7)
        assert problem.query.dtype == problem.vectors.dtype == np.float64
        assert problem.ids.dtype == np.intp
        for name in ("query", "ids", "vectors"):
            got, want = getattr(problem, name), getattr(public, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert (problem.k, problem.lam, problem.size) == (public.k, public.lam, public.size)
        assert np.array_equal(res.ids, select_greedy_div(public).ids)


def near_duplicates(n_base=20, copies=16, d=16, noise=2e-3, seed=3) -> Dataset:
    """n_base unit rows, each repeated `copies` times with Gaussian noise,
    normalized: true neighbours collide on long keys."""
    rng = np.random.default_rng(seed)
    base = normalize_rows(rng.standard_normal((n_base, d)))
    return Dataset(vectors=normalize_rows(np.repeat(base, copies, axis=0)
                                          + noise * rng.standard_normal((n_base * copies, d))))


class TestTune:
    def test_recall_boundary_rejected(self, toy_1k):
        with pytest.raises(ValueError):
            lsh.tune(toy_1k, target_recall=0.0)
        with pytest.raises(ValueError):
            lsh.tune(toy_1k, target_recall=1.0)

    @pytest.mark.parametrize("empty, epsilon, message", [
        (False, 0.0, "epsilon must be positive"),
        (False, -1.0, "epsilon must be positive"),
        (False, float("nan"), "epsilon must be positive"),
        (True, 1.0, "cannot tune on an empty dataset"),
    ])
    def test_bad_epsilon_or_empty_dataset_rejected(self, toy_1k, empty, epsilon, message):
        ds = Dataset(vectors=np.empty((0, toy_1k.d))) if empty else toy_1k
        with pytest.raises(ValueError, match=message):
            lsh.tune(ds, 0.8, epsilon)

    def test_vectors_whose_distances_overflow_refused_without_a_warning(self):
        # rows of norm 1e160: a squared distance would overflow float64
        rng = np.random.default_rng(5)
        ds = Dataset(vectors=1e160 * normalize_rows(rng.standard_normal((40, 6))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^candidate or query vectors too large: "
                                                 r"their selection scores would overflow float64$"):
                lsh.tune(ds, 0.8, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**63])
    def test_seed_outside_the_family_range_rejected(self, toy_1k, seed):
        # the family's seed rule, checked before the sample is drawn
        with pytest.raises(ValueError, match=rf"^seed={seed} is not an integer in \[0, 2\*\*63\)$"):
            lsh.tune(toy_1k, 0.8, seed=seed)

    def test_identical_points_cheapest_pair(self):
        ds = Dataset(vectors=np.tile([[0.6, 0.8]], (64, 1)))
        res = lsh.tune(ds, target_recall=0.9, seed=0)
        assert res.feasible
        assert (res.l, res.L) == (8, 1)  # everything collides; cheapest wins

    def test_near_duplicate_pick_fits_one_index(self):
        # (64, 2) touches the fewest entries among the pairs that reach the
        # target, but its tagged keys need 65 bits
        ds = near_duplicates()
        res = lsh.tune(ds, 0.95, seed=3)
        lsh.check_tables(res.l, res.L, ds.n)
        assert (res.l, res.L, res.feasible) == (60, 2, True)
        index = lsh.build(ds, new_family(PLAIN, res.l, res.L, ds.d, seed=3))
        assert 0 in lsh.query(index, ds.vectors[0]).ids

    @settings(max_examples=30, deadline=None)
    @given(
        n_base=st.integers(2, 20),
        copies=st.integers(10, 20),
        d=st.integers(2, 16),
        noise=st.floats(1e-4, 1e-2),
        target=st.floats(0.8, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_pick_on_near_duplicates_fits_one_index(self, n_base, copies, d, noise, target, seed):
        # near-duplicates collide on long keys, where the pairs that do not
        # fit one index lie
        ds = near_duplicates(n_base, copies, d, noise, seed)
        res = lsh.tune(ds, target, seed=seed)
        lsh.check_tables(res.l, res.L, ds.n)

    def test_tuned_pair_hits_target_on_fresh_queries(self, toy_1k):
        res = lsh.tune(toy_1k, target_recall=0.8, seed=4)
        assert res.feasible
        fam = new_family(PLAIN, res.l, res.L, toy_1k.d, seed=4)
        index = lsh.build(toy_1k, fam)
        fresh = make_toy(ToyConfig(n_per_class=25, class_centers=toy_centers(8), spread=0.25, seed=99))
        hits = []
        X = toy_1k.dense_rows(np.arange(toy_1k.n))
        for i in range(fresh.n):
            q = fresh.vectors[i]
            d2 = np.einsum("ij,ij->i", X - q, X - q)
            true10 = set(np.argsort(d2, kind="stable")[:10].tolist())
            cand = set(lsh.query(index, q).ids.tolist())
            hits.append(len(cand & true10) / 10)
        assert np.mean(hits) >= 0.8

    def test_tuned_candidate_count_near_sqrt_n(self):
        # epsilon = 1 targets candidate counts ~ n^(1/2) = 128 at n = 2^14;
        # the constant is an empirical regression bound (factor 4 window)
        ds = make_toy(ToyConfig(n_per_class=2**13, class_centers=toy_centers(8), spread=0.25, seed=0))
        res = lsh.tune(ds, target_recall=0.8, epsilon=1.0, seed=0)
        assert res.feasible
        fam = new_family(PLAIN, res.l, res.L, ds.d, seed=0)
        index = lsh.build(ds, fam)
        fresh = make_toy(ToyConfig(n_per_class=50, class_centers=toy_centers(8), spread=0.25, seed=1))
        sizes = [lsh.query(index, fresh.vectors[i]).ids.size for i in range(100)]
        assert 128 / 4 <= np.mean(sizes) <= 128 * 4


def tune_by_sets(dataset, target_recall, epsilon=1.0, *, seed=0):
    """The tuner written out with one bucket dict per (l, table) and Python
    set unions: the reference that lsh.tune must match exactly."""
    n_queries, at_k = 64, 10
    n = dataset.n
    rng = np.random.default_rng(seed)
    q_ids = rng.choice(n, size=min(n_queries, n), replace=False)
    q_ids.sort()
    qvecs = dataset.dense_rows(q_ids)
    family = new_family(PLAIN, 64, 32, dataset.d, seed=seed)
    all_keys = hash_matrix(family, dataset.vectors)
    q_keys = all_keys[q_ids]
    dense = dataset.dense_rows(np.arange(n))
    true_nn = []
    for qi, qv in zip(q_ids, qvecs):
        d2 = np.einsum("ij,ij->i", dense - qv, dense - qv)
        order = np.argsort(d2, kind="stable")[: at_k + 1]
        true_nn.append(set([i for i in order.tolist() if i != qi][:at_k]))
    candidate_cap = 4.0 * n ** (1.0 / (1.0 + epsilon))
    best = best_over_cap = fallback = None
    for l in range(8, 65, 4):
        mask = np.uint64((1 << l) - 1)
        masked = all_keys & mask
        tables = []
        for t in range(32):
            table = {}
            for i in range(n):
                table.setdefault(int(masked[i, t]), []).append(i)
            tables.append(table)
        mq = q_keys & mask
        unions = [set() for _ in range(q_ids.size)]
        touched = np.zeros(q_ids.size)
        for L_idx, table in enumerate(tables):
            L = L_idx + 1
            for qi in range(q_ids.size):
                bucket = table.get(int(mq[qi, L_idx]))
                if bucket is not None:
                    unions[qi].update(bucket)
                    touched[qi] += len(bucket)
            try:
                lsh.check_tables(l, L, n)
            except ValueError:   # no index holds this pair, so tune may not return it
                continue
            at = min(at_k, n - 1) or 1
            recalls = np.array([len((u - {int(q)}) & t10) / at for u, t10, q in zip(unions, true_nn, q_ids)])
            recall = float(recalls.mean())
            margin = 1.64 * float(recalls.std()) / np.sqrt(recalls.size)
            mean_cand = float(np.mean([len(u - {int(q)}) for u, q in zip(unions, q_ids)]))
            mean_touched = float(np.mean(touched))
            entry = lsh.TuneResult(l, L, True, recall, mean_cand, mean_touched)
            if recall >= target_recall + margin:
                if mean_cand <= candidate_cap:
                    if best is None or mean_touched < best.expected_touched:
                        best = entry
                elif best_over_cap is None or mean_touched < best_over_cap.expected_touched:
                    best_over_cap = entry
            if fallback is None or recall > fallback.recall:
                fallback = entry
    if best is not None:
        return best
    if best_over_cap is not None:
        return best_over_cap
    return lsh.TuneResult(fallback.l, fallback.L, False, fallback.recall, fallback.mean_candidates,
                          fallback.expected_touched)


def low_bucket_sizes(dataset, seed):
    """Per table, the number of points that share each point's low 8 key
    bits in tune's maximal family: (n, 32)."""
    low = hash_matrix(new_family(PLAIN, 64, 32, dataset.d, seed=seed), dataset.vectors) & np.uint64(255)
    sizes = np.empty(low.shape, dtype=np.intp)
    for t, col in enumerate(low.T):
        _, bucket, counts = np.unique(col, return_inverse=True, return_counts=True)
        sizes[:, t] = counts[bucket]
    return sizes


class TestTuneMemory:
    def test_peak_is_the_keys_and_two_bounded_buffers(self):
        # the (n, 32) keys, the (64, n) uint8 longest prefixes, one slice
        # of pairs within _TUNE_BYTES and 2 MiB of work space; scoring all
        # 64 queries against all points at once (7.3 MiB here) fails
        ds = clustered_dataset(4096)
        tracemalloc.start()
        try:
            lsh.tune(ds, 0.8, seed=42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ds.n * 32 * 8 + 2 * lsh._TUNE_BYTES + 2**21

    def test_peak_stays_bounded_when_every_bucket_is_a_quarter_of_the_points(self):
        # 4 distinct rows: each query's low-8-bit bucket holds about 1,000
        # points in every table, so each table has over 57,600 pairs;
        # scoring a table's pairs in one piece (7.1 MiB here) fails
        rng = np.random.default_rng(0)
        ds = Dataset(vectors=normalize_rows(rng.standard_normal((4, 24)))[rng.integers(0, 4, 4096)])
        assert low_bucket_sizes(ds, 42).min() >= 900
        tracemalloc.start()
        try:
            lsh.tune(ds, 0.8, seed=42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ds.n * 32 * 8 + 2 * lsh._TUNE_BYTES + 2**21


def oracle_dataset(data) -> Dataset:
    """1 to 100 points in 1 to 6 dimensions, Gaussian or in 4 tight
    clusters, with none, some or most of them overwritten by copies of
    others."""
    n = data.draw(st.integers(1, 100))
    d = data.draw(st.integers(1, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans()):
        points = rng.standard_normal((n, d))
    else:  # clustered, so that some pairs reach the target
        points = rng.standard_normal((4, d))[rng.integers(0, 4, n)] + 0.05 * rng.standard_normal((n, d))
    dup = rng.random(n) < data.draw(st.sampled_from([0.0, 0.3, 0.9]))
    points[dup] = points[rng.integers(0, n, dup.sum())]
    return Dataset(vectors=points)


# 320 bytes are 5 pairs a slice, fewer than most buckets hold, so a
# query's bucket is split across several slices
_FEW_PAIRS = 320


def truth_by_select_nn(vectors, q_ids, k=10):
    """Tune's leave-one-out ground truth, one select_nn over every point per
    query: the reference that lsh._true_neighbors must match exactly."""
    n = vectors.shape[0]
    truth = np.empty((q_ids.size, min(k, n - 1)), dtype=np.intp)
    for row, qi in zip(truth, q_ids):
        nearest = select_nn(SelectionProblem(vectors[qi], np.arange(n), vectors, k + 1, 0.0)).ids
        row[:] = nearest[nearest != qi][: row.size]
    return truth


class TestTuneTruth:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_select_nn_per_query(self, data):
        shape = data.draw(st.sampled_from(["oracle", "integer", "few"]))
        if shape == "oracle":
            vectors = oracle_dataset(data).vectors
        else:
            n = data.draw(st.integers(1, 12 if shape == "few" else 100))
            d = data.draw(st.integers(1, 6))
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            if shape == "integer":
                # many exact distance ties, and twins; scaled by 0.1 and
                # moved off the origin, the ties and near ties of the
                # distances lie far below the rounding of |x|^2 - 2 q.x + |q|^2
                scale = data.draw(st.sampled_from([1.0, 0.1]))
                vectors = rng.integers(-2, 3, (n, d)) * scale + data.draw(st.sampled_from([0.0, 3.7, 1e3]))
            else:
                vectors = rng.standard_normal((n, d))
        n = vectors.shape[0]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        q_ids = np.sort(rng.choice(n, size=min(64, n), replace=False))
        with pytest.MonkeyPatch.context() as mp:
            if data.draw(st.booleans()):  # one query a block
                mp.setattr(lsh, "_TUNE_BYTES", 8)
            got = lsh._true_neighbors(vectors, q_ids, 10)
        want = truth_by_select_nn(vectors, q_ids)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_matches_select_nn_on_clustered_sample(self):
        ds = clustered_dataset(4096)
        q_ids = np.sort(np.random.default_rng(42).choice(ds.n, size=64, replace=False))
        assert np.array_equal(lsh._true_neighbors(ds.vectors, q_ids, 10), truth_by_select_nn(ds.vectors, q_ids))


class TestTuneOracle:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_matches_set_based_tuner(self, data):
        ds = oracle_dataset(data)
        kwargs = dict(
            epsilon=data.draw(st.sampled_from([0.5, 1.0, 3.0])),
            seed=data.draw(st.integers(0, 50)),
        )
        target = data.draw(st.sampled_from([0.3, 0.8, 0.95]))
        assert lsh.tune(ds, target, **kwargs) == tune_by_sets(ds, target, **kwargs)

    def test_matches_set_based_tuner_on_toy(self, toy_1k):
        sample = Dataset(vectors=toy_1k.vectors[::4])
        assert lsh.tune(sample, 0.8, seed=3) == tune_by_sets(sample, 0.8, seed=3)

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_buckets_split_across_pair_slices_match_set_based_tuner(self, data):
        ds = oracle_dataset(data)
        seed = data.draw(st.integers(0, 50))
        target = data.draw(st.sampled_from([0.3, 0.8, 0.95]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lsh, "_TUNE_BYTES", _FEW_PAIRS)
            assert lsh.tune(ds, target, seed=seed) == tune_by_sets(ds, target, seed=seed)

    def test_buckets_split_across_pair_slices_match_set_based_tuner_on_toy(self, toy_1k, monkeypatch):
        sample = Dataset(vectors=toy_1k.vectors[::4])
        assert np.median(low_bucket_sizes(sample, 3)) > _FEW_PAIRS // 64
        monkeypatch.setattr(lsh, "_TUNE_BYTES", _FEW_PAIRS)
        assert lsh.tune(sample, 0.8, seed=3) == tune_by_sets(sample, 0.8, seed=3)


def tune_and_projections(dataset, target, **kwargs):
    """tune's result and the (d, k) planes of each of its hash_matrix
    calls, in order."""
    projected = []

    def spy(family, vectors, tables=slice(None), bits=slice(None), out=None):
        projected.append(family._planes.reshape(family.d, family.L, family.l)[:, tables, bits].reshape(family.d, -1))
        return hash_matrix(family, vectors, tables, bits, out)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lsh, "hash_matrix", spy)
        result = lsh.tune(dataset, target, **kwargs)
    return result, projected


class TestTuneStages:
    """tune hashes the low 32 key bits of every table first, and the high
    32 only when recall at (32, 32) reaches the target; either way its
    pick is the set-based tuner's over the full 64-bit keys."""

    @pytest.mark.parametrize("dataset, target, seed, high, feasible", [
        # recall at 32 bits is far below the target
        pytest.param(Dataset(vectors=np.random.default_rng(0).standard_normal((100, 8))), 0.5, 1, False, True,
                     id="gaussian"),
        # the pick, (60, 2), needs all 64 bits
        pytest.param(near_duplicates(), 0.95, 3, True, True, id="near-duplicates"),
        # fewer than 10 true neighbours, or none
        pytest.param(Dataset(vectors=np.ones((1, 3))), 0.8, 0, False, False, id="n1"),
        pytest.param(Dataset(vectors=np.random.default_rng(1).standard_normal((2, 3))), 0.8, 0, False, False,
                     id="n2"),
        pytest.param(Dataset(vectors=np.repeat(np.random.default_rng(2).standard_normal((1, 4)), 7, axis=0)),
                     0.8, 0, True, True, id="n7-twins"),
        pytest.param(Dataset(vectors=np.random.default_rng(3).standard_normal((11, 5))), 0.5, 2, False, False,
                     id="n11"),
        # no pair clears the target by its margin: the best-recall fallback,
        # on both sides; in 7 groups of 11 equal rows and one of 10, the
        # sampled queries of the 10 miss their 10th neighbour, and recall
        # at (32, 32) is 0.9875
        pytest.param(Dataset(vectors=np.random.default_rng(4).standard_normal((80, 6))), 0.99, 5, False, False,
                     id="unreachable-32-bits"),
        pytest.param(Dataset(vectors=np.repeat(normalize_rows(np.random.default_rng(5).standard_normal((8, 16))),
                                               [11] * 7 + [10], axis=0)),
                     0.985, 0, True, False, id="unreachable-64-bits"),
    ])
    def test_matches_set_based_tuner_on_both_sides(self, dataset, target, seed, high, feasible):
        got, projected = tune_and_projections(dataset, target, seed=seed)
        assert got == tune_by_sets(dataset, target, seed=seed)
        assert got.feasible == feasible
        assert [planes.shape[1] for planes in projected] == [32 * 32] * (1 + high)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_stops_at_32_bits_only_below_the_target(self, data):
        # the 32-bit stage is taken exactly when the set-based recall at
        # (32, 32) is below the target
        ds = oracle_dataset(data)
        seed = data.draw(st.integers(0, 50))
        target = data.draw(st.sampled_from([0.3, 0.8, 0.95]))
        got, projected = tune_and_projections(ds, target, seed=seed)
        assert got == tune_by_sets(ds, target, seed=seed)
        keys = hash_matrix(new_family(PLAIN, 32, 32, ds.d, seed=seed), ds.vectors)
        q_ids = np.sort(np.random.default_rng(seed).choice(ds.n, size=min(64, ds.n), replace=False))
        truth = truth_by_select_nn(ds.vectors, q_ids)
        hits = [sum(bool((keys[j] == keys[q]).any()) for j in row) for q, row in zip(q_ids, truth)]
        recall = (np.array(hits) / (truth.shape[1] or 1)).mean()
        assert len(projected) == (1 if recall < target else 2)

    def test_clustered_sample_projects_32_bits_a_table(self):
        # recall at (32, 32) is 0.42 here, below the target 0.8
        ds = clustered_dataset(4096)
        got, projected = tune_and_projections(ds, 0.8, seed=42)
        assert (got.l, got.L, got.feasible) == (12, 17, True)
        family = new_family(PLAIN, 32, 32, ds.d, seed=42)
        assert len(projected) == 1 and np.array_equal(projected[0], family._planes)

    def test_four_distinct_rows_project_each_of_the_64_bits_once(self):
        # every true neighbour is a copy of its query, so recall at (32,
        # 32) is 1 and the high bits are hashed, each plane once
        rng = np.random.default_rng(0)
        ds = Dataset(vectors=normalize_rows(rng.standard_normal((4, 24)))[rng.integers(0, 4, 4096)])
        _, projected = tune_and_projections(ds, 0.8, seed=42)
        planes = new_family(PLAIN, 64, 32, ds.d, seed=42).hyperplanes   # (32, 64, d)
        assert len(projected) == 2
        for half, bits in zip(projected, (slice(0, 32), slice(32, 64))):
            assert np.array_equal(half.T, planes[:, bits].reshape(32 * 32, ds.d))


class TestSparseData:
    def test_index_over_sparse_dataset(self, tmp_path):
        rng = np.random.default_rng(12)
        lines = []
        for _ in range(80):
            idx = np.sort(rng.choice(40, size=5, replace=False))
            vals = rng.uniform(0.1, 1.0, size=5)
            lines.append(" ".join(f"{i + 1}:{v:.6f}" for i, v in zip(idx, vals)))
        path = tmp_path / "sparse.svm"
        path.write_text("\n".join(lines) + "\n")
        from hashdiv.data import load_sparse

        ds = load_sparse(path, d=40)
        fam = new_family(PLAIN, 8, 4, 40, seed=0)
        index = lsh.build(ds, fam)
        # the LIBSVM rows are parsed into a dense array and hashed as such
        assert isinstance(ds.vectors, np.ndarray) and ds.vectors.shape == (80, 40)
        for i in (0, 40, 79):
            cand = lsh.query(index, ds.vectors[i])
            assert i in cand.ids

    def test_sparse_index_reloads_against_its_file_only(self, tmp_path):
        from hashdiv.data import load_sparse

        rng = np.random.default_rng(13)
        rows = []
        for _ in range(50):
            idx = np.sort(rng.choice(30, size=4, replace=False))
            rows.append(" ".join(f"{i + 1}:{v:.6f}" for i, v in zip(idx, rng.uniform(0.1, 1.0, size=4))))
        path = tmp_path / "sparse.svm"
        path.write_text("\n".join(rows) + "\n")
        ds = load_sparse(path, d=30)
        index = lsh.build(ds, new_family(PLAIN, 6, 3, 30, seed=1))
        blob = lsh.index_to_bytes(index)
        back = lsh.index_from_bytes(blob, load_sparse(path, d=30))
        for i in range(ds.n):
            assert np.array_equal(lsh.query(back, ds.vectors[i]).ids, lsh.query(index, ds.vectors[i]).ids)
        rows[7] = rows[8]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="different dataset"):
            lsh.index_from_bytes(blob, load_sparse(path, d=30))


class TestPersistence:
    def test_roundtrip_identical_queries(self, toy_1k, toy_index, tmp_path):
        path = tmp_path / "index.bin"
        lsh.save_index(toy_index, path)
        back = lsh.load_index(path, toy_1k)
        rng = np.random.default_rng(9)
        for _ in range(10):
            q = rng.standard_normal(toy_1k.d)
            q /= np.linalg.norm(q)
            a = lsh.query(toy_index, q)
            b = lsh.query(back, q)
            assert np.array_equal(a.ids, b.ids)
            assert a.touched == b.touched

    def test_wrong_dataset_size_rejected(self, toy_index, tmp_path):
        path = tmp_path / "index.bin"
        lsh.save_index(toy_index, path)
        wrong = Dataset(vectors=np.eye(8))
        with pytest.raises(ValueError, match="points"):
            lsh.load_index(path, wrong)

    def test_wrong_dataset_dimension_rejected(self, toy_1k, toy_index):
        flat = Dataset(vectors=toy_1k.vectors[:, :4].copy())
        with pytest.raises(ValueError, match=f"built over {toy_1k.d}-dimensional points, dataset has dimension 4"):
            lsh.index_from_bytes(lsh.index_to_bytes(toy_index), flat)

    def test_same_vectors_in_a_new_dataset_accepted(self, toy_1k, toy_index):
        back = lsh.index_from_bytes(lsh.index_to_bytes(toy_index), Dataset(vectors=toy_1k.vectors.copy()))
        q = toy_1k.vectors[7]
        assert np.array_equal(lsh.query(back, q).ids, lsh.query(toy_index, q).ids)

    def test_different_dataset_of_same_size_rejected(self, toy_1k, toy_index):
        other = toy_1k.vectors.copy()
        other[17] = -other[17]
        with pytest.raises(ValueError, match="different dataset"):
            lsh.index_from_bytes(lsh.index_to_bytes(toy_index), Dataset(vectors=other))

    def test_truncated_blob_rejected(self, toy_1k, toy_index):
        blob = lsh.index_to_bytes(toy_index)
        for size in (0, 3, 40, 103, 104, 200, len(blob) // 2, len(blob) - 8, len(blob) - 1):
            with pytest.raises(ValueError, match="truncated"):
                lsh.index_from_bytes(blob[:size], toy_1k)

    def test_corrupt_blob_rejected(self, toy_1k, toy_index):
        blob = lsh.index_to_bytes(toy_index)
        for pos in (9, 60, 100, len(blob) // 2, len(blob) - 1):
            bad = bytearray(blob)
            bad[pos] ^= 0x10
            with pytest.raises(ValueError, match="corrupt"):
                lsh.index_from_bytes(bytes(bad), toy_1k)
        with pytest.raises(ValueError, match="corrupt"):
            lsh.index_from_bytes(blob + b"\0", toy_1k)
        with pytest.raises(ValueError, match="magic"):
            lsh.index_from_bytes(b"HDVI" + blob[4:], toy_1k)

    def test_save_writes_no_copy_of_the_blob(self, tmp_path):
        index = lsh.build(clustered_dataset(20_000), new_family(PLAIN, 16, 8, 24, seed=0))
        blob = lsh.index_to_bytes(index)
        path = tmp_path / "index.bin"
        tracemalloc.start()
        try:
            lsh.save_index(index, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == blob
        assert peak < 2**16 < len(blob)

    def test_blob_of_the_older_layout_asks_for_a_rebuild(self, toy_1k, toy_index):
        # HDV2 stored untagged keys, HDV3 a separately framed family blob,
        # HDV4 int64 offsets and ids
        for magic in (b"HDV2", b"HDV3", b"HDV4"):
            with pytest.raises(ValueError, match=rf"^index blob has the older {magic.decode()} layout, "
                                                 r".* rebuild it with `hashdiv index build`$"):
                lsh.index_from_bytes(magic + lsh.index_to_bytes(toy_index)[4:], toy_1k)

    @pytest.mark.parametrize("kind, fields, refusal", [
        (PLAIN, {"l": 0}, r"l=0 out of range \[1, 64\]"),
        (PLAIN, {"l": 65}, r"l=65 out of range \[1, 64\]"),
        (PLAIN, {"L": 0}, r"L must be >= 1"),
        # once loaded, and every query's tagged keys were wrong
        (PLAIN, {"l": 63}, r"l=63 and L=4 do not fit one index"),
        (PCA_DIRECT, {"l": 5}, r"pcahash needs alpha >= l, got alpha=4, l=5"),
    ])
    def test_header_the_family_refuses_is_corrupt(self, toy_1k, kind, fields, refusal):
        # both checksums pass, so only the family's own checks can refuse it
        alpha = None if kind == PLAIN else 4
        blob = lsh.index_to_bytes(lsh.build(toy_1k, new_family(kind, 4, 4, toy_1k.d, alpha=alpha, dataset=toy_1k)))
        body = blob[lsh._HEADER.size : len(blob) - 4 * 4 * toy_1k.n] if fields.get("L") == 0 else None
        with pytest.raises(ValueError, match=rf"^corrupt index blob: {refusal}"):
            lsh.index_from_bytes(edit_index_blob(blob, body, **fields), toy_1k)

    # toy_index: n=1000, l=10, L=4. Each edit writes `value(arrays)` at
    # `at(arrays)` of one array.
    @pytest.mark.parametrize("name, at, value, refusal", [
        ("ids", lambda a: 0, lambda a: 10**6, r"a point id lies outside \[0, 1000\)"),
        ("ids", lambda a: -1, lambda a: -1, r"a point id lies outside \[0, 1000\)"),
        ("keys", lambda a: slice(0, 2), lambda a: a["keys"][1::-1], r"bucket keys are not strictly ascending"),
        ("keys", lambda a: 1, lambda a: a["keys"][0], r"bucket keys are not strictly ascending"),
        ("keys", lambda a: -1, lambda a: 4 << 10, r"a bucket key's table tag is not below L=4"),
        ("offsets", lambda a: 0, lambda a: 1, r"bucket offsets do not rise strictly from 0 to L\*n=4000"),
        ("offsets", lambda a: -1, lambda a: 3999, r"bucket offsets do not rise strictly from 0 to L\*n=4000"),
        ("offsets", lambda a: 2, lambda a: a["offsets"][1], r"bucket offsets do not rise strictly from 0 to L\*n=4000"),
        # table 1's first bucket starts one slot late, so table 0's last holds a table-1 slot
        ("offsets", lambda a: np.argmax(a["offsets"] == 1000), lambda a: 1001,
         r"table 1's buckets do not start at id slot 1000"),
        # table 3's first key retagged as one past table 2's last (1021 here)
        ("keys", lambda a: np.argmax(a["keys"] >> np.uint64(10) == 3),
         lambda a: a["keys"][np.argmax(a["keys"] >> np.uint64(10) == 3) - 1] + np.uint64(1),
         r"table 3's buckets do not start at id slot 3000"),
    ])
    def test_arrays_that_are_no_index_are_corrupt(self, toy_1k, toy_index, name, at, value, refusal):
        arrays = {"keys": toy_index.keys.copy(), "offsets": toy_index.offsets.copy(), "ids": toy_index.ids.copy()}
        arrays[name][at(arrays)] = value(arrays)
        # both checksums pass, so only the checks on the arrays can refuse it
        blob = edit_index_blob(lsh.index_to_bytes(toy_index), b"".join(a.tobytes() for a in arrays.values()))
        with pytest.raises(ValueError, match=rf"^corrupt index blob: {refusal}$"):
            lsh.index_from_bytes(blob, toy_1k)

    def test_fewer_buckets_than_tables_is_corrupt(self):
        # one point gives each of the 3 tables one bucket; a header and
        # arrays that agree on 2 buckets leave a table without one
        ds = Dataset(vectors=np.array([[1.0, 0.0]]))
        index = lsh.build(ds, new_family(PLAIN, 8, 3, 2, seed=0))
        body = index.keys[:2].tobytes() + np.array([0, 1, 3], dtype=np.int32).tobytes() + index.ids.tobytes()
        with pytest.raises(ValueError, match=r"^corrupt index blob: 2 buckets cannot give each of 3 tables one$"):
            lsh.index_from_bytes(edit_index_blob(lsh.index_to_bytes(index), body, buckets=2), ds)

    @given(
        kind=st.sampled_from(KINDS),
        l=st.integers(1, 64),
        L=st.integers(1, 5),
        d=st.integers(1, 6),
        alpha=st.integers(1, 6),
        seed=st.integers(0, 2**31 - 1),
    )
    # the shapes of toy_index, of test_hashing's pca blob and of the CI pcahash build
    @example(kind=PLAIN, l=10, L=4, d=8, alpha=1, seed=1)
    @example(kind=PCA, l=10, L=4, d=6, alpha=4, seed=3)
    @example(kind=PCA_DIRECT, l=6, L=4, d=8, alpha=8, seed=0)
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_and_every_flip_and_prefix_refused(self, kind, l, L, d, alpha, seed):
        alpha = min(alpha, d) if kind != PLAIN else None
        l = min(l, 64 - (L - 1).bit_length(), alpha if kind == PCA_DIRECT else 64)
        rng = np.random.default_rng(seed)
        ds = Dataset(vectors=rng.standard_normal((12, d)))
        index = lsh.build(ds, new_family(kind, l, L, d, alpha=alpha, seed=seed, dataset=ds))
        blob = lsh.index_to_bytes(index)
        back = lsh.index_from_bytes(blob, ds)
        fam, got = index.family, back.family
        assert (got.kind, got.l, got.L, got.d, got.alpha, got.seed) == (kind, l, L, d, alpha, seed)
        assert got.hyperplanes.tobytes() == fam.hyperplanes.tobytes()
        if kind != PLAIN:
            assert got.basis.U.tobytes() == fam.basis.U.tobytes()
            assert got.basis.singular_values.tobytes() == fam.basis.singular_values.tobytes()
        for q in np.vstack([ds.vectors[:3], rng.standard_normal((3, d))]):
            a, b = lsh.query(index, q), lsh.query(back, q)
            assert np.array_equal(a.ids, b.ids) and a.touched == b.touched
        for pos in range(len(blob)):
            bad = bytearray(blob)
            bad[pos] ^= 0xFF
            with pytest.raises(ValueError):
                lsh.index_from_bytes(bytes(bad), ds)
        for size in range(len(blob)):
            with pytest.raises(ValueError):
                lsh.index_from_bytes(blob[:size], ds)
