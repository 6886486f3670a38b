import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import clustered_dataset, edit_family_in_index_blob, toy_centers
from hashdiv import lsh
from hashdiv.data import Dataset, ToyConfig, make_toy, normalize_rows
from hashdiv.hashing import PLAIN, hash_matrix, new_family
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
    """Table t of the flat layout: its keys and its buckets, in key order."""
    lo, hi = index.table_bounds[t], index.table_bounds[t + 1]
    buckets = [index.ids[index.offsets[j] : index.offsets[j + 1]] for j in range(lo, hi)]
    return index.keys[lo:hi], buckets


def build_all_tables(dataset, family):
    """Reference build: one stable argsort over all L tables at once."""
    n = dataset.n
    keys = hash_matrix(family, dataset.vectors).T  # (L, n)
    order = np.argsort(keys, axis=1, kind="stable")
    sorted_keys = np.take_along_axis(keys, order, axis=1).ravel()
    first = np.ones(sorted_keys.size, dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    first[::n] = True  # every table opens a bucket
    starts = np.flatnonzero(first)
    return (sorted_keys[starts], np.append(starts, sorted_keys.size), order.ravel(),
            np.searchsorted(starts, np.arange(family.L + 1) * n))


class TestBuild:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_all_tables_argsort(self, data):
        n = data.draw(st.integers(1, 80))
        d = data.draw(st.integers(1, 5))
        l = data.draw(st.integers(1, 64))
        L = data.draw(st.integers(1, 12))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        points = rng.standard_normal((n, d))
        points[rng.random(n) < 0.3] = points[0]  # duplicates tie inside a bucket
        ds = Dataset(vectors=points)
        family = new_family(PLAIN, l, L, d, seed=data.draw(st.integers(0, 99)))
        index = lsh.build(ds, family)
        for got, want in zip((index.keys, index.offsets, index.ids, index.table_bounds), build_all_tables(ds, family)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_peak_memory_is_about_the_index(self):
        # the (n, L) keys, the index it returns and 1 MiB of work space; a
        # build that holds n x L*l float projections (20 MiB here) fails
        n, L = 20_000, 8
        ds = Dataset(vectors=normalize_rows(np.random.default_rng(0).standard_normal((n, 24))))
        family = new_family(PLAIN, 16, L, 24, seed=0)
        tracemalloc.start()
        try:
            index = lsh.build(ds, family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        index_bytes = index.keys.nbytes + index.offsets.nbytes + index.ids.nbytes + index.table_bounds.nbytes
        assert peak < n * L * 8 + index_bytes + 2**20

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
        assert index.table_bounds.tolist() == list(range(9))
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
        assert toy_index.bucket_sizes().sum() == toy_1k.n * toy_index.family.L
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

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_brute_force_bucket_union_and_survives_persistence(self, data):
        n = data.draw(st.integers(1, 60))
        d = data.draw(st.integers(1, 5))
        l = data.draw(st.integers(1, 10))
        L = data.draw(st.integers(1, 6))
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
            assert count == cand.size
            if cand.size == 0:
                assert res.ids.size == 0 and res.underfilled
            else:
                want = select(SelectionProblem(query=q, ids=cand, vectors=ds.dense_rows(cand), k=k, lam=lam))
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

    def test_empty_union(self):
        ds = Dataset(vectors=np.array([[1.0] + [0.0] * 15]))
        index = lsh.build(ds, new_family(PLAIN, 64, 1, 16, seed=3))
        # the antipode flips every one of the 64 sign bits
        for select in SELECTORS:
            res, count = lsh.retrieve(index, -ds.vectors[0], select, 5, 0.5)
            assert res.ids.size == 0 and res.underfilled and count == 0


class TestTune:
    def test_recall_boundary_rejected(self, toy_1k):
        with pytest.raises(ValueError):
            lsh.tune(toy_1k, target_recall=0.0)
        with pytest.raises(ValueError):
            lsh.tune(toy_1k, target_recall=1.0)

    def test_identical_points_cheapest_pair(self):
        ds = Dataset(vectors=np.tile([[0.6, 0.8]], (64, 1)))
        res = lsh.tune(ds, target_recall=0.9, seed=0)
        assert res.feasible
        assert (res.l, res.L) == (8, 1)  # everything collides; cheapest wins

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


def tune_by_sets(dataset, target_recall, epsilon=1.0, *, seed=0, n_queries=64, at_k=10):
    """The tuner written out with one bucket dict per (l, table) and Python
    set unions: the reference that lsh.tune must match exactly."""
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


class TestTuneOracle:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_matches_set_based_tuner(self, data):
        n = data.draw(st.integers(1, 100))
        d = data.draw(st.integers(1, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if data.draw(st.booleans()):
            points = rng.standard_normal((n, d))
        else:  # clustered, so that some pairs reach the target
            points = rng.standard_normal((4, d))[rng.integers(0, 4, n)] + 0.05 * rng.standard_normal((n, d))
        dup = rng.random(n) < data.draw(st.sampled_from([0.0, 0.3, 0.9]))
        points[dup] = points[rng.integers(0, n, dup.sum())]
        ds = Dataset(vectors=points)
        kwargs = dict(
            epsilon=data.draw(st.sampled_from([0.5, 1.0, 3.0])),
            seed=data.draw(st.integers(0, 50)),
            n_queries=data.draw(st.sampled_from([1, 7, 64])),
            at_k=data.draw(st.sampled_from([1, 3, 10])),
        )
        target = data.draw(st.sampled_from([0.3, 0.8, 0.95]))
        assert lsh.tune(ds, target, **kwargs) == tune_by_sets(ds, target, **kwargs)

    def test_matches_set_based_tuner_on_toy(self, toy_1k):
        sample = Dataset(vectors=toy_1k.vectors[::4])
        assert lsh.tune(sample, 0.8, seed=3) == tune_by_sets(sample, 0.8, seed=3)


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
        for size in (0, 3, 40, 83, 84, 200, len(blob) // 2, len(blob) - 8, len(blob) - 1):
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

    def test_family_disagreeing_with_header_rejected(self, toy_1k, toy_index):
        # the family's L, after its magic, kind code and l
        blob = edit_family_in_index_blob(lsh.index_to_bytes(toy_index), 9, struct.pack("<I", toy_index.family.L - 1))
        with pytest.raises(ValueError, match=r"^corrupt index blob: its family has L=3, d=8, its header L=4, d=8"):
            lsh.index_from_bytes(blob, toy_1k)
