import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import bit_agreement, edit_index_blob, pair_at_angle, unit_vector
from hashdiv import hashing, lsh
from hashdiv.data import Dataset, normalize_rows
from hashdiv.hashing import (
    KINDS,
    PCA,
    PCA_DIRECT,
    PLAIN,
    hash_matrix,
    hash_vector,
    new_family,
)
from hashdiv.linalg import TruncatedBasis


def reference_planes(seed: int, l: int, L: int, dim: int) -> np.ndarray:
    """(L, l, dim): plane (t, b) from its own SeedSequence and Philox
    generator, the definition new_family reproduces without building them."""
    return np.array([
        [np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(t, b)))).standard_normal(dim)
         for b in range(l)]
        for t in range(L)
    ]).reshape(L, l, dim)


class TestNewFamily:
    @given(
        kind=st.sampled_from([PLAIN, PCA]),
        l=st.integers(1, 64),
        L=st.integers(1, 32),
        dim=st.integers(1, 6),
        seed=st.integers(0, 2**63 - 1),
    )
    @example(kind=PLAIN, l=64, L=32, dim=3, seed=2**63 - 1)
    @example(kind=PCA, l=5, L=3, dim=2, seed=2**32)
    @example(kind=PLAIN, l=1, L=1, dim=1, seed=0)
    @settings(max_examples=30, deadline=None)
    def test_planes_equal_one_generator_per_plane(self, kind, l, L, dim, seed):
        # seeds of one and two 32-bit words, every table and bit index
        if kind == PLAIN:
            fam = new_family(PLAIN, l, L, dim, seed=seed)
        else:
            basis = TruncatedBasis(U=np.eye(dim + 1)[:, :dim], singular_values=np.ones(dim))
            fam = new_family(PCA, l, L, dim + 1, seed=seed, basis=basis)
        assert fam.hyperplanes.dtype == np.float64
        np.testing.assert_array_equal(fam.hyperplanes, reference_planes(seed, l, L, dim))

    def test_pinned_planes(self):
        # literal values: a change that moves every Philox key fails here
        # even if the reference above moved with it
        planes = new_family(PLAIN, 3, 2, 4, seed=2**40 + 9).hyperplanes
        np.testing.assert_array_equal(
            planes[0, 0], [0.22197858848138816, 1.677396898534265, -0.17499410578730185, -1.627145253195565]
        )
        np.testing.assert_array_equal(
            planes[1, 2], [-0.9542147649817654, -0.6778581919888382, 0.20467825311990975, 0.9016754599585373]
        )

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64 + 1, 1.0, "3", None])
    def test_seed_outside_the_blob_field_is_refused_before_any_work(self, seed):
        ds = Dataset(vectors=normalize_rows(np.random.default_rng(0).standard_normal((20, 6))))
        for kind in KINDS:
            with mock.patch.object(hashing, "truncated_svd", side_effect=AssertionError("SVD before the seed check")):
                with pytest.raises(ValueError, match=rf"^seed={re.escape(repr(seed))} is not an integer in \[0, 2\*\*63\)$"):
                    new_family(kind, 4, 2, 6, seed=seed, dataset=ds)

    def test_numpy_integer_seed_is_stored_as_int(self):
        fam = new_family(PLAIN, 4, 2, 3, seed=np.int64(2**63 - 1))
        assert type(fam.seed) is int and fam.seed == 2**63 - 1
        np.testing.assert_array_equal(fam.hyperplanes, reference_planes(2**63 - 1, 4, 2, 3))

    def test_deterministic(self):
        a = new_family(PLAIN, 8, 3, 16, seed=5)
        b = new_family(PLAIN, 8, 3, 16, seed=5)
        assert np.array_equal(a.hyperplanes, b.hyperplanes)

    def test_seed_changes_planes(self):
        a = new_family(PLAIN, 8, 3, 16, seed=5)
        b = new_family(PLAIN, 8, 3, 16, seed=6)
        assert not np.array_equal(a.hyperplanes, b.hyperplanes)

    def test_prefix_consistency(self):
        # hyperplane (t, b) depends only on (seed, t, b): a smaller family is
        # a bit-exact prefix of a bigger one, which the tuner relies on
        small = new_family(PLAIN, 4, 2, 16, seed=9)
        big = new_family(PLAIN, 16, 8, 16, seed=9)
        np.testing.assert_array_equal(small.hyperplanes, big.hyperplanes[:2, :4, :])

    def test_families_compare_and_hash_by_identity(self):
        a, b = new_family(PLAIN, 4, 2, 3), new_family(PLAIN, 4, 2, 3)
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_l_bound(self):
        with pytest.raises(ValueError, match="l=65"):
            new_family(PLAIN, 65, 1, 8)
        # and the kind and dimension checks beside it
        with pytest.raises(ValueError, match=r"^unknown hash kind 'lsh', expected one of \("):
            new_family("lsh", 8, 1, 8)
        with pytest.raises(ValueError, match="^d must be >= 1$"):
            new_family(PLAIN, 8, 1, 0)

    def test_pca_requires_data_or_basis(self):
        with pytest.raises(ValueError, match="dataset or a precomputed basis"):
            new_family(PCA, 8, 2, 16, alpha=4)
        # a basis fixes alpha to its width
        basis = TruncatedBasis(U=np.eye(16)[:, :4], singular_values=np.ones(4))
        with pytest.raises(ValueError, match="^alpha=3 does not match basis with 4 columns$"):
            new_family(PCA, 8, 2, 16, alpha=3, basis=basis)
        # the data or the basis must live in the family's dimension
        with pytest.raises(ValueError, match="^basis dimension 16 != family dimension 12$"):
            new_family(PCA, 8, 2, 12, basis=basis)
        with pytest.raises(ValueError, match="^dataset dimension 16 != family dimension 12$"):
            new_family(PCA, 8, 2, 12, dataset=Dataset(vectors=np.eye(16)))

    def test_pca_planes_live_in_data_subspace(self):
        # dataset confined to a 2-dim subspace: every effective normal U r
        # must lie in that subspace
        rng = np.random.default_rng(3)
        basis2 = np.linalg.qr(rng.standard_normal((10, 2)))[0]
        coords = rng.standard_normal((200, 2))
        ds = Dataset(vectors=normalize_rows(coords @ basis2.T))
        fam = new_family(PCA, 6, 2, 10, alpha=2, seed=0, dataset=ds)
        proj = basis2 @ basis2.T
        for t in range(fam.L):
            for b in range(fam.l):
                normal = fam.basis.U @ fam.hyperplanes[t, b]
                np.testing.assert_allclose(proj @ normal, normal, atol=1e-6)

    def test_pca_direct_needs_alpha_ge_l(self):
        rng = np.random.default_rng(0)
        ds = Dataset(vectors=normalize_rows(rng.standard_normal((50, 12))))
        with pytest.raises(ValueError, match="alpha >= l"):
            new_family(PCA_DIRECT, 8, 1, 12, alpha=4, dataset=ds)

    def test_pca_direct_uses_distinct_directions(self):
        rng = np.random.default_rng(1)
        ds = Dataset(vectors=normalize_rows(rng.standard_normal((60, 12))))
        fam = new_family(PCA_DIRECT, 4, 2, 12, alpha=8, dataset=ds)
        # table 0 uses components 0..3, table 1 uses 4..7
        assert fam.hyperplanes[0, 0, 0] == 1.0
        assert fam.hyperplanes[1, 0, 4] == 1.0


class TestHashPoint:
    def test_antipodal_points_complement(self):
        rng = np.random.default_rng(7)
        fam = new_family(PLAIN, 16, 4, 12, seed=1)
        x = unit_vector(rng, 12)
        keys = hash_vector(fam, x)
        keys_neg = hash_vector(fam, -x)
        mask = np.uint64((1 << 16) - 1)
        # no projection is exactly zero for continuous x, so keys complement
        assert np.array_equal(keys ^ keys_neg, np.full(4, mask))

    def test_first_hyperplane_self_dot(self):
        fam = new_family(PLAIN, 1, 1, 8, seed=2)
        r0 = fam.hyperplanes[0, 0]
        assert hash_vector(fam, r0 / np.linalg.norm(r0))[0] == 1

    def test_identical_points_identical_keys(self, small_toy):
        fam = new_family(PLAIN, 12, 6, small_toy.d, seed=4)
        x = small_toy.vectors[17]
        assert np.array_equal(hash_vector(fam, x), hash_vector(fam, x.copy()))

    def test_dimension_mismatch(self):
        fam = new_family(PLAIN, 8, 2, 8, seed=0)
        with pytest.raises(ValueError, match="dimension"):
            hash_vector(fam, np.ones(9))
        with pytest.raises(ValueError, match="^point dimension 9 != family dimension 8$"):
            hash_matrix(fam, np.ones((3, 9)))

    @pytest.mark.parametrize("call, shape", [
        (lambda fam: hash_matrix(fam, np.ones(8)), (8,)),
        (lambda fam: hash_matrix(fam, np.ones((2, 2, 2))), (2, 2, 2)),
        (lambda fam: hash_matrix(fam, np.ones((0, 8, 1))), (0, 8, 1)),
        (lambda fam: hash_vector(fam, np.ones((2, 4))), (2, 4)),
        (lambda fam: hash_vector(fam, np.ones((1, 8))), (1, 8)),
        (lambda fam: hash_vector(fam, np.float64(1.0)), ()),
    ])
    def test_array_of_another_shape_refused_naming_it(self, call, shape):
        # a d-8 family: the refused (2, 4) holds 8 values, and (1, 8) is one
        # row, not one point
        with pytest.raises(ValueError, match=rf"^expected .+, got shape {re.escape(str(shape))}$"):
            call(new_family(PLAIN, 8, 2, 8, seed=0))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_nan_or_infinite_coordinate_refused(self, kind, bad):
        # [nan, 0, 0, 0] once hashed to key 0 in every table and [inf, 1, 1, 1]
        # got keys too; hash_matrix names the first bad row, as Dataset does,
        # and refuses before it writes a key
        rng = np.random.default_rng(5)
        ds = Dataset(vectors=normalize_rows(rng.standard_normal((30, 4))))
        fam = new_family(kind, 4, 3, 4, alpha=None if kind == PLAIN else 4, seed=2, dataset=ds)
        for row in ([bad, 0.0, 0.0, 0.0], [bad, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, bad]):
            with pytest.raises(ValueError, match="^point has a NaN or infinite coordinate$"):
                hash_vector(fam, row)
            rows = np.ones((6, 4))
            rows[4], rows[2] = row, row
            out = np.full((6, 3), 7, dtype=np.uint8)
            with pytest.raises(ValueError, match="^point 2 has a NaN or infinite coordinate$"):
                hash_matrix(fam, rows, out=out)
            assert (out == 7).all()

    def test_finite_points_whose_sum_overflows_still_hash(self):
        # the sum that proves the points finite overflows to inf here, and
        # the scan that follows finds every coordinate finite; scaling by a
        # power of two keeps every projection's sign
        fam = new_family(PLAIN, 8, 2, 3, seed=0)
        rows = np.abs(np.random.default_rng(1).standard_normal((40, 3))) + 0.5
        with np.errstate(over="ignore"):
            assert not np.isfinite((rows * 2.0**1018).sum())
        huge = hash_matrix(fam, rows * 2.0**1018)  # pytest turns a RuntimeWarning into an error
        assert np.array_equal(huge, hash_matrix(fam, rows))
        assert np.array_equal(hash_vector(fam, rows[0] * 2.0**1018), huge[0])

    def test_array_likes_hash_as_arrays(self):
        fam = new_family(PLAIN, 8, 2, 3, seed=0)
        rows = [[1.0, -2.0, 0.5], [0, 1, 0]]
        assert np.array_equal(hash_matrix(fam, rows), hash_matrix(fam, np.array(rows, dtype=float)))
        assert np.array_equal(hash_vector(fam, rows[1]), hash_matrix(fam, rows)[1])
        with pytest.raises(ValueError, match="^point dimension 2 != family dimension 3$"):
            hash_matrix(fam, [[1.0, 2.0]])

    def test_bulk_matches_single(self, small_toy):
        fam = new_family(PLAIN, 10, 3, small_toy.d, seed=8)
        keys = hash_matrix(fam, small_toy.vectors)
        for i in (0, 5, 99):
            assert np.array_equal(keys[i], hash_vector(fam, small_toy.vectors[i]))

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_row_path_matches_hash_matrix(self, kind):
        # alpha = 7 < d = 12 for the pca kinds, so U^T x is a real projection
        rng = np.random.default_rng(11)
        ds = Dataset(vectors=normalize_rows(rng.standard_normal((60, 12))))
        fam = new_family(kind, 6, 5, 12, alpha=None if kind == PLAIN else 7, seed=3, dataset=ds)
        rows = np.vstack([rng.standard_normal((20, 12)), np.zeros((1, 12)), ds.vectors[:5]])
        for x in rows:
            keys = hash_vector(fam, x)
            assert keys.dtype == np.uint64 and keys.shape == (5,)
            assert np.array_equal(keys, hash_matrix(fam, x[None])[0])
        with pytest.raises(ValueError, match="point dimension 7 != family dimension 12"):
            hash_vector(fam, np.ones(7))

    def test_zero_projection_maps_to_bit_one(self):
        # the >= 0 convention: an exactly-zero projection sets the bit
        eye = TruncatedBasis(U=np.eye(4), singular_values=np.ones(4))
        fam = new_family(PCA_DIRECT, 4, 1, 4, alpha=4, basis=eye)
        key = hash_vector(fam, np.array([0.0, -1.0, 0.0, 2.0]))[0]
        assert key == 0b1101

    def test_pca_identity_basis_matches_plain(self):
        # alpha = d with U = I reproduces the plain family bit for bit
        d = 9
        eye = TruncatedBasis(U=np.eye(d), singular_values=np.ones(d))
        plain = new_family(PLAIN, 12, 3, d, seed=6)
        pca = new_family(PCA, 12, 3, d, alpha=d, seed=6, basis=eye)
        rng = np.random.default_rng(0)
        x = unit_vector(rng, d)
        assert np.array_equal(hash_vector(plain, x), hash_vector(pca, x))


def reference_keys(family, vectors) -> np.ndarray:
    """Brute force: bit b of table t is hyperplanes[t, b] . proj(x) >= 0,
    set at position b of a Python int."""
    keys = np.zeros((vectors.shape[0], family.L), dtype=np.uint64)
    for i, x in enumerate(vectors):
        z = x if family.kind == PLAIN else family.basis.U.T @ x
        for t in range(family.L):
            keys[i, t] = sum(1 << b for b in range(family.l) if family.hyperplanes[t, b] @ z >= 0.0)
    return keys


def block_budget(rows: int, k: int, m: int, d: int) -> int:
    """A _BLOCK_BYTES under which hash_matrix hashes k tables of m bits
    over d-dimensional rows `rows` rows a block, when it has n rows with
    n m >= rows max(k m, d)."""
    return rows * 8 * max(k * m, d)


# unsigned types and the key widths on each side of their 8-, 16-, 32- and
# 64-bit words
UNSIGNED = (np.uint8, np.uint16, np.uint32, np.uint64)
WORD_EDGES = (1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64)


def out_array(n: int, k: int, dtype, layout: str) -> np.ndarray:
    """An (n, k) array of dtype to write keys into, filled with ones so
    that an unwritten key shows: contiguous, every other column of a wider
    array, or the transpose of a (k, n) array."""
    if layout == "strided":
        return np.ones((n, 2 * k), dtype=dtype)[:, 1::2]
    if layout == "transposed":
        return np.ones((k, n), dtype=dtype).T
    return np.ones((n, k), dtype=dtype)


class TestHashMatrixOracle:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_brute_force(self, data):
        kind = data.draw(st.sampled_from(KINDS))
        d = data.draw(st.integers(1, 70))
        alpha = data.draw(st.integers(1, d))
        l = data.draw(st.integers(1, min(64, alpha) if kind == PCA_DIRECT else 64))
        L = data.draw(st.integers(1, 32))
        n = data.draw(st.integers(0, 40))
        rows_per_block = data.draw(st.sampled_from([None, 1, 2, 3, 7]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.standard_normal((n, d))
        x[rng.random(n) < 0.2] = 0.0  # every projection of a zero row is exactly 0
        if data.draw(st.booleans()):
            x[rng.random((n, d)) < 0.5] = 0.0
        basis = None
        if kind != PLAIN:
            U = np.linalg.qr(rng.standard_normal((d, alpha)))[0]
            basis = TruncatedBasis(U=U, singular_values=np.ones(alpha))
        fam = new_family(kind, l, L, d, seed=data.draw(st.integers(0, 99)), basis=basis)
        # a slice of the tables, with a step, and a run of the key bits
        t0 = data.draw(st.integers(0, L - 1))
        tables = slice(t0, data.draw(st.integers(t0 + 1, L)), data.draw(st.integers(1, 3)))
        b0 = data.draw(st.integers(0, l - 1))
        bits = data.draw(st.sampled_from([slice(None), slice(b0, data.draw(st.integers(b0 + 1, l)))]))
        run = range(l)[bits]
        k, m = len(range(L)[tables]), len(run)
        narrowest = np.min_scalar_type((1 << m) - 1).itemsize
        dtype = data.draw(st.sampled_from([t for t in UNSIGNED if np.dtype(t).itemsize >= narrowest]))
        out = out_array(n, k, dtype, data.draw(st.sampled_from(["contiguous", "strided", "transposed"])))
        budget = lambda k, m: hashing._BLOCK_BYTES if rows_per_block is None else block_budget(rows_per_block, k, m, d)
        with mock.patch.object(hashing, "_BLOCK_BYTES", budget(L, l)):
            keys = hash_matrix(fam, x)
        with mock.patch.object(hashing, "_BLOCK_BYTES", budget(1, l)):
            tables_one = [hash_matrix(fam, x, slice(t, t + 1)) for t in range(L)]
        with mock.patch.object(hashing, "_BLOCK_BYTES", budget(k, m)):
            cut = hash_matrix(fam, x, tables, bits, out=out)
        want = reference_keys(fam, x)
        assert keys.dtype == np.uint64 and keys.shape == (n, L)
        assert np.array_equal(keys, want)
        for t in range(L):
            assert tables_one[t].dtype == np.uint64 and np.array_equal(tables_one[t], keys[:, t : t + 1])
        assert cut is out
        mask = np.uint64((1 << m) - 1) if m < 64 else ~np.uint64(0)
        assert np.array_equal(cut, want[:, tables] >> np.uint64(run.start) & mask)
        for i in range(n):
            assert np.array_equal(hash_vector(fam, x[i]), keys[i])

    def test_rows_cross_block_boundaries(self):
        # l=64, L=32 leaves one row a block, so 40 rows fill 40 blocks
        fam = new_family(PLAIN, 64, 32, 6, seed=2)
        assert min(40 * 64, hashing._BLOCK_BYTES // 8) // (64 * 32) == 1
        x = np.random.default_rng(4).standard_normal((40, 6))
        keys = hash_matrix(fam, x)
        assert np.array_equal(keys, reference_keys(fam, x))
        assert np.array_equal(keys[17], hash_vector(fam, x[17]))

    @pytest.mark.parametrize("n", [0, 37])
    @pytest.mark.parametrize("l", WORD_EDGES)
    def test_keys_at_every_word_boundary(self, l, n):
        # blocks of 8 rows (of 7 at l = 1, where 37 l < 8 d), so 37 rows
        # leave a partial last block; every fifth row is zero, whose
        # projections are exactly 0 and set every bit
        L, d = 3, 5
        fam = new_family(PLAIN, l, L, d, seed=l)
        x = np.random.default_rng(l).standard_normal((n, d))
        x[::5] = 0.0
        with mock.patch.object(hashing, "_BLOCK_BYTES", block_budget(8, L, l, d)):
            keys = hash_matrix(fam, x)
        with mock.patch.object(hashing, "_BLOCK_BYTES", block_budget(8, 1, l, d)):
            tables = [hash_matrix(fam, x, slice(t, t + 1)) for t in range(L)]
        assert keys.dtype == np.uint64 and keys.shape == (n, L)
        assert np.array_equal(keys, reference_keys(fam, x))
        assert (keys[::5] == np.uint64((1 << l) - 1)).all()
        for t in range(L):
            assert tables[t].dtype == np.uint64 and np.array_equal(tables[t], keys[:, t : t + 1])
        for i in range(n):
            assert np.array_equal(hash_vector(fam, x[i]), keys[i])

    @settings(max_examples=40, deadline=None)
    @given(
        start=st.integers(0, 63),
        width=st.integers(1, 64),
        L=st.integers(1, 6),
        n=st.integers(0, 30),
        d=st.integers(1, 8),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_bits_are_a_shifted_slice_of_a_shorter_family_keys(self, start, width, L, n, d, seed):
        # plane (t, b) depends only on (seed, t, b): bits [start, stop) of
        # the 64-bit family are the keys of the stop-bit family shifted down
        stop = min(64, start + width)
        x = np.random.default_rng(seed % 2**32).standard_normal((n, d))
        want = hash_matrix(new_family(PLAIN, stop, L, d, seed=seed), x) >> np.uint64(start)
        family = new_family(PLAIN, 64, L, d, seed=seed)
        assert np.array_equal(hash_matrix(family, x, bits=slice(start, stop)), want)
        if stop - start <= 32:   # into every other uint32, as tune writes the halves of its keys
            halves = np.zeros((n, L, 2), dtype=np.uint32)
            hash_matrix(family, x, bits=slice(start, stop), out=halves[:, :, 1])
            assert np.array_equal(halves[:, :, 1], want) and not halves[:, :, 0].any()

    @pytest.mark.parametrize("m", WORD_EDGES)
    def test_narrowest_word_that_holds_the_run(self, m):
        # m key bits fit the unsigned word of 8, 16, 32 or 64 bits that
        # holds m; the next narrower one is refused
        fam = new_family(PLAIN, 64, 3, 5, seed=m)
        x = np.random.default_rng(m).standard_normal((21, 5))
        word = np.min_scalar_type((1 << m) - 1)
        got = hash_matrix(fam, x, bits=slice(64 - m, 64), out=np.empty((21, 3), dtype=word))
        assert np.array_equal(got, hash_matrix(fam, x) >> np.uint64(64 - m))
        if word.itemsize > 1:
            with pytest.raises(ValueError, match=f"needs unsigned words of at least {8 * word.itemsize} bits$"):
                hash_matrix(fam, x, bits=slice(0, m), out=np.empty((21, 3), dtype=f"u{word.itemsize // 2}"))

    @pytest.mark.parametrize("bits", [slice(0, 0), slice(5, 5), slice(9, None), slice(-1, 2), slice(0, 8, 2),
                                      slice(None, None, -1)])
    def test_bits_that_are_not_a_run_refused(self, bits):
        fam = new_family(PLAIN, 8, 2, 3, seed=0)
        message = rf"^bits={re.escape(str(bits))} is not a non-empty run of the family's 8 key bits$"
        with pytest.raises(ValueError, match=message):
            hash_matrix(fam, np.ones((2, 3)), bits=bits)

    @pytest.mark.parametrize("out", [
        np.zeros((4, 2), dtype=np.uint64),   # n + 1 rows
        np.zeros((3, 3), dtype=np.uint64),   # k + 1 tables
        np.zeros((2, 3), dtype=np.uint64),   # (k, n), not transposed
        np.zeros(6, dtype=np.uint64),
        np.zeros((3, 2), dtype=np.int64),
        np.zeros((3, 2)),
        np.zeros((3, 2), dtype=np.uint8),    # 9 bits need 16
    ])
    def test_out_that_cannot_hold_the_keys_refused(self, out):
        fam = new_family(PLAIN, 9, 2, 3, seed=0)
        with pytest.raises(ValueError, match=rf"^out of shape {re.escape(str(out.shape))} and type {out.dtype} "
                                             r"cannot hold \(3, 2\) keys of 9 bits"):
            hash_matrix(fam, np.ones((3, 3)), out=out)
        assert not out.any()


def agreement(a, b, l: int, L: int, seed: int) -> float:
    """Fraction of the l * L plain sign bits of a equal to those of b."""
    family = new_family(PLAIN, l, L, len(a), seed=seed)
    return float(bit_agreement(hash_matrix(family, np.stack([a, b])), l)[0])


class TestCollisionLaw:
    def test_estimate_equal(self):
        assert agreement([1.0, 1.0], [2.0, 2.0], 50, 2, seed=0) == 1.0

    def test_estimate_antipodal(self):
        assert agreement([1.0, 0.5], [-1.0, -0.5], 50, 2, seed=0) == 0.0

    def test_estimate_60_degrees(self):
        a, b = pair_at_angle(60.0)
        est = agreement(a, b, 50, 1_000, seed=12)
        assert abs(est - 2.0 / 3.0) <= 0.01

    @pytest.mark.parametrize("theta", [15.0, 45.0, 60.0, 90.0, 150.0])
    def test_binomial_concentration(self, theta):
        a, b = pair_at_angle(theta)
        l, L = 40, 500
        est = agreement(a, b, l, L, seed=int(theta))
        assert abs(est - (1.0 - theta / 180.0)) <= 4.0 * np.sqrt(0.25 / (l * L))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_pca_bits_follow_the_projected_angle(self, seed):
        # a pca bit is sign(r . U^T x), so the law holds for the angle
        # between U^T x and U^T y, not the angle between x and y
        d, alpha, l, L = 12, 4, 64, 32
        rng = np.random.default_rng(seed)
        U = np.linalg.qr(rng.standard_normal((d, alpha)))[0]
        basis = TruncatedBasis(U=U, singular_values=np.ones(alpha))
        x, y = rng.standard_normal((2, d))
        px, py = U.T @ x, U.T @ y
        assume(min(np.linalg.norm(px) / np.linalg.norm(x), np.linalg.norm(py) / np.linalg.norm(y)) > 0.1)
        keys = hash_matrix(new_family(PCA, l, L, d, seed=seed, basis=basis), np.stack([x, y]))
        agree = bit_agreement(keys, l)[0]
        theta = np.arccos(np.clip(px @ py / (np.linalg.norm(px) * np.linalg.norm(py)), -1.0, 1.0))
        # 5 binomial standard deviations of a mean over l * L bits, at worst p = 1/2
        assert abs(agree - (1.0 - theta / np.pi)) <= 5.0 * np.sqrt(0.25 / (l * L))


class TestHammingConcentration:
    def test_equidistant_points_near_equidistant_bits(self):
        # points at distance r from q: per-bit flip probability
        # p = arccos(1 - r^2/2) / pi; with l bits the normalized Hamming
        # distance concentrates in p +/- sqrt(ln(2/delta) / (2 l))
        rng = np.random.default_rng(123)
        d, m, l, r = 16, 200, 4096, 1.0
        p = np.arccos(1 - r**2 / 2) / np.pi
        bound = np.sqrt(np.log(2 / 0.05) / (2 * l))
        assert np.isclose(bound, 0.0212, atol=5e-4)
        q = unit_vector(rng, d)
        basis = np.linalg.qr(np.column_stack([q, rng.standard_normal((d, d - 1))]))[0]
        phi = np.arccos(1 - r**2 / 2)
        dirs = rng.standard_normal((m, d - 1))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        X = np.cos(phi) * q + np.sin(phi) * (dirs @ basis[:, 1:].T)
        # the l bits as 64 tables of 64 planes
        family = new_family(PLAIN, 64, l // 64, d, seed=123)
        ham = 1.0 - bit_agreement(hash_matrix(family, np.vstack([q, X])), family.l)
        assert np.mean(np.abs(ham - p) <= bound) >= 0.95


class TestSerialization:
    """The family's fields and basis as the index blob stores them."""

    @staticmethod
    def _roundtrip(fam, dataset):
        return lsh.index_from_bytes(lsh.index_to_bytes(lsh.build(dataset, fam)), dataset).family

    def test_plain_roundtrip(self):
        fam = new_family(PLAIN, 24, 5, 32, seed=44)
        back = self._roundtrip(fam, Dataset(vectors=np.eye(32)))
        assert back.kind == PLAIN and back.l == 24 and back.L == 5 and back.d == 32 and back.seed == 44
        assert np.array_equal(back.hyperplanes, fam.hyperplanes)

    def test_pca_roundtrip_bit_identical_keys(self, small_toy):
        fam = new_family(PCA, 10, 4, small_toy.d, alpha=4, seed=3, dataset=small_toy)
        back = self._roundtrip(fam, small_toy)
        keys_a = hash_matrix(fam, small_toy.vectors)
        keys_b = hash_matrix(back, small_toy.vectors)
        assert np.array_equal(keys_a, keys_b)

    def test_bad_magic(self, small_toy):
        with pytest.raises(ValueError, match="magic"):
            lsh.index_from_bytes(b"XXXX" + self._pca_blob(small_toy)[4:], small_toy)

    def test_kind_code_is_position_in_kinds(self, small_toy):
        # the code byte after the magic; reordering KINDS would misread old blobs
        for code, kind in enumerate(("lshdiv", "lshsdiv", "pcahash")):
            fam = new_family(kind, 4, 2, small_toy.d, alpha=4, dataset=small_toy)
            assert KINDS[code] == kind and lsh.index_to_bytes(lsh.build(small_toy, fam))[4] == code

    @staticmethod
    def _pca_blob(small_toy) -> bytes:
        fam = new_family(PCA, 10, 4, small_toy.d, alpha=4, seed=3, dataset=small_toy)
        return lsh.index_to_bytes(lsh.build(small_toy, fam))

    @pytest.mark.parametrize("size", [4, 20, 37])
    def test_blob_shorter_than_its_fixed_fields(self, small_toy, size):
        with pytest.raises(ValueError, match=r"^truncated index blob: .* the header alone is 104"):
            lsh.index_from_bytes(self._pca_blob(small_toy)[:size], small_toy)

    @pytest.mark.parametrize("alpha", [0, 9])
    def test_basis_width_outside_one_to_d(self, small_toy, alpha):
        # alpha = 0 once loaded and hashed every point to the all-ones key
        d = 8
        U = np.zeros((d, alpha))
        with pytest.raises(ValueError, match=rf"^basis has {alpha} columns, out of range \[1, 8\]$"):
            new_family(PCA, 8, 2, d, basis=TruncatedBasis(U=U, singular_values=np.zeros(alpha)))
        blob = edit_index_blob(self._pca_blob(small_toy), alpha=alpha)
        with pytest.raises(ValueError, match=rf"^corrupt index blob: alpha={alpha} out of range \[1, 6\] for kind 'lshsdiv'$"):
            lsh.index_from_bytes(blob, small_toy)

    def test_negative_seed_field(self, small_toy):
        # the signed field holds -1 after an edit; the load names the seed
        blob = edit_index_blob(self._pca_blob(small_toy), seed=-1)
        with pytest.raises(ValueError, match=r"^corrupt index blob: seed=-1 is not an integer in \[0, 2\*\*63\)$"):
            lsh.index_from_bytes(blob, small_toy)

    def test_largest_seed_roundtrips(self, small_toy):
        fam = new_family(PLAIN, 6, 3, small_toy.d, seed=2**63 - 1)
        back = self._roundtrip(fam, small_toy)
        assert back.seed == 2**63 - 1 and np.array_equal(back.hyperplanes, fam.hyperplanes)

    def test_unknown_kind_code(self, small_toy):
        blob = edit_index_blob(self._pca_blob(small_toy), kind=7)
        with pytest.raises(ValueError, match="^corrupt index blob: unknown kind code 7$"):
            lsh.index_from_bytes(blob, small_toy)

    def test_basis_flag_contradicting_kind(self, small_toy):
        # alpha is the basis flag too: 0 exactly for the plain kind
        blob = lsh.index_to_bytes(lsh.build(small_toy, new_family(PLAIN, 8, 2, small_toy.d)))
        with pytest.raises(ValueError, match=r"^corrupt index blob: alpha=1 out of range \[0, 0\] for kind 'lshdiv'$"):
            lsh.index_from_bytes(edit_index_blob(blob, alpha=1), small_toy)

    def test_short_basis(self, small_toy):
        blob = self._pca_blob(small_toy)
        basis_end = lsh._HEADER.size + 8 * 4 * (small_toy.d + 1)
        short = blob[: basis_end - 8] + blob[basis_end:]
        with pytest.raises(ValueError, match=rf"^truncated index blob: {len(blob) - 8} bytes, .* {len(blob)}$"):
            lsh.index_from_bytes(short, small_toy)

    def test_trailing_bytes(self, small_toy):
        blob = self._pca_blob(small_toy)
        with pytest.raises(ValueError, match=rf"^corrupt index blob: {len(blob) + 1} bytes, .* {len(blob)}$"):
            lsh.index_from_bytes(blob + b"\x00", small_toy)

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_plain_roundtrip_property(self, l, L, d, seed):
        assume(l + (L - 1).bit_length() <= 64)  # the tagged keys fit one word
        fam = new_family(PLAIN, l, L, d, seed=seed)
        back = self._roundtrip(fam, Dataset(vectors=np.eye(d)))
        assert np.array_equal(back.hyperplanes, fam.hyperplanes)
