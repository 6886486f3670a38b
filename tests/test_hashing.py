from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import pair_at_angle, unit_vector
from hashdiv import hashing
from hashdiv.data import Dataset, normalize_rows
from hashdiv.hashing import (
    KINDS,
    PCA,
    PCA_DIRECT,
    PLAIN,
    collision_probability,
    estimate_collision_rate,
    family_from_bytes,
    family_to_bytes,
    hash_matrix,
    hash_vector,
    new_family,
)
from hashdiv.linalg import TruncatedBasis


class TestNewFamily:
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

    def test_pca_requires_data_or_basis(self):
        with pytest.raises(ValueError, match="dataset or a precomputed basis"):
            new_family(PCA, 8, 2, 16, alpha=4)

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

    def test_bulk_matches_single(self, small_toy):
        fam = new_family(PLAIN, 10, 3, small_toy.d, seed=8)
        keys = hash_matrix(fam, small_toy.vectors)
        for i in (0, 5, 99):
            assert np.array_equal(keys[i], hash_vector(fam, small_toy.vectors[i]))

    def test_zero_projection_maps_to_bit_one(self):
        # the >= 0 convention: an exactly-zero projection sets the bit
        eye = TruncatedBasis(U=np.eye(4), singular_values=np.ones(4), converged=True, iterations=1)
        fam = new_family(PCA_DIRECT, 4, 1, 4, alpha=4, basis=eye)
        key = hash_vector(fam, np.array([0.0, -1.0, 0.0, 2.0]))[0]
        assert key == 0b1101

    def test_pca_identity_basis_matches_plain(self):
        # alpha = d with U = I reproduces the plain family bit for bit
        d = 9
        eye = TruncatedBasis(U=np.eye(d), singular_values=np.ones(d), converged=True, iterations=1)
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


class TestHashMatrixOracle:
    @settings(max_examples=60, deadline=None)
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
            basis = TruncatedBasis(U=U, singular_values=np.ones(alpha), converged=True, iterations=1)
        fam = new_family(kind, l, L, d, seed=data.draw(st.integers(0, 99)), basis=basis)
        budget = hashing._BLOCK_BYTES if rows_per_block is None else rows_per_block * 8 * max(L * l, d)
        with mock.patch.object(hashing, "_BLOCK_BYTES", budget):
            keys = hash_matrix(fam, x)
        assert keys.dtype == np.uint64 and keys.shape == (n, L)
        assert np.array_equal(keys, reference_keys(fam, x))
        for i in range(n):
            assert np.array_equal(hash_vector(fam, x[i]), keys[i])

    def test_rows_cross_block_boundaries(self):
        # l=64, L=32 leaves 16 rows per block, so 40 rows fill three blocks
        fam = new_family(PLAIN, 64, 32, 6, seed=2)
        assert hashing._BLOCK_BYTES // (8 * 64 * 32) == 16
        x = np.random.default_rng(4).standard_normal((40, 6))
        keys = hash_matrix(fam, x)
        assert np.array_equal(keys, reference_keys(fam, x))
        assert np.array_equal(keys[17], hash_vector(fam, x[17]))


class TestCollisionLaw:
    def test_equal_vectors(self):
        assert collision_probability([1.0, 0.0], [2.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert np.isclose(collision_probability([1, 0], [0, 1]), 0.5)

    def test_antipodal(self):
        assert np.isclose(collision_probability([1.0, 0.0], [-1.0, 0.0]), 0.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            collision_probability([0.0, 0.0], [1.0, 0.0])

    def test_estimate_equal(self):
        assert estimate_collision_rate([1.0, 1.0], [2.0, 2.0], trials=100, seed=0) == 1.0

    def test_estimate_antipodal(self):
        assert estimate_collision_rate([1.0, 0.5], [-1.0, -0.5], trials=100, seed=0) == 0.0

    def test_estimate_60_degrees(self):
        a, b = pair_at_angle(60.0)
        est = estimate_collision_rate(a, b, trials=50_000, seed=12)
        assert abs(est - 2.0 / 3.0) <= 0.01

    @pytest.mark.parametrize("theta", [15.0, 45.0, 60.0, 90.0, 150.0])
    def test_binomial_concentration(self, theta):
        a, b = pair_at_angle(theta)
        trials = 20_000
        est = estimate_collision_rate(a, b, trials=trials, seed=int(theta))
        assert abs(est - (1.0 - theta / 180.0)) <= 4.0 * np.sqrt(0.25 / trials)


    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_pca_bits_follow_the_projected_angle(self, seed):
        # a pca bit is sign(r . U^T x), so the law holds for the angle
        # between U^T x and U^T y, not the angle between x and y
        d, alpha, l, L = 12, 4, 64, 32
        rng = np.random.default_rng(seed)
        U = np.linalg.qr(rng.standard_normal((d, alpha)))[0]
        basis = TruncatedBasis(U=U, singular_values=np.ones(alpha), converged=True, iterations=1)
        x, y = rng.standard_normal((2, d))
        px, py = U.T @ x, U.T @ y
        assume(min(np.linalg.norm(px) / np.linalg.norm(x), np.linalg.norm(py) / np.linalg.norm(y)) > 0.1)
        keys = hash_matrix(new_family(PCA, l, L, d, seed=seed, basis=basis), np.stack([x, y]))
        bits = (keys[:, :, None] >> np.arange(l, dtype=np.uint64)) & np.uint64(1)
        agree = float(np.mean(bits[0] == bits[1]))
        # 5 binomial standard deviations of a mean over l * L bits, at worst p = 1/2
        assert abs(agree - collision_probability(px, py)) <= 5.0 * np.sqrt(0.25 / (l * L))


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
        within = 0
        for i in range(m):
            u = unit_vector(rng, d - 1)
            x = np.cos(phi) * q + np.sin(phi) * (basis[:, 1:] @ u)
            planes = rng.standard_normal((l, d))
            ham = np.mean((planes @ q >= 0) != (planes @ x >= 0))
            within += abs(ham - p) <= bound
        assert within / m >= 0.95


class TestSerialization:
    def test_plain_roundtrip(self):
        fam = new_family(PLAIN, 24, 5, 32, seed=44)
        back = family_from_bytes(family_to_bytes(fam))
        assert back.kind == PLAIN and back.l == 24 and back.L == 5 and back.d == 32
        assert np.array_equal(back.hyperplanes, fam.hyperplanes)

    def test_pca_roundtrip_bit_identical_keys(self, small_toy):
        fam = new_family(PCA, 10, 4, small_toy.d, alpha=4, seed=3, dataset=small_toy)
        back = family_from_bytes(family_to_bytes(fam))
        keys_a = hash_matrix(fam, small_toy.vectors)
        keys_b = hash_matrix(back, small_toy.vectors)
        assert np.array_equal(keys_a, keys_b)

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            family_from_bytes(b"XXXX" + b"\x00" * 64)

    def test_kind_code_is_position_in_kinds(self, small_toy):
        # the code byte after the magic; reordering KINDS would misread old blobs
        for code, kind in enumerate(("lshdiv", "lshsdiv", "pcahash")):
            fam = new_family(kind, 4, 2, small_toy.d, alpha=4, dataset=small_toy)
            assert KINDS[code] == kind and family_to_bytes(fam)[4] == code

    @staticmethod
    def _pca_blob(small_toy) -> bytes:
        return family_to_bytes(new_family(PCA, 10, 4, small_toy.d, alpha=4, seed=3, dataset=small_toy))

    @pytest.mark.parametrize("size", [4, 20, 49])
    def test_blob_shorter_than_its_fixed_fields(self, small_toy, size):
        with pytest.raises(ValueError, match=r"^truncated hash-family blob: .* fixed fields alone are 50"):
            family_from_bytes(self._pca_blob(small_toy)[:size])

    def test_unknown_kind_code(self, small_toy):
        blob = bytearray(self._pca_blob(small_toy))
        blob[4] = 7
        with pytest.raises(ValueError, match="^corrupt hash-family blob: unknown kind code 7"):
            family_from_bytes(bytes(blob))

    def test_basis_flag_contradicting_kind(self):
        blob = bytearray(family_to_bytes(new_family(PLAIN, 8, 2, 4)))
        blob[37] = 1  # the has-basis byte, after the magic and 33 bytes of fields
        with pytest.raises(ValueError, match="^corrupt hash-family blob: basis flag 1 for kind 'lshdiv'"):
            family_from_bytes(bytes(blob))

    def test_short_basis(self, small_toy):
        blob = self._pca_blob(small_toy)
        with pytest.raises(ValueError, match=rf"^truncated hash-family blob: {len(blob) - 8} bytes, .* {len(blob)}$"):
            family_from_bytes(blob[:-8])

    def test_trailing_bytes(self, small_toy):
        blob = self._pca_blob(small_toy)
        with pytest.raises(ValueError, match=rf"^corrupt hash-family blob: {len(blob) + 1} bytes, .* {len(blob)}$"):
            family_from_bytes(blob + b"\x00")

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_plain_roundtrip_property(self, l, L, d, seed):
        fam = new_family(PLAIN, l, L, d, seed=seed)
        back = family_from_bytes(family_to_bytes(fam))
        assert np.array_equal(back.hyperplanes, fam.hyperplanes)


class TestCollisionProbabilityProperties:
    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=12),
        st.lists(st.floats(-10, 10), min_size=2, max_size=12),
        st.floats(0.01, 100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetric_bounded_scale_invariant(self, a, b, scale):
        n = min(len(a), len(b))
        a = np.array(a[:n])
        b = np.array(b[:n])
        if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
            return
        p = collision_probability(a, b)
        assert 0.0 <= p <= 1.0
        assert p == collision_probability(b, a)
        assert np.isclose(p, collision_probability(scale * a, b), atol=1e-12)
