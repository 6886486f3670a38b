"""Sign-random-projection hash families.

Three kinds, named by their `HashFamily.kind` values, which are also the
hash names of the CLI and the experiment grid:
  * "lshdiv"   (PLAIN)      — Gaussian hyperplanes in the ambient space,
  * "lshsdiv"  (PCA)        — Gaussian hyperplanes drawn in the span of the
                              data's top principal components (random
                              directions *within* the top subspace,
                              bit = sign(r . (U^T x))),
  * "pcahash"  (PCA_DIRECT) — the principal directions themselves as
                              hyperplanes (the PCA-hash baseline; no
                              randomness beyond the basis).
A kind's position in KINDS is its code in the family blob.

Bit b of table t is 1 iff the projection is >= 0; the tie at exactly 0 is a
measure-zero event for continuous data but the convention is fixed so keys
are reproducible. A key packs l <= 64 bits into one uint64, bit b at
position b, by one integer product of the bits with the powers of two.

`hash_matrix` walks the rows of a dense (n, d) array in blocks whose
L * l float64 projections fit a fixed byte budget, writing each block's
keys into the (n, L) output, so its working memory is bounded by the keys
it returns, not by n * L * l.
A row's projections do not depend on the other rows of its block, so the
keys do not depend on the block size; `hash_vector` is the one-row case of
the same kernel.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .linalg import TruncatedBasis, truncated_svd

PLAIN, PCA, PCA_DIRECT = "lshdiv", "lshsdiv", "pcahash"
KINDS = (PLAIN, PCA, PCA_DIRECT)

_MAGIC = b"HDVF"
# kind code, l, L, d, alpha, seed; then has-basis, SVD iterations, converged
_FIELDS = struct.Struct("<BIIQQq")
_BASIS_FIELDS = struct.Struct("<BQI")

# bytes one row block of `hash_matrix` may hold in its widest float64
# array: the L * l projections, or the block's rows when d is larger
_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True, eq=False)
class HashFamily:
    """L tables of l sign-projection bits each, fully determined by
    (kind, l, L, d, alpha, seed) plus the PCA basis for the pca kinds.

    hyperplanes has shape (L, l, d) for PLAIN and (L, l, alpha) for the
    projected kinds (the effective ambient-space normal is then U @ r).
    Immutable after construction; hashing is pure. Families compare and
    hash by identity.
    """

    kind: str
    l: int
    L: int
    d: int
    alpha: int | None
    seed: int
    hyperplanes: np.ndarray
    basis: TruncatedBasis | None = None

    def __post_init__(self):
        # the hashing kernel's operands, computed once: all L * l planes as
        # contiguous columns, and the weight 2^b of bit b in a key
        planes = np.ascontiguousarray(self.hyperplanes.reshape(self.L * self.l, -1).T)
        object.__setattr__(self, "_planes", planes)
        object.__setattr__(self, "_pow2", np.left_shift(np.uint64(1), np.arange(self.l, dtype=np.uint64)))


def _hyperplane(seed: int, table: int, bit: int, dim: int) -> np.ndarray:
    # Counter-based generator keyed by (seed, table, bit): hyperplane (t, b)
    # is reproducible independent of construction order, which also makes an
    # (l, L) family a bit-exact prefix of any larger family with the same seed.
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(table, bit))
    return np.random.Generator(np.random.Philox(ss)).standard_normal(dim)


def new_family(
    kind: str,
    l: int,
    L: int,
    d: int,
    *,
    alpha: int | None = None,
    seed: int = 0,
    dataset: Dataset | None = None,
    basis: TruncatedBasis | None = None,
) -> HashFamily:
    """Construct a hash family; deterministic for a fixed seed.

    The pca kinds need either a precomputed basis or a dataset to compute
    the truncated SVD from. alpha defaults to min(200, d, n) when derived
    from a dataset.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown hash kind {kind!r}, expected one of {KINDS}")
    if not 1 <= l <= 64:
        raise ValueError(f"l={l} out of range [1, 64] (keys pack into one machine word)")
    if L < 1:
        raise ValueError("L must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")

    if kind == PLAIN:
        planes = np.stack([np.stack([_hyperplane(seed, t, b, d) for b in range(l)]) for t in range(L)])
        return HashFamily(kind=kind, l=l, L=L, d=d, alpha=None, seed=seed, hyperplanes=planes)

    if basis is None:
        if dataset is None:
            raise ValueError(f"kind {kind!r} requires a dataset or a precomputed basis")
        if dataset.d != d:
            raise ValueError(f"dataset dimension {dataset.d} != family dimension {d}")
        if alpha is None:
            alpha = min(200, d, dataset.n)
        basis = truncated_svd(dataset.vectors.T, alpha)
    else:
        if basis.U.shape[0] != d:
            raise ValueError(f"basis dimension {basis.U.shape[0]} != family dimension {d}")
        if alpha is None:
            alpha = basis.U.shape[1]
    if alpha != basis.U.shape[1]:
        raise ValueError(f"alpha={alpha} does not match basis with {basis.U.shape[1]} columns")

    if kind == PCA:
        planes = np.stack([np.stack([_hyperplane(seed, t, b, alpha) for b in range(l)]) for t in range(L)])
    else:  # PCA_DIRECT: r = standard basis vectors, distinct directions per table
        if alpha < l:
            raise ValueError(f"{PCA_DIRECT} needs alpha >= l, got alpha={alpha}, l={l}")
        planes = np.zeros((L, l, alpha))
        for t in range(L):
            for b in range(l):
                planes[t, b, (t * l + b) % alpha] = 1.0
    return HashFamily(kind=kind, l=l, L=L, d=d, alpha=alpha, seed=seed, hyperplanes=planes, basis=basis)


def hash_matrix(family: HashFamily, vectors: np.ndarray) -> np.ndarray:
    """Keys for every row of the dense (n, d) `vectors` under every table:
    (n, L) uint64."""
    if vectors.shape[1] != family.d:
        raise ValueError(f"point dimension {vectors.shape[1]} != family dimension {family.d}")
    n, L, l = vectors.shape[0], family.L, family.l
    block = max(1, _BLOCK_BYTES // (8 * max(L * l, family.d)))
    keys = np.empty((n, L), dtype=np.uint64)
    for lo in range(0, n, block):
        z = vectors[lo : lo + block]
        if family.kind != PLAIN:
            z = z @ family.basis.U  # U^T x, where the pca kinds' hyperplanes live
        # one fused projection against all L*l hyperplanes
        bits = (z @ family._planes >= 0.0).reshape(-1, L, l)
        np.matmul(bits, family._pow2, out=keys[lo : lo + block])
    return keys


def hash_vector(family: HashFamily, x: np.ndarray) -> np.ndarray:
    """Keys of a single point for all L tables."""
    return hash_matrix(family, x.reshape(1, -1))[0]


def collision_probability(a, b) -> float:
    """Per-bit agreement probability of two points under a random sign
    projection: 1 - theta(a, b) / pi.

    The angle is taken as 2 atan2(|u - v|, |u + v|) on the unit vectors
    rather than arccos of the cosine: arccos loses half the digits near
    cos = -1 and +1, so (anti)parallel pairs would drift from 0 and 1 with
    the scale of the inputs."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    ma, mb = np.max(np.abs(a)), np.max(np.abs(b))
    if ma == 0.0 or mb == 0.0:
        raise ValueError("collision probability undefined for zero vectors")
    # Divide by the largest entry first, so squaring tiny entries in the
    # norm cannot underflow to subnormals.
    u, v = a / ma, b / mb
    u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
    theta = 2.0 * np.arctan2(np.linalg.norm(u - v), np.linalg.norm(u + v))
    return 1.0 - float(theta) / np.pi


def estimate_collision_rate(a, b, trials: int, seed: int = 0) -> float:
    """Monte Carlo check of the collision law: fraction of `trials`
    independent Gaussian hyperplanes on which sign(r.a) == sign(r.b)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    r = np.random.default_rng(seed).standard_normal((trials, a.size))
    return float(np.mean((r @ a >= 0.0) == (r @ b >= 0.0)))


def family_to_bytes(family: HashFamily) -> bytes:
    """Binary sidecar: header (kind code, l, L, d, alpha, seed) plus the
    basis for the pca kinds. Hyperplanes regenerate bit-identically from
    the seed."""
    out = [_MAGIC, _FIELDS.pack(KINDS.index(family.kind), family.l, family.L, family.d, family.alpha or 0, family.seed)]
    if family.basis is not None:
        b = family.basis
        out.append(_BASIS_FIELDS.pack(1, b.iterations, int(b.converged)))
        out.append(np.ascontiguousarray(b.U, dtype=np.float64).tobytes())
        out.append(np.ascontiguousarray(b.singular_values, dtype=np.float64).tobytes())
    else:
        out.append(_BASIS_FIELDS.pack(0, 0, 0))
    return b"".join(out)


def family_from_bytes(blob: bytes) -> HashFamily:
    """Inverse of family_to_bytes. A blob shorter or longer than its fields
    describe, or one whose fields contradict each other, raises ValueError."""
    if blob[:4] != _MAGIC:
        raise ValueError("not a hash-family blob (bad magic)")
    off = len(_MAGIC) + _FIELDS.size + _BASIS_FIELDS.size
    if len(blob) < off:
        raise ValueError(f"truncated hash-family blob: {len(blob)} bytes, its fixed fields alone are {off}")
    code, l, L, d, alpha, seed = _FIELDS.unpack_from(blob, len(_MAGIC))
    has_basis, iterations, conv = _BASIS_FIELDS.unpack_from(blob, off - _BASIS_FIELDS.size)
    if code >= len(KINDS):
        raise ValueError(f"corrupt hash-family blob: unknown kind code {code}")
    if has_basis != (KINDS[code] != PLAIN):
        raise ValueError(f"corrupt hash-family blob: basis flag {has_basis} for kind {KINDS[code]!r}")
    size = off + (8 * alpha * (d + 1) if has_basis else 0)  # U is (d, alpha), then alpha singular values
    if len(blob) != size:
        state = "truncated" if len(blob) < size else "corrupt"
        raise ValueError(f"{state} hash-family blob: {len(blob)} bytes, its fields describe {size}")
    basis = None
    if has_basis:
        U = np.frombuffer(blob, dtype=np.float64, count=d * alpha, offset=off).reshape(d, alpha).copy()
        sv = np.frombuffer(blob, dtype=np.float64, count=alpha, offset=off + 8 * d * alpha).copy()
        basis = TruncatedBasis(U=U, singular_values=sv, converged=bool(conv), iterations=int(iterations))
    return new_family(KINDS[code], int(l), int(L), int(d), alpha=int(alpha) or None, seed=int(seed), basis=basis)
