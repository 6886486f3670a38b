"""Sign-random-projection hash families.

Three kinds, named by their `HashFamily.kind` values, which are also the
hash names of the CLI and the experiment grid:
  * "lshdiv"   (PLAIN)      — Gaussian hyperplanes in the ambient space,
  * "lshsdiv"  (PCA)        — Gaussian hyperplanes drawn in the span of the
                              data's top principal components (random
                              directions *within* the top subspace),
  * "pcahash"  (PCA_DIRECT) — the principal directions themselves as
                              hyperplanes (the PCA-hash baseline; no
                              randomness beyond the basis).
A kind's position in KINDS is its code in the index blob (see lsh).

Bit b of table t is 1 iff the projection is >= 0; the tie at exactly 0 is a
measure-zero event for continuous data but the convention is fixed so keys
are reproducible. A key packs l <= 64 bits into one uint64, bit b at
position b. This module keeps the planes and the keys only: the table
tags of an index and the rule of which (l, L) fit one index belong to
lsh.

`hash_matrix` is the one batch hasher, for every kind: it hashes an (n,
d) array under a slice of the tables, cut to a run of m key bits. As
sign(r . (U^T x)) = sign((U r) . x) (Charikar, STOC 2002), a family folds
its basis U into its planes once, so a row costs one product with the
ambient normals, d multiply-adds a bit. It walks the rows in blocks whose
float64 projections hold no more than one table's n * m and no more
than a fixed byte budget, writing each block's keys into the output, so
its working memory does not grow with n * L * l. A block's projections
and sign bits go into two buffers allocated once a call, the bits padded
to a word of 8, 16, 32 or 64, and one little-endian `np.packbits` of the
block's bits reads as its keys in that word. A row's projections do not
depend on the other rows of its block, so the keys do not depend on the
block size. The index build hashes a group of tables a call into narrow
words, and the tuner the low and the high half of its keys in two calls.
`hash_vector`, the per-request hash, is its own one-row path: one
product with every table's planes and one integer product of the sign
bits with the powers of two, without the block loop and its buffers,
which cost more than the arithmetic on one row. Both set bit b to 2^b,
so its keys are those of `hash_matrix(family, x[None])[0]`.

Drawn plane (t, b) of a seed is
Generator(Philox(SeedSequence(seed, spawn_key=(t, b)))).standard_normal(dim):
it depends only on (seed, t, b), so an (l, L) family is a bit-exact prefix
of any larger one with the same seed, which `lsh.tune` relies on. Building
a SeedSequence and a Philox per plane costs about ten times the draw, so
`new_family` builds neither. It runs numpy's SeedSequence mixing as uint32
array arithmetic over every (t, b) at once, which yields each plane's
Philox key, then draws every plane from one Philox generator, set to that
key with its counter at 0 and its buffer empty, as a new generator is. The
seed is an integer in [0, 2**63), what the index blob's signed 64-bit
field holds (`data.check_seed`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, check_seed
from .linalg import TruncatedBasis, truncated_svd

PLAIN, PCA, PCA_DIRECT = "lshdiv", "lshsdiv", "pcahash"
KINDS = (PLAIN, PCA, PCA_DIRECT)

# bytes that one row block of hash_matrix may hold in its widest float64
# array: the projections onto its planes, or the block's rows when d is
# larger
_BLOCK_BYTES = 1 << 18

# numpy's SeedSequence (numpy/random/bit_generator.pyx): entropy pool words,
# the hashmix multipliers of the pool (A) and of generate_state (B), and the
# pool mixing multipliers
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


@dataclass(frozen=True, eq=False)
class HashFamily:
    """L tables of l sign-projection bits each, fully determined by
    (kind, l, L, d, alpha, seed) plus the PCA basis for the pca kinds.

    hyperplanes has shape (L, l, d) for PLAIN and (L, l, alpha) for the
    projected kinds; hashing reads only the ambient normals U @ r, folded
    once into `_planes`. Immutable after construction; hashing is pure.
    Families compare and hash by identity.
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
        # computed once: all L * l ambient normals as contiguous columns (for
        # pcahash's one-hot r, U @ r is exactly a column of U) and the weight
        # 2^b of bit b in a key
        planes = self.hyperplanes.reshape(self.L * self.l, -1).T
        if self.basis is not None:
            planes = self.basis.U @ planes
        object.__setattr__(self, "_planes", np.ascontiguousarray(planes))
        object.__setattr__(self, "_pow2", np.left_shift(np.uint64(1), np.arange(self.l, dtype=np.uint64)))


def _hash_steps(const: int, mult: int):
    """The (xor, multiply) constants of successive hashmix steps: a step
    xors with the running constant, multiplies the constant by mult, then
    multiplies by the new constant."""
    while True:
        nxt = const * mult & 0xFFFFFFFF
        yield np.uint32(const), np.uint32(nxt)
        const = nxt


def _hashmix(value: np.ndarray, steps) -> np.ndarray:
    xor, mul = next(steps)
    value = (value ^ xor) * mul
    return value ^ value >> np.uint32(16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ r >> np.uint32(16)


def _philox_keys(seed: int, L: int, l: int) -> np.ndarray:
    """(L * l, 2) uint64: row t * l + b is the key that
    Philox(SeedSequence(seed, spawn_key=(t, b))) takes, its
    generate_state(2, uint64), by numpy's algorithm on uint32 arrays over
    every (t, b) at once. The entropy is the seed's 32-bit words, low
    first, zero-padded to the pool size (so seed < 2**128), then t and b."""
    t, b = np.divmod(np.arange(L * l, dtype=np.uint32), np.uint32(l))
    steps = _hash_steps(_INIT_A, _MULT_A)
    pool = [_hashmix(np.uint32([seed >> s & 0xFFFFFFFF]), steps) for s in range(0, 32 * _POOL_SIZE, 32)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], steps))
    for word in (t, b):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, steps))
    steps = _hash_steps(_INIT_B, _MULT_B)
    state = [_hashmix(word, steps).astype(np.uint64) for word in pool]
    keys = np.empty((L * l, 2), dtype=np.uint64)
    keys[:, 0] = state[0] | state[1] << np.uint64(32)
    keys[:, 1] = state[2] | state[3] << np.uint64(32)
    return keys


def _gaussian_planes(seed: int, L: int, l: int, dim: int) -> np.ndarray:
    """(L, l, dim) standard normal planes, plane (t, b) drawn as by a new
    Philox generator keyed by (seed, t, b) (see the module docstring)."""
    bitgen = np.random.Philox(0)
    draw = np.random.Generator(bitgen).standard_normal
    fresh = bitgen.state  # counter 0, buffer empty
    planes = np.empty((L * l, dim))
    for key, row in zip(_philox_keys(seed, L, l), planes):
        fresh["state"]["key"] = key
        bitgen.state = fresh
        draw(out=row)
    return planes.reshape(L, l, dim)


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
    """Construct a hash family; deterministic for a fixed seed, an integer
    in [0, 2**63).

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
    seed = check_seed(seed)

    if kind == PLAIN:
        alpha, basis = None, None
    elif basis is None:
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
        if not 1 <= basis.U.shape[1] <= d:
            raise ValueError(f"basis has {basis.U.shape[1]} columns, out of range [1, {d}]")
        if alpha not in (None, basis.U.shape[1]):
            raise ValueError(f"alpha={alpha} does not match basis with {basis.U.shape[1]} columns")
        alpha = basis.U.shape[1]

    if kind == PCA_DIRECT:  # r = standard basis vectors, distinct directions per table
        if alpha < l:
            raise ValueError(f"{PCA_DIRECT} needs alpha >= l, got alpha={alpha}, l={l}")
        planes = np.eye(alpha)[np.arange(L * l) % alpha].reshape(L, l, alpha)
    else:
        planes = _gaussian_planes(seed, L, l, alpha or d)
    return HashFamily(kind=kind, l=l, L=L, d=d, alpha=alpha, seed=seed, hyperplanes=planes, basis=basis)


def _check_points(family: HashFamily, points, ndim: int) -> np.ndarray:
    """points as a float array, refused unless it has ndim axes, the last
    of the family's dimension."""
    points = np.asarray(points, dtype=float)
    if points.ndim != ndim:
        raise ValueError(f"expected {('one point', 'an (n, d) array of points')[ndim - 1]}, got shape {points.shape}")
    if points.shape[-1] != family.d:
        raise ValueError(f"point dimension {points.shape[-1]} != family dimension {family.d}")
    return points


def hash_matrix(family: HashFamily, vectors, tables: slice = slice(None), bits: slice = slice(None),
                out: np.ndarray | None = None) -> np.ndarray:
    """Keys of every row of the (n, d) `vectors` under the k tables that
    the slice `tables` selects, cut to the m key bits that the slice
    `bits` selects, a run: bit b of range(l)[bits] at position b - its
    start. All L tables and all l bits by default. Writes them into
    `out`, an (n, k) unsigned array at least as wide as the word of 8,
    16, 32 or 64 bits that holds m (a strided or transposed view will
    do), or into a new uint64 array when out is None. Returns it.

    The rows go in blocks of min(n m, _BLOCK_BYTES / 8) // max(k m, d),
    at least one: a block's float64 projections hold no more than one
    table's n m, and its rows take no more than _BLOCK_BYTES."""
    vectors = _check_points(family, vectors, 2)
    n, d, l = vectors.shape[0], family.d, family.l
    run = range(l)[bits]
    if run.step != 1 or not run:
        raise ValueError(f"bits={bits} is not a non-empty run of the family's {l} key bits")
    m = len(run)
    planes = family._planes.reshape(d, family.L, l)[:, tables, bits]
    k = planes.shape[1]
    planes = planes.reshape(d, k * m)
    # a key's m bits padded to the smallest word of 8, 16, 32 or 64 that
    # holds them: the padding stays False, so one little-endian packbits
    # of a block's bits reads as its keys in that word
    word = max(8, 1 << (m - 1).bit_length())
    if out is None:
        out = np.empty((n, k), dtype=np.uint64)
    elif out.shape != (n, k) or out.dtype.kind != "u" or out.dtype.itemsize * 8 < word:
        raise ValueError(f"out of shape {out.shape} and type {out.dtype} cannot hold ({n}, {k}) keys "
                         f"of {m} bits: it needs unsigned words of at least {word} bits")
    rows = max(1, min(n * m, _BLOCK_BYTES // 8) // max(k * m, d))
    proj = np.empty((rows, k * m))
    signs = np.zeros((rows, k, word), dtype=bool)
    for lo in range(0, n, rows):
        z = vectors[lo : lo + rows]
        r = z.shape[0]
        np.matmul(z, planes, out=proj[:r])
        np.greater_equal(proj[:r].reshape(r, k, m), 0.0, out=signs[:r, :, :m])
        packed = np.packbits(signs[:r].reshape(-1), bitorder="little")
        out[lo : lo + r] = packed.view(f"<u{word // 8}").reshape(r, k)
    return out


def hash_vector(family: HashFamily, x) -> np.ndarray:
    """Keys of a single point for all L tables: (L,) uint64, equal to
    hash_matrix(family, x[None])[0]. The same product and comparison on
    one row, packed by one integer product with the powers of two,
    without the block loop and buffers, which cost more than the
    arithmetic on one row."""
    z = _check_points(family, x, 1)
    return (z @ family._planes >= 0.0).reshape(family.L, family.l) @ family._pow2
