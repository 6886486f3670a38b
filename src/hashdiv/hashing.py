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

One kernel hashes a dense (n, d) array under a run of tables, for every
kind: as sign(r . (U^T x)) = sign((U r) . x) (Charikar, STOC 2002), a
family folds its basis U into its planes once, so a row costs one product
with the ambient normals, d * L * l multiply-adds. It walks the rows in
blocks whose float64 projections onto those tables' planes fit a fixed
byte budget, writing each block's keys into the output, so its working
memory is bounded by the keys it returns, not by n * L * l. It writes a
block's projections and sign bits into two buffers allocated once a
call, the bits padded to a word of 8, 16, 32 or 64, and one
little-endian `np.packbits` of the block's bits reads as its keys in that
word. A row's projections do not depend on the other rows of its block,
so the keys do not depend on the block size. Three functions run it:
`hash_matrix` over all L tables or a slice of them, as uint64;
`hash_groups` over a group of tables per pass, in the narrowest word that
holds l bits, for the index build, which so never holds the (n, L) keys;
and `hash_plain_bits` over a run of key bits of the plain kind's tables,
drawing only those planes, for the tuner. `hash_vector`, the
per-request hash, is its own one-row path: one product with every
table's planes and one integer product of the sign bits with the powers
of two, without the block loop and its buffers, which cost more than the
arithmetic on one row. Both set bit b to 2^b, so its keys are those of
`hash_matrix(family, x[None])[0]`.

Drawn plane (t, b) of a seed is
Generator(Philox(SeedSequence(seed, spawn_key=(t, b)))).standard_normal(dim):
it depends only on (seed, t, b), so an (l, L) family is a bit-exact prefix
of any larger one with the same seed, and any run of a table's bits can be
drawn alone, which `lsh.tune` relies on. Building
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

# bytes one row block of the hashing kernel may hold in its widest float64
# array: the projections onto its tables' planes, or the block's rows when
# d is larger
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


def _philox_keys(seed: int, L: int, bits: range) -> np.ndarray:
    """(L * len(bits), 2) uint64: row t * len(bits) + j is the key that
    Philox(SeedSequence(seed, spawn_key=(t, bits[j]))) takes, its
    generate_state(2, uint64), by numpy's algorithm on uint32 arrays over
    every (t, b) at once. The entropy is the seed's 32-bit words, low
    first, zero-padded to the pool size (so seed < 2**128), then t and b."""
    t, b = np.divmod(np.arange(L * len(bits), dtype=np.uint32), np.uint32(len(bits)))
    b += np.uint32(bits.start)
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
    keys = np.empty((t.size, 2), dtype=np.uint64)
    keys[:, 0] = state[0] | state[1] << np.uint64(32)
    keys[:, 1] = state[2] | state[3] << np.uint64(32)
    return keys


def _gaussian_planes(seed: int, L: int, bits: range, dim: int) -> np.ndarray:
    """(L, len(bits), dim) standard normal planes, plane (t, bits[j])
    drawn as by a new Philox generator keyed by (seed, t, bits[j]) (see
    the module docstring)."""
    bitgen = np.random.Philox(0)
    draw = np.random.Generator(bitgen).standard_normal
    fresh = bitgen.state  # counter 0, buffer empty
    planes = np.empty((L * len(bits), dim))
    for key, row in zip(_philox_keys(seed, L, bits), planes):
        fresh["state"]["key"] = key
        bitgen.state = fresh
        draw(out=row)
    return planes.reshape(L, len(bits), dim)


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
        planes = _gaussian_planes(seed, L, range(l), alpha or d)
    return HashFamily(kind=kind, l=l, L=L, d=d, alpha=alpha, seed=seed, hyperplanes=planes, basis=basis)


def _block_rows(n: int, cols: int, d: int) -> int:
    """Rows of a block whose widest float64 array, its projections onto
    `cols` planes or its rows of dimension d, fits _BLOCK_BYTES (all n
    rows if they fit, and at least one)."""
    return max(1, min(n, _BLOCK_BYTES // (8 * max(cols, d))))


def _hash_rows(vectors: np.ndarray, planes: np.ndarray, l: int, out: np.ndarray, rows: int) -> np.ndarray:
    """The one hashing kernel: writes into `out`, (n, k) of an unsigned
    type at least as wide as the word that holds l bits (a strided view
    will do), the l-bit keys of the rows of the dense (n, d) `vectors`
    under the k tables whose ambient normals are the columns of `planes`,
    (d, k * l), table after table; `rows` rows a block. Returns out."""
    n, width = out.shape
    # a key's bits padded to the smallest word of 8, 16, 32 or 64 that
    # holds l: the padding stays False, so one little-endian packbits of a
    # block's bits reads as its keys in that word
    word = max(8, 1 << (l - 1).bit_length())
    proj = np.empty((rows, planes.shape[1]))
    bits = np.zeros((rows, width, word), dtype=bool)
    for lo in range(0, n, rows):
        z = vectors[lo : lo + rows]
        m = z.shape[0]
        np.matmul(z, planes, out=proj[:m])
        np.greater_equal(proj[:m].reshape(m, width, l), 0.0, out=bits[:m, :, :l])
        packed = np.packbits(bits[:m].reshape(-1), bitorder="little")
        out[lo : lo + m] = packed.view(f"<u{word // 8}").reshape(m, width)
    return out


def _check_dimension(family: HashFamily, vectors: np.ndarray) -> None:
    if vectors.shape[1] != family.d:
        raise ValueError(f"point dimension {vectors.shape[1]} != family dimension {family.d}")


def hash_matrix(family: HashFamily, vectors: np.ndarray, tables: slice = slice(None)) -> np.ndarray:
    """Keys of every row of the dense (n, d) `vectors` under the k tables
    that the slice `tables` selects, all L by default: (n, k) uint64."""
    _check_dimension(family, vectors)
    n, l = vectors.shape[0], family.l
    planes = family._planes.reshape(family.d, family.L, l)[:, tables].reshape(family.d, -1)
    keys = np.empty((n, planes.shape[1] // l), dtype=np.uint64)
    return _hash_rows(vectors, planes, l, keys, _block_rows(n, planes.shape[1], family.d))


def hash_groups(family: HashFamily, vectors: np.ndarray):
    """Keys of every row of the dense (n, d) `vectors` under every table,
    a group of tables per pass over the rows: yields (t, keys), keys a
    (k, n) array in the narrowest unsigned type that holds l bits whose
    row j is table t + j's keys, equal to hash_matrix(family, vectors,
    slice(t, t + k)).T. A group holds G = 8 // (that type's bytes) tables,
    at most L and n, so its keys take no more bytes than one table's
    uint64 keys, and G * l <= 64. A pass's row block holds at most
    min(n * l, _BLOCK_BYTES / 8) float64 projections, the bound of a
    one-table pass of hash_matrix. One buffer holds every group: a yielded
    array is overwritten by the next group. A dimension mismatch raises at
    the first group."""
    _check_dimension(family, vectors)
    n, d, l, L = vectors.shape[0], family.d, family.l, family.L
    key_type = np.min_scalar_type((1 << l) - 1)
    group = max(1, min(L, 8 // key_type.itemsize, n))
    rows = max(1, min(n * l, _BLOCK_BYTES // 8) // max(group * l, d))
    keys = np.empty((group, n), dtype=key_type)
    planes = family._planes.reshape(d, L, l)
    for t in range(0, L, group):
        part = keys[: min(group, L - t)]
        _hash_rows(vectors, planes[:, t : t + part.shape[0]].reshape(d, -1), l, part.T, rows)
        yield t, part


def hash_plain_bits(vectors: np.ndarray, seed: int, L: int, bits: range, out: np.ndarray) -> np.ndarray:
    """Writes into `out`, (n, L) of an unsigned type at least as wide as the
    word that holds len(bits) bits (a strided view will do), bits `bits`,
    a run within [0, 64), of the L tables of the plain families of `seed`
    over the dense (n, d) `vectors`: bit bits.start + j of table t at
    position j. Returns out. Plane (t, b) depends only on (seed, t, b), so
    this is hash_matrix(new_family(PLAIN, bits.stop, L, d, seed=seed),
    vectors) >> bits.start, with only the planes of `bits` drawn and
    projected: `lsh.tune` hashes its keys' low half, and their high half
    only when its grid can use it, each straight into its half."""
    if bits.step != 1 or not 0 <= bits.start < bits.stop <= 64:
        raise ValueError(f"bits {bits} is not a run of key bits within [0, 64)")
    seed = check_seed(seed)
    n, d = vectors.shape
    planes = np.ascontiguousarray(_gaussian_planes(seed, L, bits, d).reshape(L * len(bits), d).T)
    return _hash_rows(vectors, planes, len(bits), out, _block_rows(n, planes.shape[1], d))


def hash_vector(family: HashFamily, x: np.ndarray) -> np.ndarray:
    """Keys of a single point for all L tables: (L,) uint64, equal to
    hash_matrix(family, x[None])[0]. The kernel's product and comparison
    on one row, packed by one integer product with the powers of two,
    without the block loop and buffers, which cost more than the
    arithmetic on one row."""
    z = x.reshape(1, -1)
    _check_dimension(family, z)
    return (z @ family._planes >= 0.0).reshape(family.L, family.l) @ family._pow2
