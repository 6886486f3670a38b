"""Multi-table LSH index: build (hash every point into L tables), query
(exact-key bucket lookup, union, dedup), the request path `retrieve`
(query an index or scan a dataset, gather the candidate rows, select),
and a grid-search tuner for (l, L).

Bucket lookup is exact-key only; no multi-probe. Candidate order is fixed
(ascending id) so the downstream greedy selectors are deterministic.

The tables are static, so they are stored flat, in the manner of FALCONN
(Andoni et al., NeurIPS 2015): table t's buckets are stored under tagged
keys (t << l) | key, so one ascending `keys` array holds every table and
one binary search finds a query's L keys. The bucket of keys[j] is
ids[offsets[j]:offsets[j + 1]]. Table t's buckets fill ids[t*n:(t+1)*n],
ids ascending inside each bucket; offsets and ids are int32. Build hashes
a group of tables per pass over the rows, their keys in the narrowest
word that holds l bits, and sorts one table at a time into its slice of
ids, so the (n, L) keys never exist. This module alone knows the layout:
`build` and `index_from_bytes` make the tags and keep them on the index
(hash keys carry none), and `check_tables` is the one rule of which (l,
L) fit it.

The tuner reads its grid from the same kind of sorted tables: sorted by
their low 8 key bits, each table holds the points that can share a
sampled query's bucket at any grid l in one range, and only the (query,
point) pairs inside those ranges are scored. It hashes the low 32 key
bits first, and the high 32 only when a grid l above 32 can be picked.
Its memory is the sample's keys, a (64, n) uint8 running maximum (a
quarter of the keys) and one slice of pairs within a fixed byte budget.

This module alone reads and writes the index blob: one header holding the
family's fields and the dataset's digest, then for the pca kinds the
basis, then the same three arrays as raw bytes. Loading checks that the
arrays form an index over the dataset before any query reads them.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .data import Dataset, check_seed
from .hashing import KINDS, PLAIN, HashFamily, hash_groups, hash_plain_bits, hash_vector, new_family
from .linalg import TruncatedBasis
from .select import SelectionProblem, SelectionResult, check_query, check_scale, top_k

_MAGIC = b"HDV5"
# magic, kind code (the kind's position in KINDS), n, d, L, l, alpha (0 for
# the plain kind), seed, bucket count, sha256 of the dataset's vectors,
# crc32 of everything after the header, crc32 of the header so far. Its
# 104 bytes keep the arrays after it 8-byte aligned.
_HEADER = struct.Struct("<4sIQQQQQqQ32sII")
# the most ids (L * n) that int32 offsets and ids can address
_MAX_IDS = 2**31 - 1


@dataclass(frozen=True)
class CandidateSet:
    """Union of the probed buckets. `touched` counts bucket entries scanned
    before dedup, the per-query cost measure."""

    ids: np.ndarray
    touched: int


@dataclass
class LshIndex:
    """Flat tables (see the module docstring): tagged `keys` (B,) uint64,
    ascending, `offsets` (B + 1,) and `ids` (L * n,) int32, and table t's
    tag t << l in `tags` (L,) uint64. Only non-empty buckets are stored.
    Immutable after build; queries are safe to run concurrently."""

    family: HashFamily
    dataset: Dataset
    keys: np.ndarray
    offsets: np.ndarray
    ids: np.ndarray
    tags: np.ndarray


def _tags(family: HashFamily) -> np.ndarray:
    """(L,) uint64: table t's tag t << l. l = 64 with L = 1 fits: numpy
    shifts the one zero tag by 64 to 0."""
    return np.arange(family.L, dtype=np.uint64) << np.uint64(family.l)


def _misfit(l: int, L: int, n: int) -> str:
    """Why L tables of l-bit keys over n points do not fit one index, or ""."""
    tag_bits = (L - 1).bit_length()
    if l + tag_bits > 64:
        return (f"l={l} and L={L} do not fit one index: a tagged key holds the {l} key bits "
                f"and a {tag_bits}-bit table number, {l + tag_bits} > 64 bits")
    if L * n > _MAX_IDS:
        return (f"L={L} tables of n={n} points hold {L * n} ids, more than the {_MAX_IDS} "
                "that an index's int32 offsets can address")
    return ""


def check_tables(l: int, L: int, n: int) -> None:
    """Refuse an (l, L) whose tagged keys do not fit 64 bits, or L tables
    of n points whose L * n ids an int32 offset cannot address: the fits
    rule of build, load, the experiment's pre-check and tune's grid."""
    if misfit := _misfit(l, L, n):
        raise ValueError(misfit)


def build(dataset: Dataset, family: HashFamily) -> LshIndex:
    """Hash all points into every table. Deterministic for a fixed family.

    `hashing.hash_groups` hashes G tables per pass over the rows (8 at l
    <= 8, 4 at l <= 16, 2 at l <= 32, else 1), their keys in the narrowest
    unsigned word that holds l bits, so a group's keys take no more than
    one table's uint64 keys. Each table is then sorted alone, by a stable
    argsort written straight into its slice of ids, and its bucket keys
    and offsets are appended to arrays that grow in place. Beside the
    index, the work space is one group's keys, one table's sort and one
    row block's projections."""
    if dataset.n == 0:
        raise ValueError("cannot index an empty dataset")
    if dataset.d != family.d:
        raise ValueError(f"dataset dimension {dataset.d} != family dimension {family.d}")
    n, L = dataset.n, family.L
    check_tables(family.l, L, n)
    tags = _tags(family)
    ids = np.empty(L * n, dtype=np.int32)
    # grown table by table in place: numpy resizes by realloc, so no
    # bucket is held twice, as a concatenation of per-table pieces would
    keys = np.empty(0, dtype=np.uint64)
    offsets = np.empty(0, dtype=np.int32)
    first = np.ones(n, dtype=bool)  # every table opens a bucket
    # a group of tables a pass, their keys in the narrowest unsigned type
    # that holds l bits (numpy's stable sort is a radix sort on 8- and
    # 16-bit integers), then one table's sort at a time: beside the index,
    # a group's keys take no more than one table's uint64 keys
    for t0, group in hash_groups(family, dataset.vectors):
        for t, table_keys in enumerate(group, t0):
            order = ids[t * n : (t + 1) * n]
            order[:] = table_keys.argsort(kind="stable")
            sorted_keys = table_keys[order]
            np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            b = keys.size
            # no view of keys or offsets outlives a statement, so they may
            # be resized without numpy's reference check
            keys.resize(b + starts.size, refcheck=False)
            offsets.resize(b + starts.size, refcheck=False)
            keys[b:] = sorted_keys[first] | tags[t]
            offsets[b:] = starts + t * n
            del sorted_keys, starts  # before the next table's sort
    offsets.resize(keys.size + 1, refcheck=False)
    offsets[-1] = L * n
    return LshIndex(family, dataset, keys, offsets, ids, tags)


def _check_query(q, d: int) -> np.ndarray:
    """q as a float array, as `SelectionProblem` converts it, after
    `check_query` and a refusal of the zero query, which has no
    direction."""
    q = np.asarray(q, dtype=float)
    if check_query(q, d) == 0.0:
        raise ValueError("query is the zero vector, which has no direction")
    return q


def query(index: LshIndex, q: np.ndarray) -> CandidateSet:
    """Union of the L buckets matching the keys of the dense query q,
    deduplicated, ascending id."""
    q = _check_query(q, index.family.d)
    want = hash_vector(index.family, q) | index.tags
    j = index.keys.searchsorted(want)
    j = j[index.keys.take(j, mode="clip") == want]
    if j.size == 0:
        return CandidateSet(ids=np.empty(0, dtype=int), touched=0)
    lo, hi = index.offsets[j].tolist(), index.offsets[j + 1].tolist()
    touched = sum(hi) - sum(lo)
    # np.unique's hash-table path costs more than the sort on a few hundred ids
    ids = np.concatenate([index.ids[a:b] for a, b in zip(lo, hi)], dtype=np.intp)
    ids.sort()
    distinct = np.empty(ids.size, dtype=bool)
    distinct[0] = True
    np.not_equal(ids[1:], ids[:-1], out=distinct[1:])
    return CandidateSet(ids=ids[distinct], touched=touched)


def retrieve(source: LshIndex | Dataset, q: np.ndarray, select, k: int, lam: float) -> tuple[SelectionResult, int]:
    """One request: the union of q's buckets in the index `source` (every
    point when `source` is a Dataset), gathered and passed to `select` as
    a SelectionProblem. Returns the selection and the candidate count; an
    empty union is the selector's case like any other pool, which answers
    it with an empty, underfilled selection, and its count is 0. A query
    that is not a 1-d array of the points' dimension, or that is NaN,
    infinite or zero, and a k below 1 or a lam outside [0, 1] raise
    ValueError on both paths, an empty union included. The problem is
    built by the public constructor, whose squared norms of the candidates
    also bound every selector's scores against overflow."""
    if isinstance(source, Dataset):
        q = _check_query(q, source.d)
        ids, vectors = np.arange(source.n), source.vectors  # selectors only read it, so no copy
    else:
        ids = query(source, q).ids
        vectors = source.dataset.dense_rows(ids)
    problem = SelectionProblem(q, ids, vectors, k, lam)  # checks k and lam, also for an empty union
    return select(problem), problem.size


@dataclass(frozen=True)
class TuneResult:
    l: int
    L: int
    feasible: bool
    recall: float
    mean_candidates: float
    expected_touched: float


_L_GRID = tuple(range(8, 65, 4))
_TABLE_GRID = tuple(range(1, 33))
# sampled queries, and the k of the recall@k that tune measures
_TUNE_QUERIES = 64
_TUNE_AT_K = 10


# bytes that the work arrays of one slice of tune's (query, point) pairs
# may hold together: a slice holds _TUNE_BYTES // 64 pairs, and fewer
# than 64 bytes a pair are alive at once; also the bytes of one block of
# the ground truth's float64 scores, _TUNE_BYTES // (8 n) queries against
# all n points
_TUNE_BYTES = 1 << 19


def _true_neighbors(vectors: np.ndarray, q_ids: np.ndarray, k: int) -> np.ndarray:
    """(q_ids.size, min(k, n - 1)) intp: the leave-one-out ground truth of
    each query point q_ids[j], the ids that `select_nn` ranks first among
    all n points for k + 1 (nearest first, ties to the lowest id), with
    q_ids[j] removed and cut to min(k, n - 1). Vectors so large that a
    squared distance could overflow float64 raise select_nn's ValueError,
    before any product.

    The queries go in blocks of _TUNE_BYTES // (8 n). One BLAS product
    scores a block against every point by approx = |q|^2 - 2 q.x + |x|^2,
    and one partition finds each row's (k + 1)-th smallest, kth. Only the
    points with approx <= kth + 2F are re-ranked, by select_nn's own
    distance sum((x - q)^2) and `top_k`, so the ids equal select_nn's.
    F bounds |approx - ex| over every pair, ex that distance as computed
    (see below). The k + 1 points of smallest approx have approx <= kth,
    so ex <= kth + F: the (k + 1)-th smallest ex is at most kth + F, and
    every point of select_nn's k + 1 has ex <= kth + F, so approx <=
    kth + 2F, and is kept."""
    x = np.asarray(vectors, dtype=float)
    n, d = x.shape
    sq = np.einsum("ij,ij->i", x, x)   # warns of no overflow
    top = float(sq.max())   # the queries' squared norms among them
    check_scale(top, 4)
    q = x[q_ids]
    # B = top, u = eps / 2: the squared norms and q.x (in any order of
    # summation) err by at most d u B each, and the two sums of approx,
    # whose terms are below 4B, by 7 u B; each of ex's d squared
    # differences errs by 3u relative and their sum by (d - 1) u more,
    # with ex <= 4B. So |approx - ex| <= (8d + 15) u B, and F =
    # 8 (d + 4) eps B is twice that, room for the rounding of B and of
    # kth + 2F. A product that underflows errs by at most half the
    # smallest subnormal, so F also adds 8 (d + 4) of those.
    two_f = 16 * (d + 4) * (np.finfo(float).eps * top + np.finfo(float).smallest_subnormal)
    kth_at = min(k + 1, n) - 1
    truth = np.empty((q_ids.size, min(k, n - 1)), dtype=np.intp)
    rows = max(1, _TUNE_BYTES // (8 * n))
    for lo in range(0, q_ids.size, rows):
        approx = q[lo : lo + rows] @ x.T
        approx *= -2.0
        approx += sq[q_ids[lo : lo + rows], None]
        approx += sq
        bound = np.partition(approx, kth_at, axis=1)[:, kth_at] + two_f
        for qi, qv, scores, cut, out in zip(q_ids[lo:], q[lo:], approx, bound, truth[lo:]):
            near = np.flatnonzero(scores <= cut)
            diff = x[near] - qv
            nearest = near[top_k(np.einsum("ij,ij->i", diff, diff), near, k + 1)]
            out[:] = nearest[nearest != qi][: out.size]
    return truth


def _shared_prefix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The number of low bits on which the uint64 keys a and b agree (64
    if a == b), as uint8: the trailing zeros of a ^ b, counted as the set
    bits below its lowest set bit. For a == b the subtraction wraps to all
    ones. Overwrites a."""
    x = np.bitwise_xor(a, b, out=a)
    x &= -x
    x -= np.uint64(1)
    return np.bitwise_count(x)


def tune(dataset: Dataset, target_recall: float, epsilon: float = 1.0, *, seed: int = 0) -> TuneResult:
    """Grid-search (l, L) on a held-out query sample.

    The sample is 64 points drawn by `seed`, an integer in [0, 2**63) as
    for `new_family` (every point when n <= 64),
    and the measure is recall@10 (over the n - 1 others when n <= 10);
    both are fixed. Recall is measured leave-one-out (the sampled query
    point is removed from its own ground truth and candidate set,
    otherwise the guaranteed self-collision inflates the estimate). Among
    pairs reaching target_recall, those whose mean candidate count stays
    within 4x of n^(1/(1+epsilon)) are preferred, and expected touched
    count breaks the tie; the count preference is soft because degenerate
    data (duplicates) can make any recall-feasible pair exceed it. If no
    pair reaches the target, the best-recall pair is returned with
    feasible False. Ties go to the first pair in (l, L) order. Only pairs
    that `check_tables` accepts are returned.

    Because hyperplane (t, b) depends only on (seed, t, b), every grid pair
    is a prefix of the one maximal family, so the dataset is hashed once,
    in two halves: the low 32 bits of every table first, which give
    recall at (32, 32). Below the target, no pair of a longer l can be
    picked (see the proof in the code), so the grid stops at l = 32 and
    the high 32 bits are never drawn or projected; otherwise they are
    hashed alone, straight into the keys' high halves
    (`hashing.hash_plain_bits`).
    Point i shares query q's bucket at (l, table t) iff their table-t keys
    agree on the low l bits, so one shared-prefix length per (q, i, t)
    answers every l; its running max over tables gives the union for
    every L. The whole grid is then scored as (l, L) arrays.

    Every grid l is at least 8, so only the pairs whose keys agree on the
    low 8 bits are scored: each table is radix-sorted by those bits, a
    binary search finds each query's range, and the work per table is the
    pairs in the queries' ranges, not 64 n. The running max is a (64, n)
    uint8 array, a quarter of the (n, 32) keys, and the per-query
    histograms of touched and union prefixes change only where a pair's
    prefix or the max rises. The pairs are scored in slices of
    _TUNE_BYTES // 64 pairs, so the memory stays the keys, the max and
    one slice even when every point shares one bucket.

    The ground truth (`_true_neighbors`) is, to the id, what one
    `select_nn` over every point gives each query, from one BLAS product
    per block of queries and an exact re-rank of the few points that
    product cannot tell apart. It runs before the hashing, so its blocks
    of at most _TUNE_BYTES do not add to the keys' peak. Vectors so large
    that a squared distance could overflow float64 raise select_nn's
    ValueError, before any product.
    """
    if not 0.0 < target_recall < 1.0:
        raise ValueError("target_recall must lie strictly between 0 and 1")
    if not epsilon > 0:   # also refuses NaN
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    seed = check_seed(seed)
    n = dataset.n
    if n == 0:
        raise ValueError("cannot tune on an empty dataset")
    rng = np.random.default_rng(seed)
    q_ids = rng.choice(n, size=min(_TUNE_QUERIES, n), replace=False)
    q_ids.sort()
    nq = q_ids.size
    # before the keys exist, so that its blocks do not add to their peak
    true_nn = _true_neighbors(dataset.vectors, q_ids, _TUNE_AT_K)
    at_k = true_nn.shape[1]

    max_L = _TABLE_GRID[-1]
    # (n, max_L) keys of every grid pair, hashed half by half straight into
    # their low and high 32 bits (little-endian, so that the first uint32
    # of each key is its low half on any host); the low half first
    all_keys = np.zeros((n, max_L), dtype="<u8")
    low, high = all_keys.view("<u4").reshape(n, max_L, 2).transpose(2, 0, 1)
    hash_plain_bits(dataset.vectors, seed, max_L, range(32), out=low)
    # recall at (32, max_L), the number the grid computes there: the true
    # neighbours that share a query's whole low half in some table.
    # Below the target, no pair of a longer l can be picked: at a fixed L
    # recall never rises with l, and at a fixed l it never falls with L, so
    # every such pair misses the target, and feasibility asks for the
    # target plus a margin >= 0; a pair that fits at some l fits at every
    # shorter l, with at least its recall, and argmax ties go to the
    # shorter l, so none is the best-recall fallback either. Then the grid
    # stops at 32 and the high half is never hashed.
    shared = (all_keys[true_nn] == all_keys[q_ids, None]).any(axis=2).sum(axis=1)
    if (shared / (at_k or 1)).mean() < target_recall:
        grid = tuple(l for l in _L_GRID if l <= 32)
    else:
        grid = _L_GRID
        hash_plain_bits(dataset.vectors, seed, max_L, range(32, 64), out=high)

    # per l, table count L and query: hits among true_nn, union size and
    # touched entries, from the pairs in each query's range of the table
    # sorted by its low _L_GRID[0] key bits
    ls = np.array(grid)
    low_bits = np.uint64((1 << _L_GRID[0]) - 1)
    hits, cands, touched = (np.empty((ls.size, max_L, nq)) for _ in range(3))
    longest = np.zeros((nq, n), dtype=np.uint8)   # longest prefix that q shares with i in any table so far
    cells = longest.reshape(-1)
    # bin 65 q + p counts the points whose longest prefix with q is p, and
    # the pairs of prefix p; bins of p below _L_GRID[0] are never read
    union_hist, touched_hist = (np.zeros(nq * 65, dtype=np.int64) for _ in range(2))
    per_slice = _TUNE_BYTES // 64
    rows = np.arange(nq)
    # the loop calls the methods argsort and repeat: through np.argsort and
    # np.repeat it left about 9 KB of objects on Python's free lists, which
    # the tracemalloc peak of a later build counted

    def at_least(hist: np.ndarray) -> np.ndarray:
        return hist.reshape(nq, 65)[:, ::-1].cumsum(axis=1)[:, ::-1][:, ls].T   # (len(ls), nq): count of prefix >= l

    for t in range(max_L):
        keys = all_keys[:, t]
        q_keys = keys[q_ids]
        low = (keys & low_bits).astype(np.uint8)
        order = low.argsort(kind="stable")   # numpy sorts uint8 by radix
        sorted_low = low[order]
        q_low = low[q_ids]
        start = sorted_low.searchsorted(q_low)
        size = sorted_low.searchsorted(q_low, side="right") - start
        # all queries' pairs in one flat run: query j's are pairs
        # [ends[j] - size[j], ends[j]), pair p joining j to point
        # order[p + shift[j]]
        ends = size.cumsum()
        shift = start - (ends - size)
        total = int(ends[-1])
        for lo in range(0, total, per_slice):
            hi = min(lo + per_slice, total)
            a, b = ends.searchsorted(lo, side="right"), ends.searchsorted(hi) + 1   # the queries with pairs in [lo, hi)
            counts = np.minimum(ends[a:b], hi) - np.maximum(ends[a:b] - size[a:b], lo)
            q = rows[a:b].repeat(counts)
            i = order[np.arange(lo, hi) + shift[a:b].repeat(counts)]
            shared = _shared_prefix(q_keys[q], keys[i])
            bins = q * 65
            touched_hist += np.bincount(bins + shared, minlength=nq * 65)
            # move each point whose longest prefix with q rose from its
            # old union bin to the new one
            cell = q * n + i
            old = cells[cell]
            rose = shared > old
            cell, bins, new, old = cell[rose], bins[rose], shared[rose], old[rose]
            cells[cell] = new
            union_hist += np.bincount(bins + new, minlength=nq * 65)
            union_hist -= np.bincount(bins + old, minlength=nq * 65)
        hits[:, t] = (longest[rows[:, None], true_nn] >= ls[:, None, None]).sum(axis=2)
        cands[:, t] = at_least(union_hist) - 1   # the query itself always collides
        touched[:, t] = at_least(touched_hist)

    # the means reduce the contiguous query axis, so each is the pairwise
    # sum that np.mean gives one (l, L) pair's queries
    recalls = hits / (at_k or 1)
    recall = recalls.mean(axis=-1)
    # one-sided confidence margin: the pair must clear the target by the
    # sample error, or the selected-at-threshold pair would miss the target
    # on fresh queries about half the time
    margin = 1.64 * recalls.std(axis=-1) / np.sqrt(nq)
    mean_cand = cands.mean(axis=-1)
    mean_touched = touched.mean(axis=-1)
    fits = np.array([[not _misfit(l, L, n) for L in _TABLE_GRID] for l in grid])
    feasible = fits & (recall >= target_recall + margin)
    candidate_cap = 4.0 * n ** (1.0 / (1.0 + epsilon))
    for ok in (feasible & (mean_cand <= candidate_cap), feasible):
        if ok.any():
            pick = np.argmin(np.where(ok, mean_touched, np.inf))
            break
    else:
        pick = np.argmax(np.where(fits, recall, -1.0))
    li, Li = np.unravel_index(pick, recall.shape)
    return TuneResult(
        grid[li], _TABLE_GRID[Li], bool(feasible[li, Li]),
        float(recall[li, Li]), float(mean_cand[li, Li]), float(mean_touched[li, Li]),
    )


def _blob_parts(index: LshIndex) -> list:
    """The blob of `index` as a list of buffers: the header, then for the
    pca kinds the basis U (d x alpha) and its singular values as float64,
    then keys (uint64), offsets and ids (int32), all raw little-endian
    arrays viewed in place. Hyperplanes regenerate bit-identically from
    the seed."""
    family, ds = index.family, index.dataset
    basis = [] if family.basis is None else [(family.basis.U, "<f8"), (family.basis.singular_values, "<f8")]
    body = [
        memoryview(np.ascontiguousarray(a, dtype=dt))
        for a, dt in basis + [(index.keys, "<u8"), (index.offsets, "<i4"), (index.ids, "<i4")]
    ]
    body_crc = 0
    for part in body:
        body_crc = zlib.crc32(part, body_crc)
    fields = (_MAGIC, KINDS.index(family.kind), ds.n, ds.d, family.L, family.l, family.alpha or 0, family.seed,
              index.keys.size, ds.digest, body_crc)
    header = _HEADER.pack(*fields, 0)[:-4]
    return [header, struct.pack("<I", zlib.crc32(header)), *body]


def index_to_bytes(index: LshIndex) -> bytes:
    """The index blob (see _blob_parts) as one bytes object."""
    return b"".join(_blob_parts(index))


def _check_arrays(keys: np.ndarray, offsets: np.ndarray, ids: np.ndarray, tags: np.ndarray, l: int, n: int) -> None:
    """Refuse arrays that are not a flat index of the L tables tagged `tags`
    over n points (see the module docstring), so that no query reads out of
    bounds. Only reductions and (B,) temporaries, none the size of ids."""
    L = tags.size
    if keys.size < L:
        raise ValueError(f"corrupt index blob: {keys.size} buckets cannot give each of {L} tables one")
    if (keys[1:] <= keys[:-1]).any():
        raise ValueError("corrupt index blob: bucket keys are not strictly ascending")
    if keys[-1] >> np.uint64(l) >= L:
        raise ValueError(f"corrupt index blob: a bucket key's table tag is not below L={L}")
    if offsets[0] != 0 or offsets[-1] != L * n or (offsets[1:] <= offsets[:-1]).any():
        raise ValueError(f"corrupt index blob: bucket offsets do not rise strictly from 0 to L*n={L * n}")
    tables = np.arange(L)
    firsts = keys.searchsorted(tags)
    bad = (firsts == keys.size) | (keys.take(firsts, mode="clip") >> np.uint64(l) != tables)
    bad |= offsets[firsts] != tables * n
    if bad.any():
        t = int(np.argmax(bad))
        raise ValueError(f"corrupt index blob: table {t}'s buckets do not start at id slot {t * n}")
    if ids.min() < 0 or ids.max() >= n:
        raise ValueError(f"corrupt index blob: a point id lies outside [0, {n})")


def index_from_bytes(blob: bytes, dataset: Dataset) -> LshIndex:
    """Inverse of index_to_bytes, checked against `dataset`. A blob of
    another layout, shorter or longer than its header describes, failing a
    checksum, whose fields or arrays contradict each other or built over
    another dataset raises ValueError."""
    if blob[:4] in (b"HDV2", b"HDV3", b"HDV4"):
        # HDV2 stored untagged keys, HDV3 a separately framed family blob,
        # HDV4 int64 offsets and ids
        raise ValueError(f"index blob has the older {blob[:4].decode()} layout, which is no longer read: "
                         "rebuild it with `hashdiv index build`")
    if len(blob) < _HEADER.size:
        raise ValueError(f"truncated index blob: {len(blob)} bytes, the header alone is {_HEADER.size}")
    magic, code, n, d, L, l, alpha, seed, buckets, digest, body_crc, header_crc = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise ValueError("not an index blob (bad magic)")
    if zlib.crc32(memoryview(blob)[: _HEADER.size - 4]) != header_crc:
        raise ValueError("corrupt index blob: header checksum mismatch")
    if code >= len(KINDS):
        raise ValueError(f"corrupt index blob: unknown kind code {code}")
    kind = KINDS[code]
    lo, hi = (0, 0) if kind == PLAIN else (1, d)
    if not lo <= alpha <= hi:
        raise ValueError(f"corrupt index blob: alpha={alpha} out of range [{lo}, {hi}] for kind {kind!r}")
    counts = ((d * alpha, "<f8"), (alpha, "<f8"), (buckets, "<u8"), (buckets + 1, "<i4"), (L * n, "<i4"))
    size = _HEADER.size + sum(count * np.dtype(dtype).itemsize for count, dtype in counts)
    if len(blob) < size:
        raise ValueError(f"truncated index blob: {len(blob)} bytes, its header describes {size}")
    if len(blob) > size:
        raise ValueError(f"corrupt index blob: {len(blob)} bytes, its header describes {size}")
    if zlib.crc32(memoryview(blob)[_HEADER.size :]) != body_crc:
        raise ValueError("corrupt index blob: checksum mismatch")
    if n != dataset.n:
        raise ValueError(f"index built over {n} points, dataset has {dataset.n}")
    if d != dataset.d:
        raise ValueError(f"index built over {d}-dimensional points, dataset has dimension {dataset.d}")
    if digest != dataset.digest:
        raise ValueError("index built over a different dataset: the digest of its vectors does not match")
    parts, at = [], _HEADER.size
    for count, dtype in counts:
        parts.append(np.frombuffer(blob, dtype=dtype, count=count, offset=at))
        at += count * parts[-1].itemsize
    U, singular_values, keys, offsets, ids = parts
    basis = None if kind == PLAIN else TruncatedBasis(U=U.reshape(d, alpha), singular_values=singular_values)
    try:
        family = new_family(kind, l, L, d, seed=seed, basis=basis)
        check_tables(l, L, n)
    except ValueError as e:
        raise ValueError(f"corrupt index blob: {e}") from e
    tags = _tags(family)
    _check_arrays(keys, offsets, ids, tags, l, n)
    return LshIndex(family, dataset, keys, offsets, ids, tags)


def save_index(index: LshIndex, path) -> None:
    """Write the index blob part by part, so no copy of the whole blob is
    made."""
    with open(path, "wb") as fh:
        fh.writelines(_blob_parts(index))


def load_index(path, dataset: Dataset) -> LshIndex:
    with open(path, "rb") as fh:
        return index_from_bytes(fh.read(), dataset)
