"""Multi-table LSH index: build (hash every point into L tables), query
(exact-key bucket lookup, union, dedup), the request path `retrieve`
(query, gather the candidate rows, select), and a grid-search tuner for (l, L).

Bucket lookup is exact-key only; no multi-probe. Candidate order is fixed
(ascending id) so the downstream greedy selectors are deterministic.

The tables are static, so they are stored flat, in the manner of FALCONN
(Andoni et al., NeurIPS 2015): table t is its sorted unique keys
keys[table_bounds[t]:table_bounds[t + 1]], and the bucket of keys[j] is
ids[offsets[j]:offsets[j + 1]]. Table t's buckets fill ids[t*n:(t+1)*n],
ids ascending inside each bucket. Build sorts one table at a time into
its slice of ids. The same arrays are written to and read from the blob
as raw bytes.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .hashing import (
    PLAIN,
    HashFamily,
    family_from_bytes,
    family_to_bytes,
    hash_matrix,
    hash_vector,
    new_family,
)
from .select import SelectionProblem, SelectionResult

_MAGIC = b"HDV2"
# magic, n, d, L, bucket count, family length, sha256 of the dataset's
# vectors, crc32 of everything after the header, crc32 of the header so far
_HEADER = struct.Struct("<4sQQQQQ32sII")


@dataclass(frozen=True)
class CandidateSet:
    """Union of the probed buckets. `touched` counts bucket entries scanned
    before dedup, the per-query cost measure."""

    ids: np.ndarray
    touched: int


@dataclass
class LshIndex:
    """Flat tables (see the module docstring): `keys` (B,) uint64,
    `offsets` (B + 1,) and `ids` (L * n,) int64, `table_bounds` (L + 1,)
    bucket numbers. Only non-empty buckets are stored. Immutable after
    build; queries are safe to run concurrently."""

    family: HashFamily
    dataset: Dataset
    keys: np.ndarray
    offsets: np.ndarray
    ids: np.ndarray
    table_bounds: np.ndarray

    def __post_init__(self):
        # per-table views, so a lookup slices nothing
        bounds = self.table_bounds.tolist()
        self._table_keys = [self.keys[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        self._bounds = bounds

    def bucket_sizes(self) -> np.ndarray:
        """Point count of every non-empty bucket, table by table."""
        return np.diff(self.offsets)


def build(dataset: Dataset, family: HashFamily) -> LshIndex:
    """Hash all points into every table. Deterministic for a fixed family."""
    if dataset.n == 0:
        raise ValueError("cannot index an empty dataset")
    if dataset.d != family.d:
        raise ValueError(f"dataset dimension {dataset.d} != family dimension {family.d}")
    n, L = dataset.n, family.L
    keys = hash_matrix(family, dataset.vectors)  # (n, L)
    # one table at a time, so only one table's sort is alive beside the index
    ids = np.empty(L * n, dtype=np.int64)
    bucket_keys, starts = [], []
    first = np.ones(n, dtype=bool)  # every table opens a bucket
    for t in range(L):
        order = ids[t * n : (t + 1) * n]
        order[:] = np.argsort(keys[:, t], kind="stable")
        sorted_keys = keys[order, t]
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
        starts.append(np.flatnonzero(first) + t * n)
        bucket_keys.append(sorted_keys[first])
    del keys  # freed before the index arrays are concatenated
    return LshIndex(
        family=family,
        dataset=dataset,
        keys=np.concatenate(bucket_keys),
        offsets=np.concatenate(starts + [[L * n]]),
        ids=ids,
        table_bounds=np.cumsum([0] + [s.size for s in starts]),
    )


def _check_query(q: np.ndarray) -> None:
    if not np.isfinite(q).all():
        raise ValueError("query has a NaN or infinite coordinate")
    if not q.any():
        raise ValueError("query is the zero vector, which has no direction")


def query(index: LshIndex, q: np.ndarray) -> CandidateSet:
    """Union of the L buckets matching the keys of the dense query q,
    deduplicated, ascending id."""
    _check_query(q)
    keys = hash_vector(index.family, q)
    buckets = []
    for lo, table, key in zip(index._bounds, index._table_keys, keys):
        j = int(table.searchsorted(key))
        if j < table.size and table[j] == key:
            buckets.append(index.ids[index.offsets[lo + j] : index.offsets[lo + j + 1]])
    touched = int(sum(b.size for b in buckets))
    if not buckets:
        return CandidateSet(ids=np.empty(0, dtype=int), touched=0)
    # np.unique's hash-table path costs more than the sort on a few hundred ids
    ids = np.concatenate(buckets)
    ids.sort()
    distinct = np.empty(ids.size, dtype=bool)
    distinct[0] = True
    np.not_equal(ids[1:], ids[:-1], out=distinct[1:])
    return CandidateSet(ids=ids[distinct], touched=touched)


def retrieve(
    dataset: Dataset,
    index: LshIndex | None,
    q: np.ndarray,
    select,
    k: int,
    lam: float,
) -> tuple[SelectionResult, int]:
    """One request: the union of q's buckets (every point of `dataset` when
    `index` is None), gathered and passed to `select` as a
    SelectionProblem. Returns the selection and the candidate count; an
    empty union gives an empty, underfilled selection and count 0. A NaN,
    infinite or zero query raises ValueError on both paths."""
    if index is None:
        _check_query(q)
        ids = np.arange(dataset.n)
    else:
        ids = query(index, q).ids
    if ids.size == 0:
        return SelectionResult(ids=ids, underfilled=True), 0
    problem = SelectionProblem(query=q, ids=ids, vectors=dataset.dense_rows(ids), k=k, lam=lam)
    return select(problem), ids.size


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


# trailing-zero count of a power of two 2^z (z < 64) by the biased exponent
# 127 + z of its float32 value, which holds it exactly; 0 (equal keys)
# has exponent 0 and maps to 64
_TRAILING_ZEROS = np.full(256, 64, dtype=np.uint8)
_TRAILING_ZEROS[127:191] = np.arange(64)


def _shared_prefix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Number of low bits on which keys a and b agree (64 if a == b): the
    trailing zeros of a ^ b, read off its lowest set bit."""
    x = a ^ b
    x &= -x
    return _TRAILING_ZEROS[x.astype(np.float32).view(np.uint32) >> np.uint32(23)]


def tune(
    dataset: Dataset,
    target_recall: float,
    epsilon: float = 1.0,
    *,
    seed: int = 0,
    n_queries: int = 64,
    at_k: int = 10,
) -> TuneResult:
    """Grid-search (l, L) on a held-out query sample.

    Recall@`at_k` is measured leave-one-out (the sampled query point is
    removed from its own ground truth and candidate set, otherwise the
    guaranteed self-collision inflates the estimate). Among pairs reaching
    target_recall, those whose mean candidate count stays within 4x of
    n^(1/(1+epsilon)) are preferred, and expected touched count breaks the
    tie; the count preference is soft because degenerate data (duplicates)
    can make any recall-feasible pair exceed it. If no pair reaches the
    target, the best-recall pair is returned with feasible False.

    Because hyperplane (t, b) depends only on (seed, t, b), every grid pair
    is a prefix of the one maximal family, so the dataset is hashed once.
    Point i shares query q's bucket at (l, table t) iff their table-t keys
    agree on the low l bits, so one shared-prefix length per (q, i, t)
    answers every l; its running max over tables gives the union for
    every L.
    """
    if not 0.0 < target_recall < 1.0:
        raise ValueError("target_recall must lie strictly between 0 and 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n = dataset.n
    if n == 0:
        raise ValueError("cannot tune on an empty dataset")
    rng = np.random.default_rng(seed)
    q_ids = rng.choice(n, size=min(n_queries, n), replace=False)
    q_ids.sort()
    qvecs = dataset.dense_rows(q_ids)

    max_l, max_L = _L_GRID[-1], _TABLE_GRID[-1]
    family = new_family(PLAIN, max_l, max_L, dataset.d, seed=seed)
    all_keys = hash_matrix(family, dataset.vectors)          # (n, max_L)

    # leave-one-out ground truth: at_k nearest neighbors excluding the query
    true_nn = []
    for qi, qv in zip(q_ids, qvecs):
        diff = dataset.vectors - qv
        order = np.argsort(np.einsum("ij,ij->i", diff, diff), kind="stable")[: at_k + 1]
        true_nn.append([i for i in order.tolist() if i != qi][:at_k])
    true_nn = np.array(true_nn, dtype=np.intp).reshape(q_ids.size, -1)

    # per table L (1-based) and query: hits among true_nn, union size and
    # touched entries, each for every l of the grid
    nq = q_ids.size
    ls = np.array(_L_GRID)
    rows = np.arange(nq)[:, None]
    union = np.zeros((nq, n), dtype=np.uint8)   # longest prefix shared in any table so far
    touched_hist = np.zeros((nq, 65), dtype=np.int64)
    hits, cands, touched = [], [], []

    def at_least(hist: np.ndarray) -> np.ndarray:
        return hist[:, ::-1].cumsum(axis=1)[:, ::-1][:, ls]   # (nq, len(ls)): count of prefix >= l

    for t in range(max_L):
        shared = _shared_prefix(all_keys[q_ids, t][:, None], all_keys[:, t][None, :])
        touched_hist += np.bincount((shared + rows * 65).ravel(), minlength=nq * 65).reshape(nq, 65)
        np.maximum(union, shared, out=union)
        hits.append((union[rows, true_nn][:, :, None] >= ls).sum(axis=1))
        union_hist = np.bincount((union + rows * 65).ravel(), minlength=nq * 65).reshape(nq, 65)
        cands.append(at_least(union_hist) - 1)   # the query itself always collides
        touched.append(at_least(touched_hist))

    at = min(at_k, n - 1) or 1
    candidate_cap = 4.0 * n ** (1.0 / (1.0 + epsilon))
    best = None          # feasible and under the candidate cap, lowest touched
    best_over_cap = None  # feasible, lowest touched
    fallback = None      # highest recall
    for li, l in enumerate(_L_GRID):
        for L in _TABLE_GRID:
            recalls = hits[L - 1][:, li] / at
            recall = float(recalls.mean())
            # one-sided confidence margin: the pair must clear the target by
            # the sample error, or the selected-at-threshold pair would miss
            # the target on fresh queries about half the time
            margin = 1.64 * float(recalls.std()) / np.sqrt(recalls.size)
            mean_cand = float(np.mean(cands[L - 1][:, li]))
            mean_touched = float(np.mean(touched[L - 1][:, li]))
            entry = TuneResult(l, L, True, recall, mean_cand, mean_touched)
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
    return TuneResult(fallback.l, fallback.L, False, fallback.recall, fallback.mean_candidates, fallback.expected_touched)


def _arrays_offset(fam_len: int) -> int:
    """Where the arrays start: after the header and the family blob,
    rounded up to 8 bytes so that they load aligned."""
    end = _HEADER.size + fam_len
    return end + (-end % 8)


def index_to_bytes(index: LshIndex) -> bytes:
    """Header, family blob, zero padding to 8 bytes, then keys, offsets,
    table_bounds and ids as raw little-endian 64-bit arrays."""
    fam = family_to_bytes(index.family)
    ds = index.dataset
    body = [fam, bytes(_arrays_offset(len(fam)) - _HEADER.size - len(fam))] + [
        memoryview(np.ascontiguousarray(a, dtype=dt))
        for a, dt in ((index.keys, "<u8"), (index.offsets, "<i8"), (index.table_bounds, "<i8"), (index.ids, "<i8"))
    ]
    body_crc = 0
    for part in body:
        body_crc = zlib.crc32(part, body_crc)
    fields = (_MAGIC, ds.n, ds.d, index.family.L, index.keys.size, len(fam), ds.digest, body_crc)
    header = _HEADER.pack(*fields, 0)[:-4]
    return b"".join([header, struct.pack("<I", zlib.crc32(header)), *body])


def index_from_bytes(blob: bytes, dataset: Dataset) -> LshIndex:
    if len(blob) < _HEADER.size:
        raise ValueError(f"truncated index blob: {len(blob)} bytes, the header alone is {_HEADER.size}")
    magic, n, d, L, buckets, fam_len, digest, body_crc, header_crc = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise ValueError("not an index blob (bad magic)")
    if zlib.crc32(memoryview(blob)[: _HEADER.size - 4]) != header_crc:
        raise ValueError("corrupt index blob: header checksum mismatch")
    arrays_at = _arrays_offset(fam_len)
    size = arrays_at + 8 * (2 * buckets + L + 2 + L * n)
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
    family = family_from_bytes(blob[_HEADER.size : _HEADER.size + fam_len])
    parts = []
    for dtype, count in (("<u8", buckets), ("<i8", buckets + 1), ("<i8", L + 1), ("<i8", L * n)):
        parts.append(np.frombuffer(blob, dtype=dtype, count=count, offset=arrays_at))
        arrays_at += 8 * count
    keys, offsets, bounds, ids = parts
    return LshIndex(family=family, dataset=dataset, keys=keys, offsets=offsets, ids=ids, table_bounds=bounds)


def save_index(index: LshIndex, path) -> None:
    with open(path, "wb") as fh:
        fh.write(index_to_bytes(index))


def load_index(path, dataset: Dataset) -> LshIndex:
    with open(path, "rb") as fh:
        return index_from_bytes(fh.read(), dataset)
