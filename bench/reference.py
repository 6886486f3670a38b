"""Input generators and brute-force oracles kept with the benchmark.

The generators are copies, so the benchmark does not import the test
suite; the oracles are written from the documented definitions, not from
the library's code, so a change to the library cannot change both sides
of a check.
"""

from __future__ import annotations

import numpy as np


def clustered_points(n: int, d: int = 24, n_clusters: int = 256, spread: float = 0.08, seed: int = 42) -> np.ndarray:
    """Unit vectors in clusters with 2-dim interiors; point i lies in
    cluster i % n_clusters. Same draws as the acceptance suite's C6 data."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_clusters, d))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    tangents = rng.standard_normal((n_clusters, 2, d))
    assign = np.arange(n) % n_clusters
    uv = rng.standard_normal((n, 2))
    pts = (
        centers[assign]
        + spread * np.einsum("ni,nid->nd", uv, tangents[assign])
        + 0.005 * rng.standard_normal((n, d))
    )
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def planted_model(n_labels: int, k: int, d: int, n_queries: int, *, n_clusters: int = 50,
                  cluster_spread: float = 0.15, seed: int = 0, block: int = 128):
    """The draws of `hashdiv.experiment.make_planted`, with the truth kept
    as an (n_queries, n_labels) boolean matrix built in row blocks instead
    of one Python set per query. Returns (W, H, X, truth)."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_clusters, k))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    assign = rng.integers(0, n_clusters, size=n_labels)
    W = centers[assign] + cluster_spread * rng.standard_normal((n_labels, k))
    H = np.linalg.qr(rng.standard_normal((d, k)))[0]
    target = rng.integers(0, n_clusters, size=n_queries)
    z = centers[target] + cluster_spread * rng.standard_normal((n_queries, k))
    X = z @ H.T
    truth = np.empty((n_queries, n_labels), dtype=bool)
    for s in range(0, n_queries, block):
        truth[s : s + block] = (X[s : s + block] @ H) @ W.T > 0.0
    return W, H, X, truth


def exact_top_k(base: np.ndarray, queries: np.ndarray, k: int, block: int = 64) -> np.ndarray:
    """(n_queries, k) ids of the k nearest base rows by Euclidean distance,
    nearest first, ties by id. Distances are formed block by block so at
    most `block` x n floats are alive at once."""
    sq = np.einsum("ij,ij->i", base, base)
    ids = np.arange(base.shape[0])
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    for s in range(0, queries.shape[0], block):
        qb = queries[s : s + block]
        d2 = sq[None, :] - 2.0 * (qb @ base.T)
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        for r in range(qb.shape[0]):
            cand = part[r]
            out[s + r] = cand[np.lexsort((ids[cand], d2[r, cand]))]
    return out


def bucket_union(keys: np.ndarray, qkeys: np.ndarray) -> tuple[np.ndarray, int]:
    """Brute-force lookup: ids whose key equals the query's key in at least
    one table, ascending, and the bucket entries that lookup scans."""
    hit = keys == qkeys[None, :]
    return np.flatnonzero(hit.any(axis=1)), int(hit.sum())


def naive_greedy(q: np.ndarray, X: np.ndarray, k: int, lam: float) -> list[int]:
    """Greedy accuracy/diversity selection, row positions in pick order: at
    step i (1-based) take the remaining r minimising
    lam * |q - r|^2 - (1 / i) * sum over picked s of |r - s|^2,
    the lowest position on ties."""
    remaining = list(range(X.shape[0]))
    picked: list[int] = []
    for i in range(1, min(k, X.shape[0]) + 1):
        best, best_score = None, None
        for r in remaining:
            score = lam * float(np.sum((q - X[r]) ** 2))
            score -= sum(float(np.sum((X[r] - X[s]) ** 2)) for s in picked) / i
            if best is None or score < best_score:
                best, best_score = r, score
        picked.append(best)
        remaining.remove(best)
    return picked
