"""Shared fixtures: synthetic datasets used across the index and acceptance
tests."""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from hashdiv import lsh
from hashdiv.data import Dataset, ToyConfig, make_toy, normalize_rows


def toy_centers(d: int) -> tuple:
    return (tuple([1.0] + [0.0] * (d - 1)), tuple([-1.0] + [0.0] * (d - 1)))


def clustered_dataset(n: int, d: int = 24, n_clusters: int = 256, spread: float = 0.08, seed: int = 42) -> Dataset:
    """Clusters with 2-dim interiors on the unit sphere: near-neighbor
    distances shrink as density grows, which is the regime where hashing
    with a fixed family keeps its candidate mass local."""
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
    return Dataset(vectors=normalize_rows(pts))


@pytest.fixture
def small_toy() -> Dataset:
    return make_toy(ToyConfig(n_per_class=100, class_centers=toy_centers(6), spread=0.3, seed=3))


def unit_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def pair_at_angle(theta_deg: float, d: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors separated by exactly theta degrees."""
    theta = np.deg2rad(theta_deg)
    a = np.zeros(d)
    a[0] = 1.0
    b = np.zeros(d)
    b[0] = np.cos(theta)
    b[1] = np.sin(theta)
    return a, b


def edit_family_in_index_blob(blob: bytes, offset: int, value: bytes) -> bytes:
    """An index blob with `value` written at `offset` into its family blob
    and both checksums recomputed, so only the family's own checks can
    catch the edit."""
    head = lsh._HEADER.size
    out = bytearray(blob)
    out[head + offset : head + offset + len(value)] = value
    struct.pack_into("<I", out, head - 8, zlib.crc32(out[head:]))
    struct.pack_into("<I", out, head - 4, zlib.crc32(out[: head - 4]))
    return bytes(out)
