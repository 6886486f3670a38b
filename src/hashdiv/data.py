"""Dataset types, text-format ingestion, the two-class toy generator, the seed rule.

All downstream geometry (collision law, greedy selection, the relaxed QP)
assumes unit-norm vectors, so loaders normalize every row and reject zero
rows outright instead of letting NaNs leak into the hash stage.
"""

from __future__ import annotations

import hashlib
import math
import operator
from array import array
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

MISSING = -1  # sentinel for an absent category/subtopic label


class ParseError(ValueError):
    """Malformed input file; message carries the 1-based line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def check_seed(seed) -> int:
    """The seed as an int, refused with a ValueError unless it is an
    integer in [0, 2**63), the range of the index blob's seed field."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = None
    if value is None or not 0 <= value < 2**63:
        raise ValueError(f"seed={seed!r} is not an integer in [0, 2**63)")
    return value


@dataclass
class Dataset:
    """Immutable-after-construction collection of points with ids 0..n-1.

    `vectors` is an (n, d) dense array; row i is point i.
    Safe for concurrent reads.
    """

    vectors: np.ndarray
    categories: np.ndarray | None = None
    subtopics: np.ndarray | None = None
    label_sets: tuple[frozenset[int], ...] | None = None

    def __post_init__(self):
        if not isinstance(self.vectors, np.ndarray):
            raise ValueError(f"vectors must be a dense numpy array, got {type(self.vectors).__name__}")
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be 2-d (n points x d dims)")
        if not np.isfinite(self.vectors).all():
            bad = np.flatnonzero(~np.isfinite(self.vectors).all(axis=1))[0]
            raise ValueError(f"point {bad} has a NaN or infinite coordinate")
        n = self.vectors.shape[0]
        for name in ("categories", "subtopics"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=int)
                if arr.shape != (n,):
                    raise ValueError(f"{name} must have one entry per point")
                setattr(self, name, arr)
        if self.label_sets is not None and len(self.label_sets) != n:
            raise ValueError("label_sets must have one entry per point")

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    def dense_rows(self, ids) -> np.ndarray:
        """The (len(ids), d) rows of `ids`, a copy."""
        return np.take(self.vectors, np.asarray(ids, dtype=int), axis=0)

    @cached_property
    def digest(self) -> bytes:
        """sha256 of the vectors: the repr of their shape, then the float64
        values. An index blob records it so that it loads only against the
        dataset it was built over."""
        h = hashlib.sha256(repr(self.vectors.shape).encode())
        h.update(np.ascontiguousarray(self.vectors, dtype=np.float64))
        return h.digest()

    @cached_property
    def subtopic_count_per_category(self) -> dict[int, int]:
        """Distinct observed subtopics per category (the metric denominator m)."""
        if self.categories is None or self.subtopics is None:
            return {}
        counts: dict[int, set[int]] = {}
        for c, s in zip(self.categories, self.subtopics):
            if c == MISSING or s == MISSING:
                continue
            counts.setdefault(int(c), set()).add(int(s))
        return {c: len(subs) for c, subs in counts.items()}


def check_points(dataset: Dataset, path) -> Dataset:
    """`dataset`, read from the file `path`; ValueError naming the file if
    it holds no points."""
    if dataset.n == 0:
        raise ValueError(f"{path} holds no points")
    return dataset


_BLOCK = 1 << 13  # values per block of squares in `_normalize` (64 KiB)


@np.errstate(over="ignore")
def _normalize(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write each row of the 2-d float array `x` divided by its
    np.linalg.norm(x, axis=1) into `out`, which has x's shape and may be x
    itself, and return `out`. The norms are taken a block of rows at a
    time: each row's sum is its own, so the bits are those of one call over
    the whole array, and the squares' temporary stays small. A finite row
    whose norm over- or underflows is first divided by its largest |entry|;
    a zero row stays zero, and a row with an infinite entry is copied as
    is."""
    step = max(1, _BLOCK // max(1, x.shape[1]))
    for start in range(0, x.shape[0], step):
        block, dest = x[start : start + step], out[start : start + step]
        norms = np.linalg.norm(block, axis=1)
        odd = np.flatnonzero((norms == 0.0) | (norms == np.inf))
        norms[odd] = 1.0
        np.divide(block, norms[:, None], out=dest)
        for i in odd:
            peak = np.max(np.abs(block[i]), initial=0.0)
            if 0.0 < peak < np.inf:
                np.divide(block[i], peak, out=dest[i])
                dest[i] /= np.linalg.norm(dest[i : i + 1], axis=1)[0]
    return out


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """A new float array of the 2-d array `x`'s rows scaled to unit
    length by `_normalize`, the one unit-row rule; `x` is left as it is. A
    zero row stays zero."""
    x = np.asarray(x, dtype=float)
    return _normalize(x, np.empty_like(x))


def _lines(path: Path):
    """(1-based line number, stripped text) of each nonblank line of the
    UTF-8 text file `path`, LF or CRLF."""
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if line:
            yield line_no, line


def _check_line(path: Path, line_no: int, values: list[float]) -> None:
    """ParseError naming the line for a NaN or infinite value, then for a
    line of zeros, which has no direction. A finite sum proves every value
    finite, so only a NaN, an inf or a sum beyond float64 needs the scan."""
    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        raise ParseError(path, line_no, "a NaN or infinite value")
    if not any(values):
        raise ParseError(path, line_no, "zero vector cannot be normalized")


def load_dense(path) -> Dataset:
    """Read a dense CSV dataset: one point per line, comma-separated values,
    with an optional ``category:subtopic:`` prefix fused onto the first field
    (e.g. ``0:3:0.12,0.5,...``). LF or CRLF, UTF-8. Each line is checked as
    it is read, so the first faulty line in file order raises ParseError;
    then the whole file's rows are scaled to unit norm at once, by the
    `normalize_rows` rule.
    """
    path = Path(path)
    rows = array("d")
    cats: list[int] = []
    subs: list[int] = []
    arity = None
    labeled = False
    for line_no, line in _lines(path):
        fields = line.split(",")
        cat = sub = MISSING
        if ":" in fields[0]:
            parts = fields[0].split(":")
            if len(parts) != 3:
                raise ParseError(path, line_no, f"expected 'category:subtopic:value' prefix, got {fields[0]!r}")
            try:
                cat, sub = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(path, line_no, f"non-integer label in prefix {fields[0]!r}") from None
            fields[0] = parts[2]
            labeled = True
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise ParseError(path, line_no, "non-numeric value") from None
        if arity is None:
            arity = len(values)
        elif len(values) != arity:
            raise ParseError(path, line_no, f"ragged row: {len(values)} values, expected {arity}")
        _check_line(path, line_no, values)
        rows.extend(values)
        cats.append(cat)
        subs.append(sub)
    vectors = np.frombuffer(rows).reshape(len(cats), arity or 0)
    return Dataset(
        vectors=_normalize(vectors, vectors),
        categories=np.array(cats, dtype=int) if labeled else None,
        subtopics=np.array(subs, dtype=int) if labeled else None,
    )


def save_dense(dataset: Dataset, path) -> None:
    """Inverse of load_dense; floats written with shortest-roundtrip repr."""
    lines = []
    for i in range(dataset.n):
        prefix = ""
        if dataset.categories is not None and dataset.categories[i] != MISSING:
            sub = dataset.subtopics[i] if dataset.subtopics is not None else MISSING
            prefix = f"{int(dataset.categories[i])}:{int(sub)}:"
        body = ",".join(repr(float(v)) for v in dataset.vectors[i])
        lines.append(prefix + body)
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def load_sparse(path, d: int) -> Dataset:
    """Read a LIBSVM-style multi-label file: ``lab1,lab2 idx:val idx:val ...``
    per line, feature indices 1-based in the file and stored 0-based.
    Indices must be strictly increasing and < d, and label ids >= 0. Each
    line is checked as it is read, so the first faulty line in file order
    raises ParseError. The rows fill a dense (n, d) float64 array, absent
    features 0, which is then scaled to unit rows in place by the
    `normalize_rows` rule.
    """
    if d <= 0:
        raise ValueError("dimension d must be positive")
    path = Path(path)
    rows: list[int] = []
    indices: list[int] = []
    values = array("d")
    label_sets: list[frozenset[int]] = []
    for line_no, line in _lines(path):
        tokens = line.split()
        start = 0
        labels: frozenset[int] = frozenset()
        if tokens and ":" not in tokens[0]:
            try:
                labels = frozenset(int(t) for t in tokens[0].split(","))
            except ValueError:
                raise ParseError(path, line_no, f"bad label field {tokens[0]!r}") from None
            if min(labels) < 0:
                raise ParseError(path, line_no, f"negative label id in {tokens[0]!r}")
            start = 1
        prev = -1
        row_idx: list[int] = []
        row_val: list[float] = []
        for tok in tokens[start:]:
            try:
                i_str, v_str = tok.split(":")
                idx = int(i_str) - 1  # 1-based in file
                val = float(v_str)
            except ValueError:
                raise ParseError(path, line_no, f"bad feature token {tok!r}") from None
            if not math.isfinite(val):
                raise ParseError(path, line_no, f"a NaN or infinite value in {tok!r}")
            if idx < 0 or idx >= d:
                raise ParseError(path, line_no, f"index out of range: {idx + 1} (d={d})")
            if idx <= prev:
                raise ParseError(path, line_no, f"indices must be strictly increasing, got {idx + 1} after {prev + 1}")
            prev = idx
            row_idx.append(idx)
            row_val.append(val)
        _check_line(path, line_no, row_val)
        rows.extend([len(label_sets)] * len(row_idx))
        indices.extend(row_idx)
        values.extend(row_val)
        label_sets.append(labels)
    vectors = np.zeros((len(label_sets), d))
    vectors[np.array(rows, dtype=np.intp), np.array(indices, dtype=np.intp)] = np.frombuffer(values)
    return Dataset(vectors=_normalize(vectors, vectors), label_sets=tuple(label_sets))


@dataclass(frozen=True)
class ToyConfig:
    """Two isotropic Gaussian clouds on the unit sphere, one per class."""

    n_per_class: int
    class_centers: tuple = ((1.0, 0.0), (-1.0, 0.0))
    spread: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.n_per_class < 0:
            raise ValueError("n_per_class must be >= 0")
        if not 0 < self.spread < math.inf:   # also refuses NaN
            raise ValueError(f"spread must be finite and > 0, got {self.spread}")
        centers = np.asarray(self.class_centers, dtype=float)
        if centers.shape[0] != 2:
            raise ValueError("exactly two class centers required")
        if np.allclose(centers[0], centers[1]):
            raise ValueError("class centers must be distinct")
        check_seed(self.seed)


def make_toy(config: ToyConfig) -> Dataset:
    """Pure function of its config: same seed, same bits out. Category is
    the class index (0/1); points are unit-normalized after sampling."""
    centers = np.asarray(config.class_centers, dtype=float)
    d = centers.shape[1]
    n = config.n_per_class
    rng = np.random.default_rng(config.seed)
    clouds = [centers[c] + config.spread * rng.standard_normal((n, d)) for c in range(2)]
    vectors = np.vstack(clouds)
    categories = np.repeat(np.arange(2), n)
    return Dataset(vectors=_normalize(vectors, vectors), categories=categories)
