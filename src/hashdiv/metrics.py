"""Retrieval evaluation: precision@k, sub-topic recall, entropy diversity,
tree diversity over a BFS-pruned hierarchy, and the harmonic-mean scores.

Entropy sign convention: the normalized entropy -sum s_i ln s_i / ln m is
reported, so all diversity numbers land in [0, 1] (base of the logarithm
cancels). Pairwise diversity is the mean over unordered pairs.

Entropy diversity is 0.0 when no retrieved on-topic item carries a
subtopic label. A hierarchy has exactly one root, the one parent that is
never a child; `load_hierarchy` resolves each label's depth-1 ancestor
once, by BFS from it, so tree diversity walks nothing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import MISSING, Dataset, ParseError, _lines


@dataclass(frozen=True)
class HierarchyTree:
    """Tree obtained by BFS-pruning a category multigraph: each non-root
    node keeps the parent first reached from the root and its depth-1
    ancestor `top`. `excluded` lists the nodes mentioned but not reached."""

    parent: dict[int, int]
    root: int
    top: dict[int, int]
    top_level_count: int
    excluded: tuple[int, ...] = ()

    def top_level_ancestor(self, node: int) -> int:
        """Depth-1 ancestor (the node itself if it sits at depth 1)."""
        top = self.top.get(node)
        if top is None:
            if node == self.root:
                raise ValueError(f"label {node} is the root; no top-level ancestor")
            raise ValueError(f"label {node} is not in the hierarchy tree")
        return top


def precision_at_k(retrieved, relevant, k: int) -> float:
    """Fraction of the top-k retrieved ids i for which the predicate
    `relevant(i)` holds; the denominator stays k even when fewer were retrieved
    (underfill counts as misses)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    hits = sum(1 for i in list(retrieved)[:k] if relevant(i))
    return hits / k


def _subtopics(retrieved, dataset: Dataset, category: int) -> Counter[int]:
    """How many of the retrieved items that belong to `category` carry
    each subtopic label, in order of first appearance; items with no
    subtopic label are left out."""
    counter: Counter[int] = Counter()
    for i in retrieved:
        if dataset.categories[i] == category and dataset.subtopics[i] != MISSING:
            counter[int(dataset.subtopics[i])] += 1
    return counter


def subtopic_recall(retrieved, dataset: Dataset, category: int, k: int) -> float:
    """Distinct subtopics of `category` covered by relevant items in the
    top-k, over the category's total subtopic count m."""
    m = dataset.subtopic_count_per_category.get(category)
    if m is None or m < 1:
        raise ValueError(f"unknown category {category} (no labeled subtopics)")
    return len(_subtopics(list(retrieved)[:k], dataset, category)) / m


def _normalized_entropy(counts: list[int], m: int) -> float:
    total = sum(counts)
    s = np.array([c / total for c in counts if c > 0], dtype=float)
    return float(-(s * np.log(s)).sum() / np.log(m))


def entropy_diversity(retrieved, dataset: Dataset, category: int) -> float:
    """Normalized entropy of the subtopic distribution of the retrieved
    items belonging to `category`, 0.0 when none of them carries a
    subtopic label. Needs m >= 2 subtopics."""
    m = dataset.subtopic_count_per_category.get(category)
    if m is None:
        raise ValueError(f"unknown category {category}")
    if m < 2:
        raise ValueError(f"entropy diversity undefined for m={m} subtopics")
    counter = _subtopics(retrieved, dataset, category)
    return _normalized_entropy(list(counter.values()), m) if counter else 0.0


def mean_pairwise_distance(vectors) -> float:
    """Mean squared distance over unordered pairs; 0 for fewer than two
    points. This is the set-diversity measure used when no subtopic labels
    exist (toy data); for unit vectors it lies in [0, 4] up to rounding.
    The Gram-matrix sum can round below 0 on twin rows, so it is clamped
    at 0."""
    x = np.atleast_2d(np.asarray(vectors, dtype=float))
    n = x.shape[0]
    if n < 2:
        return 0.0
    sq = np.einsum("ij,ij->i", x, x)
    total = max(0.0, float(np.sum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T))))
    return total / (n * (n - 1))


def tree_diversity(predicted_labels, tree: HierarchyTree) -> float:
    """Normalized entropy of the predicted labels' distribution over the
    tree's top-level categories. Stand-in for a full hierarchy-rank
    diversity score; swap this op to change the measure."""
    labels = list(predicted_labels)
    if not labels:
        raise ValueError("no predicted labels")
    m = tree.top_level_count
    if m < 2:
        raise ValueError(f"tree diversity undefined with {m} top-level categories")
    counter = Counter(tree.top_level_ancestor(lab) for lab in labels)
    return _normalized_entropy(list(counter.values()), m)


def h_score(acc: float, div: float) -> float:
    """Harmonic mean of accuracy and diversity; 0 when both are 0."""
    if not (0.0 <= acc <= 1.0 and 0.0 <= div <= 1.0):
        raise ValueError("h_score arguments must lie in [0, 1]")
    if acc + div == 0.0:
        return 0.0
    return 2.0 * acc * div / (acc + div)


def f_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall."""
    return h_score(precision, recall)


def bfs_prune(edges, root: int) -> HierarchyTree:
    """Turn a (child, parent) multi-edge list into a tree: each node keeps
    the parent first reached by BFS from the root, ties broken by ascending
    parent id. Unreachable nodes (cycles off the root, orphans) are excluded."""
    root = int(root)
    children: dict[int, list[int]] = {}
    mentioned = {root}
    for child, parent in edges:
        children.setdefault(int(parent), []).append(int(child))
        mentioned.add(int(child))
        mentioned.add(int(parent))
    parent_of: dict[int, int] = {}
    top: dict[int, int] = {}
    level = [root]
    while level:
        next_level: list[int] = []
        for u in sorted(level):
            for c in sorted(children.get(u, ())):
                if c != root and c not in top:
                    parent_of[c] = u
                    top[c] = c if u == root else top[u]
                    next_level.append(c)
        level = next_level
    excluded = tuple(sorted(mentioned - top.keys() - {root}))
    return HierarchyTree(parent=parent_of, root=root, top=top, top_level_count=len(set(top.values())), excluded=excluded)


def hierarchy_refusal(path, cause) -> ValueError:
    """The error that refuses a hierarchy file, naming it: `hierarchy <path>: <cause>`."""
    return ValueError(f"hierarchy {path}: {cause}")


def load_hierarchy(path) -> HierarchyTree:
    """`bfs_prune` of an edge list file from its one root: one 'child parent'
    pair of integer ids per nonblank line, read as `data.load_dense` reads
    its lines. A faulty line raises ParseError, naming the file and line,
    and a file without exactly one root the `hierarchy_refusal`."""
    path = Path(path)
    edges = []
    for line_no, line in _lines(path):
        try:
            child, parent = map(int, line.split())
        except ValueError:
            raise ParseError(path, line_no, f"expected 'child parent' integer ids, got {line!r}") from None
        edges.append((child, parent))
    roots = sorted({p for _, p in edges} - {c for c, _ in edges})
    if len(roots) != 1:
        raise hierarchy_refusal(path, f"must have exactly one root, found {roots}")
    return bfs_prune(edges, roots[0])
