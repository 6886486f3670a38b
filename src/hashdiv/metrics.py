"""Retrieval evaluation: precision@k, sub-topic recall, entropy diversity,
tree diversity over a BFS-pruned hierarchy, and the harmonic-mean scores.

Entropy sign convention: the normalized entropy -sum s_i ln s_i / ln m is
reported, so all diversity numbers land in [0, 1] (base of the logarithm
cancels). Pairwise diversity is the mean over unordered pairs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import MISSING, Dataset


@dataclass(frozen=True)
class HierarchyTree:
    """Tree obtained by BFS-pruning a category multigraph: each node keeps
    the parent first reached from the root. `excluded` lists nodes that were
    unreachable (cycles off the root, orphans)."""

    nodes: tuple[int, ...]
    parent: dict[int, int]
    root: int
    depth: dict[int, int]
    excluded: tuple[int, ...] = ()

    def top_level_ancestor(self, node: int) -> int:
        """Depth-1 ancestor (the node itself if it sits at depth 1)."""
        if node not in self.depth:
            raise ValueError(f"label {node} is not in the hierarchy tree")
        if self.depth[node] == 0:
            raise ValueError(f"label {node} is the root; no top-level ancestor")
        while self.depth[node] > 1:
            node = self.parent[node]
        return node

    @property
    def top_level_count(self) -> int:
        return sum(1 for n in self.nodes if self.depth[n] == 1)


def _as_membership(relevant):
    if callable(relevant):
        return relevant
    members = set(relevant)
    return members.__contains__


def precision_at_k(retrieved, relevant, k: int) -> float:
    """Fraction of the top-k retrieved ids satisfying the relevance
    predicate; the denominator stays k even when fewer were retrieved
    (underfill counts as misses)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    is_relevant = _as_membership(relevant)
    hits = sum(1 for i in list(retrieved)[:k] if is_relevant(i))
    return hits / k


def subtopic_recall(retrieved, dataset: Dataset, category: int, k: int) -> float:
    """Distinct subtopics of `category` covered by relevant items in the
    top-k, over the category's total subtopic count m."""
    m = dataset.subtopic_count_per_category.get(category)
    if m is None or m < 1:
        raise ValueError(f"unknown category {category} (no labeled subtopics)")
    covered = set()
    for i in list(retrieved)[:k]:
        if dataset.categories[i] == category and dataset.subtopics[i] != MISSING:
            covered.add(int(dataset.subtopics[i]))
    return len(covered) / m


def _normalized_entropy(counts: list[int], m: int) -> float:
    total = sum(counts)
    s = np.array([c / total for c in counts if c > 0], dtype=float)
    return float(-(s * np.log(s)).sum() / np.log(m))


def entropy_diversity(retrieved, dataset: Dataset, category: int) -> float:
    """Normalized entropy of the subtopic distribution of the retrieved
    items belonging to `category`. Needs m >= 2 subtopics and at least one
    labeled item among the retrieved."""
    m = dataset.subtopic_count_per_category.get(category)
    if m is None:
        raise ValueError(f"unknown category {category}")
    if m < 2:
        raise ValueError(f"entropy diversity undefined for m={m} subtopics")
    counter: Counter[int] = Counter()
    for i in retrieved:
        if dataset.categories[i] == category and dataset.subtopics[i] != MISSING:
            counter[int(dataset.subtopics[i])] += 1
    if not counter:
        raise ValueError("no retrieved item carries a subtopic label")
    return _normalized_entropy(list(counter.values()), m)


def mean_pairwise_distance(vectors) -> float:
    """Mean squared distance over unordered pairs; 0 for fewer than two
    points. This is the set-diversity measure used when no subtopic labels
    exist (toy data); for unit vectors it lies in [0, 4]."""
    x = np.atleast_2d(np.asarray(vectors, dtype=float))
    n = x.shape[0]
    if n < 2:
        return 0.0
    sq = np.einsum("ij,ij->i", x, x)
    total = float(np.sum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)))
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
    parent id. Unreachable nodes are excluded and reported."""
    children: dict[int, list[int]] = {}
    mentioned = {int(root)}
    for child, parent in edges:
        children.setdefault(int(parent), []).append(int(child))
        mentioned.add(int(child))
        mentioned.add(int(parent))
    parent_of: dict[int, int] = {}
    depth = {int(root): 0}
    level = [int(root)]
    while level:
        next_level: list[int] = []
        for u in sorted(level):
            for c in sorted(children.get(u, ())):
                if c not in depth:
                    parent_of[c] = u
                    depth[c] = depth[u] + 1
                    next_level.append(c)
        level = next_level
    nodes = tuple(sorted(depth))
    excluded = tuple(sorted(mentioned - set(nodes)))
    return HierarchyTree(nodes=nodes, parent=parent_of, root=int(root), depth=depth, excluded=excluded)


def load_hierarchy(path):
    """Edge list file: one 'child parent' pair of integer ids per line."""
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                child, parent = map(int, line.split())
            except ValueError:
                raise ValueError(f"{path}:{line_no}: expected 'child parent' integer ids, got {line!r}") from None
            edges.append((child, parent))
    return edges
