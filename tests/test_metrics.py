import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashdiv.data import MISSING, Dataset, ParseError, normalize_rows
from hashdiv.metrics import (
    bfs_prune,
    entropy_diversity,
    f_score,
    h_score,
    load_hierarchy,
    mean_pairwise_distance,
    precision_at_k,
    subtopic_recall,
    tree_diversity,
)


def labeled_dataset(categories, subtopics):
    n = len(categories)
    vectors = np.eye(max(n, 2))[:n]
    return Dataset(vectors=vectors, categories=np.array(categories), subtopics=np.array(subtopics))


class TestPrecision:
    def test_all_relevant(self):
        assert precision_at_k([1, 2, 3], {1, 2, 3}.__contains__, 3) == 1.0

    def test_none_relevant(self):
        assert precision_at_k([1, 2, 3], set().__contains__, 3) == 0.0

    def test_partial(self):
        retrieved = list(range(10))
        assert precision_at_k(retrieved, set(range(7)).__contains__, 10) == 0.7

    def test_underfill_counts_as_miss(self):
        assert precision_at_k([1], {1}.__contains__, 4) == 0.25

    def test_k_below_one_refused(self):
        with pytest.raises(ValueError, match="^k must be >= 1$"):
            precision_at_k([1], {1}.__contains__, 0)

    def test_callable_predicate(self):
        assert precision_at_k([2, 4, 5], lambda i: i % 2 == 0, 3) == pytest.approx(2 / 3)


class TestSubtopicRecall:
    def setup_method(self):
        self.ds = labeled_dataset(
            categories=[0, 0, 0, 0, 0, 1],
            subtopics=[0, 1, 2, 3, 4, 0],
        )

    def test_full_coverage(self):
        assert subtopic_recall([0, 1, 2, 3, 4], self.ds, 0, 5) == 1.0

    def test_single_subtopic(self):
        assert subtopic_recall([0, 0, 0], self.ds, 0, 3) == pytest.approx(1 / 5)

    def test_two_of_five(self):
        assert subtopic_recall([1, 3], self.ds, 0, 2) == pytest.approx(0.4)

    def test_unknown_category(self):
        with pytest.raises(ValueError, match="unknown category"):
            subtopic_recall([0], self.ds, 42, 1)

    def test_other_category_items_ignored(self):
        assert subtopic_recall([5, 0], self.ds, 0, 2) == pytest.approx(0.2)


class TestEntropyDiversity:
    def setup_method(self):
        self.ds = labeled_dataset(
            categories=[0] * 8,
            subtopics=[0, 0, 1, 1, 2, 2, 3, 3],
        )

    def test_single_subtopic_zero(self):
        assert entropy_diversity([0, 1], self.ds, 0) == 0.0

    def test_uniform_is_one(self):
        assert entropy_diversity([0, 2, 4, 6], self.ds, 0) == pytest.approx(1.0)

    def test_half_half_of_four(self):
        # fractions (1/2, 1/2) with m = 4: ln 2 / ln 4 = 0.5
        assert entropy_diversity([0, 1, 2, 3], self.ds, 0) == pytest.approx(0.5)

    def test_m_below_two_rejected(self):
        ds = labeled_dataset(categories=[0, 0], subtopics=[0, 0])
        with pytest.raises(ValueError, match="m="):
            entropy_diversity([0, 1], ds, 0)
        with pytest.raises(ValueError, match="^unknown category 42$"):
            entropy_diversity([0, 1], self.ds, 42)

    def test_no_labeled_items_score_zero(self):
        assert entropy_diversity([], self.ds, 0) == 0.0

    def test_on_topic_picks_without_a_subtopic_label_score_zero(self):
        # item 2 is on topic but unlabeled, item 3 labeled but off topic
        ds = labeled_dataset(categories=[0, 0, 0, 1], subtopics=[0, 1, MISSING, 2])
        assert entropy_diversity([2, 3], ds, 0) == 0.0
        assert entropy_diversity([2, 3, 0, 1], ds, 0) == pytest.approx(1.0)

    def test_permutation_invariant(self):
        a = entropy_diversity([0, 2, 3, 6], self.ds, 0)
        b = entropy_diversity([6, 3, 0, 2], self.ds, 0)
        assert a == b


class TestHScore:
    def test_equal_args(self):
        for v in (0.0, 0.25, 1.0):
            assert h_score(v, v) == pytest.approx(v)

    def test_one_zero(self):
        assert h_score(1.0, 0.0) == 0.0

    def test_two_decimal_rounding(self):
        assert h_score(0.93, 0.86) == pytest.approx(0.894, abs=5e-4)
        assert round(h_score(0.93, 0.86), 2) == 0.89

    def test_symmetry(self):
        assert h_score(0.3, 0.9) == h_score(0.9, 0.3)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            h_score(1.2, 0.5)

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_in_range_and_bounded_by_min(self, a, d):
        h = h_score(a, d)
        assert 0.0 <= h <= 1.0
        assert h <= max(a, d) + 1e-12


class TestFScore:
    def test_equal(self):
        assert f_score(0.4, 0.4) == pytest.approx(0.4)

    def test_zero_recall(self):
        assert f_score(1.0, 0.0) == 0.0

    def test_half_quarter(self):
        assert f_score(0.5, 0.25) == pytest.approx(1 / 3)


class TestMeanPairwiseDistance:
    def test_fewer_than_two(self):
        assert mean_pairwise_distance(np.ones((1, 3))) == 0.0

    def test_antipodal_pair(self):
        assert mean_pairwise_distance(np.array([[1.0, 0.0], [-1.0, 0.0]])) == pytest.approx(4.0)

    def test_twin_rows_never_read_negative(self):
        # the Gram-matrix sum of a unit row and its twin can round below 0
        rng = np.random.default_rng(0)
        for d in range(2, 60):
            v = normalize_rows(rng.standard_normal((1, d)))
            assert mean_pairwise_distance(np.vstack([v, v])) >= 0.0

    def test_matches_double_loop(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((7, 3))
        ref = np.mean([np.sum((a - b) ** 2) for i, a in enumerate(pts) for j, b in enumerate(pts) if i != j])
        assert mean_pairwise_distance(pts) == pytest.approx(ref)


def reference_prune(edges, root):
    """bfs_prune as it was before the tree kept its depth-1 map: BFS
    depths and first-reached parents (ascending ids), then `excluded` as
    the mentioned nodes without a depth."""
    children, mentioned = {}, {root}
    for child, parent in edges:
        children.setdefault(parent, []).append(child)
        mentioned |= {child, parent}
    parent_of, depth, level = {}, {root: 0}, [root]
    while level:
        next_level = []
        for u in sorted(level):
            for c in sorted(children.get(u, ())):
                if c not in depth:
                    parent_of[c], depth[c] = u, depth[u] + 1
                    next_level.append(c)
        level = next_level
    return parent_of, depth, tuple(sorted(mentioned - set(depth)))


def reference_top_level_ancestor(parent_of, depth, node):
    """Walk `parent` up to a root child, as the tree once did per call."""
    if node not in depth:
        raise ValueError(f"label {node} is not in the hierarchy tree")
    if depth[node] == 0:
        raise ValueError(f"label {node} is the root; no top-level ancestor")
    while depth[node] > 1:
        node = parent_of[node]
    return node


def reference_tree_diversity(labels, parent_of, depth):
    """Normalized entropy over the depth-1 nodes, counted afresh."""
    m = sum(1 for v in depth.values() if v == 1)
    if not labels:
        raise ValueError("no predicted labels")
    if m < 2:
        raise ValueError(f"tree diversity undefined with {m} top-level categories")
    counts = {}
    for lab in labels:
        top = reference_top_level_ancestor(parent_of, depth, lab)
        counts[top] = counts.get(top, 0) + 1
    s = np.array(list(counts.values()), dtype=float) / len(labels)
    return float(-(s * np.log(s)).sum() / np.log(m))


def outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"error: {exc}"


# (child, parent) multigraphs over a few ids: repeated parents, cycles off
# the root 0 and orphans all come up
multigraphs = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=40)


class TestBfsPrune:
    def test_tree_unchanged(self):
        edges = [(1, 0), (2, 0), (3, 1)]
        tree = bfs_prune(edges, 0)
        assert tree.parent == {1: 0, 2: 0, 3: 1}
        assert tree.top == {1: 1, 2: 2, 3: 1}
        assert tree.top_level_count == 2
        assert tree.excluded == ()

    def test_diamond_keeps_bfs_first_parent(self):
        # 3 has parents 1 and 2, both at depth 1; ascending tie-break keeps 1
        edges = [(1, 0), (2, 0), (3, 1), (3, 2)]
        tree = bfs_prune(edges, 0)
        assert tree.parent[3] == 1

    def test_cycle_excluded_with_warning(self):
        edges = [(1, 0), (5, 4), (4, 5)]
        tree = bfs_prune(edges, 0)
        assert tree.excluded == (4, 5)
        assert 4 not in tree.top and 4 not in tree.parent
        with pytest.raises(ValueError, match="label 4 is not in the hierarchy tree"):
            tree.top_level_ancestor(4)

    def test_edge_count_and_acyclicity(self):
        rng = np.random.default_rng(2)
        edges = [(int(c), int(rng.integers(0, c))) for c in range(1, 40) for _ in range(2)]
        tree = bfs_prune(edges, 0)
        assert tree.parent.keys() == tree.top.keys()
        for start in tree.parent:
            node, seen = start, set()
            while tree.parent[node] != tree.root:
                assert node not in seen
                seen.add(node)
                node = tree.parent[node]
            assert tree.top[start] == node

    @given(multigraphs, st.lists(st.integers(0, 13), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_walking_reference(self, edges, labels):
        tree = bfs_prune(edges, 0)
        parent_of, depth, excluded = reference_prune(edges, 0)
        assert (tree.parent, tree.root, tree.excluded) == (parent_of, 0, excluded)
        assert tree.top_level_count == sum(1 for v in depth.values() if v == 1)
        for node in range(14):
            assert outcome(tree.top_level_ancestor, node) == outcome(reference_top_level_ancestor, parent_of, depth, node)
        got = outcome(tree_diversity, labels, tree)
        want = outcome(reference_tree_diversity, labels, parent_of, depth)
        assert got == (pytest.approx(want, abs=1e-15) if isinstance(want, float) else want)

    def test_load_hierarchy(self, tmp_path):
        p = tmp_path / "h.txt"
        p.write_text("1 0\n2 0\n3 1\n")
        tree = load_hierarchy(p)
        assert (tree.root, tree.parent, tree.top) == (0, {1: 0, 2: 0, 3: 1}, {1: 1, 2: 2, 3: 1})

    @pytest.mark.parametrize("text, found", [
        ("1 0\n2 5\n", "[0, 5]"),  # two roots
        ("1 0\n0 1\n2 1\n", "[]"),  # the only candidate root, 0, lies on a cycle
        ("\n", "[]"),
    ])
    def test_load_hierarchy_needs_exactly_one_root(self, tmp_path, text, found):
        p = tmp_path / "h.txt"
        p.write_text(text)
        with pytest.raises(ValueError, match=f"^hierarchy {re.escape(str(p))}: must have exactly one root, found {re.escape(found)}$"):
            load_hierarchy(p)

    @pytest.mark.parametrize("text, line", [("1 0\nx 0\n", 2), ("1 0\n\n2 0.5\n", 3), ("1 0\n3\n", 2), ("1 0 2\n", 1)])
    def test_load_hierarchy_bad_line_is_named(self, tmp_path, text, line):
        p = tmp_path / "h.txt"
        p.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:{line}: expected 'child parent' integer ids"):
            load_hierarchy(p)

    def test_load_hierarchy_reads_lines_as_the_data_readers_do(self, tmp_path):
        # CRLF and blank lines as load_dense takes them; a bad line is a
        # ParseError that carries its line number
        p = tmp_path / "h.txt"
        p.write_text("1 0\r\n\r\n  2 0  \r\n", newline="")
        assert load_hierarchy(p).parent == {1: 0, 2: 0}
        p.write_text("1 0\r\n\r\n2 x\r\n", newline="")
        with pytest.raises(ParseError) as info:
            load_hierarchy(p)
        assert (info.value.path, info.value.line_no) == (str(p), 3)

    def test_load_hierarchy_reads_a_byte_order_mark(self, tmp_path):
        p = tmp_path / "h.txt"
        p.write_text("1 0\n2 0\n", encoding="utf-8-sig")
        assert load_hierarchy(p).parent == {1: 0, 2: 0}
        p.write_text("1 0\n\n2 x\n", encoding="utf-8-sig")
        with pytest.raises(ParseError) as info:
            load_hierarchy(p)
        assert (info.value.path, info.value.line_no) == (str(p), 3)


class TestTreeDiversity:
    def setup_method(self):
        # root 0; top-level 1..4; leaves 10+ under them
        edges = [(c, 0) for c in (1, 2, 3, 4)]
        edges += [(10, 1), (11, 1), (20, 2), (30, 3), (40, 4)]
        self.tree = bfs_prune(edges, 0)

    def test_single_branch_zero(self):
        assert tree_diversity([10, 11, 1], self.tree) == 0.0

    def test_uniform_top_level_one(self):
        assert tree_diversity([10, 20, 30, 40], self.tree) == pytest.approx(1.0)

    def test_two_of_four_split(self):
        assert tree_diversity([10, 11, 20, 20], self.tree) == pytest.approx(0.5)

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="not in the hierarchy"):
            tree_diversity([99], self.tree)

    def test_root_label(self):
        with pytest.raises(ValueError, match="is the root"):
            tree_diversity([10, 0], self.tree)
