import itertools
import random

import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _acyclic_brute, copied_coordinates, subtree
from graphtail.errors import InputError, KindError, ScaleError
from graphtail.graph import (
    MAX_VERTICES,
    block_partition,
    build_graph,
    classify,
    components_within,
    edges_within,
    graph_from_json_dict,
    is_acyclic_subset,
    m_dependence_graph,
    parse_edge_list,
    rooted_order,
)


class TestBuildGraph:
    def test_complete_triangle(self):
        g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
        assert g.edges == ((1, 2), (1, 3), (2, 3))

    def test_empty(self):
        assert build_graph(3, []).edges == ()

    def test_duplicate_and_orientation_collapse(self):
        g = build_graph(3, [(1, 2), (2, 1)])
        assert g.edges == ((1, 2),)

    def test_self_loop_rejected(self):
        with pytest.raises(InputError, match=r"\(2, 2\)"):
            build_graph(3, [(2, 2)])

    def test_out_of_range_names_pair(self):
        with pytest.raises(InputError, match=r"\(1, 4\)"):
            build_graph(3, [(1, 4)])

    def test_vertex_count_is_capped(self):
        assert build_graph(MAX_VERTICES, []).n == MAX_VERTICES
        with pytest.raises(ScaleError, match=f"cap of {MAX_VERTICES}"):
            build_graph(MAX_VERTICES + 1, [])


class TestClassify:
    def test_edgeless_is_forest_of_singletons(self):
        cls = classify(build_graph(3, []))
        assert cls.is_forest and cls.tree_count == 3
        assert cls.components == (frozenset({1}), frozenset({2}), frozenset({3}))

    def test_path_is_single_tree(self):
        cls = classify(build_graph(3, [(1, 2), (2, 3)]))
        assert cls.is_forest and cls.tree_count == 1

    def test_triangle_is_not_forest(self):
        cls = classify(build_graph(3, [(1, 2), (2, 3), (1, 3)]))
        assert not cls.is_forest and cls.tree_count is None

    def test_mixed_components(self):
        g = build_graph(5, [(1, 2), (2, 3), (1, 3), (4, 5)])
        cls = classify(g)
        assert not cls.is_forest
        assert cls.components == (frozenset({1, 2, 3}), frozenset({4, 5}))

    def test_large_edgeless_graph_takes_one_scan(self):
        # a min() over the unvisited vertices per component would take ~n^2/2 steps
        n = 100_000
        cls = classify(build_graph(n, []))
        assert cls.is_forest and cls.tree_count == n
        assert cls.components[0] == frozenset({1}) and cls.components[-1] == frozenset({n})


class TestRootedOrder:
    def test_path_uniform_coefficients(self):
        g = build_graph(3, [(1, 2), (2, 3)])
        tree = rooted_order(g, [Fraction(1)] * 3)
        assert tree.root == 1  # tie broken to the smallest label
        assert tree.order[-1] == tree.root
        # whole tree is the root's subtree
        assert subtree(tree, tree.size) == {1, 2, 3}

    def test_star_unique_minimum_becomes_root(self):
        g = build_graph(3, [(1, 2), (1, 3)])
        tree = rooted_order(g, [Fraction(5), Fraction(1), Fraction(2)])
        assert tree.root == 2

    def test_single_vertex(self):
        g = build_graph(1, [])
        tree = rooted_order(g, [Fraction(3)])
        assert tree.order == (1,)
        assert tree.parent == (0,)

    def test_descendants_precede_ancestors(self):
        g = build_graph(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
        tree = rooted_order(g, [Fraction(1)] * 5)
        for i in range(1, tree.size + 1):
            for j in subtree(tree, i):
                assert j <= i

    def test_fringe_neighborhood_is_fringe_plus_parent(self):
        # the closed neighborhood of every proper subtree adds exactly the parent
        g = build_graph(6, [(1, 2), (2, 3), (3, 4), (2, 5), (5, 6)])
        tree = rooted_order(g, [Fraction(1)] * 6)
        relabeled_edges = {(tree.order.index(u) + 1, tree.order.index(v) + 1) for u, v in g.edges}
        relabeled_edges |= {(b, a) for a, b in relabeled_edges}
        for i in range(1, tree.size):
            fr = subtree(tree, i)
            closed = set(fr)
            for a in fr:
                closed |= {b for (x, b) in relabeled_edges if x == a}
            assert closed == fr | {tree.parent[i - 1]}
            # the copied coordinates never touch the fringe or its neighborhood
            assert not (copied_coordinates(tree, i) & closed)

    def test_non_tree_rejected(self):
        g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
        with pytest.raises(KindError):
            rooted_order(g, [Fraction(1)] * 3)

    def test_disconnected_subset_with_tree_edge_count_rejected(self):
        # a triangle plus an isolated vertex: 3 edges on 4 vertices, but no tree
        g = build_graph(4, [(1, 2), (2, 3), (1, 3)])
        with pytest.raises(KindError):
            rooted_order(g, [Fraction(1)] * 4)


class TestMDependenceGraph:
    def test_gap_one_is_path(self):
        g = m_dependence_graph(4, 1)
        assert g.edges == ((1, 2), (2, 3), (3, 4))

    def test_large_gap_is_complete(self):
        g = m_dependence_graph(4, 3)
        assert len(g.edges) == 6

    def test_n5_m2_matches_definition(self):
        # independent oracle: direct evaluation of |i - j| <= 2
        expected = tuple(
            sorted((i, j) for i in range(1, 6) for j in range(i + 1, 6) if j - i <= 2)
        )
        assert m_dependence_graph(5, 2).edges == expected

    def test_bad_gap(self):
        with pytest.raises(InputError):
            m_dependence_graph(4, 0)

    @given(st.integers(min_value=2, max_value=40))
    @settings(max_examples=25, deadline=None)
    def test_gap_one_always_classifies_as_path(self, n):
        cls = classify(m_dependence_graph(n, 1))
        assert cls.is_forest and cls.tree_count == 1
        assert len(m_dependence_graph(n, 1).edges) == n - 1


class TestBlockPartition:
    def test_remainder_block(self):
        assert block_partition(7, 3).blocks == ((1, 2, 3), (4, 5, 6), (7,))

    def test_divisible_has_no_empty_block(self):
        assert block_partition(9, 3).blocks == ((1, 2, 3), (4, 5, 6), (7, 8, 9))

    def test_single_short_block(self):
        assert block_partition(3, 5).blocks == ((1, 2, 3),)

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_blocks_partition_consecutively(self, n, m):
        part = block_partition(n, m)
        flat = [v for blk in part.blocks for v in blk]
        assert flat == list(range(1, n + 1))
        assert len(part.blocks) == -(-n // m)
        assert all(len(blk) == m for blk in part.blocks[:-1])


class TestInducedSubgraph:
    """The induced subgraph on a subset, in original labels: its edges and components."""

    def test_triangle_pair(self):
        g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
        assert edges_within(g, {1, 2}) == [(1, 2)]
        assert components_within(g, {1, 2}) == [frozenset({1, 2})]

    def test_empty_subset(self):
        g = build_graph(3, [(1, 2)])
        assert edges_within(g, set()) == [] and components_within(g, set()) == []

    def test_path_endpoints_isolated(self):
        g = build_graph(3, [(1, 2), (2, 3)])
        assert edges_within(g, {1, 3}) == []
        assert components_within(g, {1, 3}) == [frozenset({1}), frozenset({3})]

    def test_full_subset_is_identity(self):
        g = build_graph(4, [(1, 2), (3, 4), (2, 3)])
        assert edges_within(g, set(g.vertices)) == list(g.edges)
        assert components_within(g, g.vertices) == [frozenset(g.vertices)]

    @pytest.mark.parametrize("seed", range(6))
    def test_forest_test_matches_the_brute_oracle_on_every_subset(self, seed):
        rng = random.Random(seed)
        for n in range(1, 9):
            density = rng.choice((0.2, 0.4, 0.7))
            pairs = itertools.combinations(range(1, n + 1), 2)
            g = build_graph(n, [e for e in pairs if rng.random() < density])
            for r in range(n + 1):
                for combo in itertools.combinations(g.vertices, r):
                    assert is_acyclic_subset(g, set(combo)) == _acyclic_brute(g, set(combo)), combo


class TestFormats:
    def test_json_round_trip(self):
        g = build_graph(4, [(1, 2), (3, 4)])
        assert graph_from_json_dict({"n": 4, "edges": [[1, 2], [3, 4]]}) == g

    def test_edge_list(self):
        g = parse_edge_list("3\n1 2\n2 3\n")
        assert g.edges == ((1, 2), (2, 3))

    def test_edge_list_rejects_garbage(self):
        with pytest.raises(InputError):
            parse_edge_list("3\n1 2 3\n")

    def test_zero_vertices_rejected_at_parse(self):
        with pytest.raises(InputError):
            parse_edge_list("0\n")
        with pytest.raises(InputError):
            graph_from_json_dict({"n": 0, "edges": []})


_PATH3 = [(1, 2), (2, 3)]


class TestArgumentRules:
    """Each rule has one message, whichever entry point refuses."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: build_graph(-1, []), "need vertex count >= 1, got -1"),
            (lambda: build_graph(0, []), "need vertex count >= 1, got 0"),
            (lambda: graph_from_json_dict({"n": 0, "edges": []}), "need vertex count >= 1, got 0"),
            (lambda: parse_edge_list("0\n"), "need vertex count >= 1, got 0"),
            (lambda: m_dependence_graph(0, 1), "need vertex count >= 1, got 0"),
            (lambda: m_dependence_graph(4, 0), "need gap m >= 1, got 0"),
            (lambda: block_partition(0, 1), "need n >= 1, got 0"),
            (lambda: block_partition(4, 0), "need block size m >= 1, got 0"),
            (lambda: rooted_order(build_graph(3, _PATH3), [1, 1]), "profile has 2 coefficients for 3 vertices"),
            (lambda: rooted_order(build_graph(3, _PATH3), [1] * 4), "profile has 4 coefficients for 3 vertices"),
        ],
        ids=["negative-vertex-count", "no-vertex", "json-no-vertex", "edge-list-no-vertex",
             "m-dependence-no-vertex", "m-dependence-gap-0", "blocks-no-vertex", "block-size-0",
             "short-profile", "long-profile"],
    )
    def test_each_rule_refuses_with_its_one_message(self, call, message):
        with pytest.raises(InputError) as exc:
            call()
        assert str(exc.value) == message

    def test_a_graph_that_is_not_one_tree_has_no_rooted_order(self):
        for g in (build_graph(3, [(1, 2)]), build_graph(3, [(1, 2), (2, 3), (1, 3)])):
            with pytest.raises(KindError, match="is not a tree"):
                rooted_order(g, [1, 1, 1])
