"""Graph representation: construction, complementation, degree bookkeeping."""

import pytest
from hypothesis import given, strategies as st

from subcomp.families import complete, cycle, empty_graph, path, star
from subcomp.graph import Graph, mask_of, members_of

from conftest import graphs, graphs_with_subset, graphs_with_vertex


def test_mask_roundtrip():
    assert mask_of([0, 3, 7]) == 0b10001001
    assert members_of(0b10001001) == (0, 3, 7)
    assert members_of(0) == ()
    assert mask_of([]) == 0


class TestConstruction:
    def test_path(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.m == 2
        assert g.edges() == [(0, 1), (1, 2)]

    def test_edgeless(self):
        g = Graph(4, [])
        assert g.n == 4
        assert g.m == 0
        assert g.edges() == []

    def test_dedup_and_normalize(self):
        g = Graph(3, [(0, 1), (1, 0)])
        assert g.m == 1
        assert g.edges() == [(0, 1)]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match=r"\(2, 2\)"):
            Graph(3, [(2, 2)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\(0, 3\)"):
            Graph(3, [(0, 3)])

    def test_n_zero_legal(self):
        g = Graph(0, [])
        assert g.edges() == []
        assert g.degrees() == ()
        assert g.max_degree() == 0
        assert g.min_degree() == 0
        assert g.components_within(()) == []

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 0)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Graph(3, [(0, 2)])
        assert a != Graph(4, [(0, 1)])


class TestSubgraphComplement:
    def test_path_whole(self):
        g = path(3).subgraph_complement([0, 1, 2])
        assert g.edges() == [(0, 2)]

    def test_empty_set_is_identity(self):
        g = cycle(5)
        assert g.subgraph_complement([]) == g

    def test_complete_whole_gives_edgeless(self):
        g = complete(5).subgraph_complement(range(5))
        assert g.m == 0

    def test_out_of_range_member(self):
        with pytest.raises(ValueError):
            path(3).subgraph_complement([0, 5])

    @given(graphs_with_subset())
    def test_involution(self, gs):
        g, s = gs
        assert g.subgraph_complement(s).subgraph_complement(s) == g

    @given(graphs_with_subset())
    def test_locality_outside_s(self, gs):
        g, s = gs
        h = g.subgraph_complement(s)
        smask = mask_of(s)
        for v in range(g.n):
            if smask >> v & 1:
                continue
            # only pairs with both ends in S flip, so v's row is untouched
            assert g.neighbor_mask(v) == h.neighbor_mask(v)

    @given(graphs_with_subset())
    def test_edge_count_formula(self, gs):
        g, s = gs
        smask = mask_of(s)
        e_inside = sum(
            1 for u, v in g.edges() if smask >> u & 1 and smask >> v & 1
        )
        size = len(s)
        expected = g.m - e_inside + (size * (size - 1) // 2 - e_inside)
        assert g.subgraph_complement(s).m == expected

    @given(graphs_with_subset())
    def test_complement_commutes(self, gs):
        g, s = gs
        left = g.subgraph_complement(s).complement()
        right = g.complement().subgraph_complement(s)
        assert left == right


class TestDegreeAfterComplement:
    def test_star_center_isolated(self):
        g = star(3)
        s = g.closed_neighborhood(0)
        assert s == (0, 1, 2, 3)
        assert g.degree_after_complement(s, 0) == 0

    def test_outside_s_unchanged(self):
        g = cycle(6)
        for v in (3, 4, 5):
            assert g.degree_after_complement([0, 1, 2], v) == g.degree(v)

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            path(3).degree_after_complement([0, 1], 3)

    @given(graphs_with_subset())
    def test_matches_materialized(self, gs):
        g, s = gs
        h = g.subgraph_complement(s)
        for v in range(g.n):
            assert g.degree_after_complement(s, v) == h.degree(v)
        assert g.degrees_after_complement(s) == h.degrees()

    @given(graphs_with_subset())
    def test_lower_bound_inside_s(self, gs):
        g, s = gs
        size = len(s)
        for v in s:
            d = g.degree(v)
            bound = max(size - d - 1, d - (size - 1))
            assert g.degree_after_complement(s, v) >= bound


class TestBall:
    def test_radius_zero(self):
        assert cycle(5).ball(2, 0) == (2,)

    def test_cycle_radius_two(self):
        assert cycle(6).ball(0, 2) == (0, 1, 2, 4, 5)

    def test_saturates_at_component(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3)])  # vertex 4 isolated
        assert g.ball(0, 10) == (0, 1, 2, 3)
        assert g.ball(4, 10) == (4,)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cycle(4).ball(4, 1)


class TestComponentsWithin:
    def test_edge_plus_isolate(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert g.components_within([0, 1, 4]) == [(0, 1), (4,)]

    def test_empty_set(self):
        assert complete(4).components_within([]) == []

    def test_complete_connected(self):
        assert complete(5).components_within(range(5)) == [(0, 1, 2, 3, 4)]

    def test_sorted_by_smallest_member(self):
        g = Graph(6, [(4, 5), (0, 1)])
        assert g.components_within([0, 1, 2, 4, 5]) == [(0, 1), (2,), (4, 5)]


class TestHelperQueries:
    def test_neighborhoods(self):
        g = cycle(4)
        assert g.neighbors(0) == (1, 3)
        assert g.closed_neighborhood(0) == (0, 1, 3)

    def test_degree_extremes(self):
        g = star(4)
        assert g.max_degree() == 4
        assert g.min_degree() == 1

    def test_is_regular(self):
        assert cycle(5).is_regular(2)
        assert not cycle(5).is_regular(3)
        assert not star(3).is_regular(1)
        assert empty_graph(3).is_regular(0)
        assert Graph(0, []).is_regular(7)

    @given(graphs())
    def test_complement_degrees(self, g):
        h = g.complement()
        assert h.complement() == g
        for v in range(g.n):
            assert g.degree(v) + h.degree(v) == g.n - 1

    @given(graphs_with_vertex())
    def test_adjacency_consistency(self, gv):
        g, v = gv
        nm = g.neighbor_mask(v)
        for u in range(g.n):
            assert g.adjacent(u, v) == bool(nm >> u & 1)
        assert g.degree(v) == len(g.neighbors(v))
