"""Brute-force oracle: enumeration order, soundness, minimality, capacity."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from subcomp.families import complete, cycle, empty_graph, star
from subcomp.graph import Graph
from subcomp.oracle import (
    CapacityError,
    SolveOutcome,
    TargetKind,
    brute_force_min_max_degree,
    brute_force_solve,
    check,
    degree_range,
    max_deg_at_most,
    min_deg_at_least,
    regular,
)

from conftest import graphs

ALL_TARGETS = (max_deg_at_most, min_deg_at_least, regular)


def enumerate_first_witness(g, target):
    """Independent re-enumeration in size-then-lex order, for cross-checking."""
    for size in range(g.n + 1):
        for cand in combinations(range(g.n), size):
            if check(g, cand, target):
                return cand
    return None


class TestTargetPredicate:
    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            max_deg_at_most(-1)

    def test_kinds(self):
        assert max_deg_at_most(2).kind is TargetKind.MAX_DEG_AT_MOST
        assert min_deg_at_least(2).kind is TargetKind.MIN_DEG_AT_LEAST
        assert regular(2).kind is TargetKind.REGULAR

    def test_degree_range(self):
        assert degree_range(TargetKind.MAX_DEG_AT_MOST, 2, 6) == (0, 2)
        assert degree_range(TargetKind.MIN_DEG_AT_LEAST, 2, 6) == (2, 5)
        assert degree_range(TargetKind.REGULAR, 2, 6) == (2, 2)
        # min degree above n-1 is out of reach: the range is empty
        assert degree_range(TargetKind.MIN_DEG_AT_LEAST, 6, 6) == (6, 5)
        # n = 0: only the min-degree range depends on n, and it is empty
        assert degree_range(TargetKind.MAX_DEG_AT_MOST, 3, 0) == (0, 3)
        assert degree_range(TargetKind.MIN_DEG_AT_LEAST, 0, 0) == (0, -1)
        assert degree_range(TargetKind.REGULAR, 3, 0) == (3, 3)


class TestCheck:
    def test_complete_to_edgeless(self):
        assert check(complete(5), range(5), max_deg_at_most(0))

    def test_edgeless_to_complete(self):
        assert check(empty_graph(4), range(4), min_deg_at_least(3))

    def test_cycle_already_regular(self):
        assert check(cycle(5), (), regular(2))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            check(cycle(4), [0, 9], regular(2))


class TestBruteForce:
    def test_triangle_already_ok(self):
        out = brute_force_solve(complete(3), max_deg_at_most(2))
        assert out.answer and out.witness == ()

    def test_star_maxdeg_one_impossible(self):
        out = brute_force_solve(star(5), max_deg_at_most(1))
        assert not out.answer and out.witness is None
        assert out.nodes_explored == 1 << 6

    def test_cycle_plus_isolate_regular(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3)])
        out = brute_force_solve(g, regular(2))
        assert out.answer
        assert out.witness == (0, 1, 4)
        iso, u, v = 4, 0, 1
        assert g.adjacent(u, v) and g.degree(iso) == 0

    def test_capacity_guard(self):
        big = empty_graph(26)
        with pytest.raises(CapacityError):
            brute_force_solve(big, max_deg_at_most(0))
        out = brute_force_solve(big, max_deg_at_most(0), cap=26)
        assert out.answer and out.witness == ()

    def test_outcome_shape_enforced(self):
        with pytest.raises(ValueError):
            SolveOutcome(True, None, 1)
        with pytest.raises(ValueError):
            SolveOutcome(False, (0,), 1)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=6), st.integers(0, 4), st.sampled_from(ALL_TARGETS))
    def test_first_witness_in_size_then_lex_order(self, g, k, ctor):
        target = ctor(k)
        out = brute_force_solve(g, target)
        expected = enumerate_first_witness(g, target)
        if expected is None:
            assert not out.answer and out.witness is None
        else:
            assert out.answer and out.witness == expected

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=7), st.integers(0, 4), st.sampled_from(ALL_TARGETS))
    def test_soundness(self, g, k, ctor):
        target = ctor(k)
        out = brute_force_solve(g, target)
        if out.answer:
            assert check(g, out.witness, target)
        assert out.nodes_explored >= 1


class TestMinMaxDegree:
    def test_complete(self):
        best, witness = brute_force_min_max_degree(complete(4))
        assert best == 0 and witness == (0, 1, 2, 3)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            brute_force_min_max_degree(empty_graph(26))

    @settings(max_examples=40, deadline=None)
    @given(graphs(min_n=1, max_n=6))
    def test_matches_reenumeration(self, g):
        best, witness = brute_force_min_max_degree(g)
        candidates = [
            cand
            for size in range(g.n + 1)
            for cand in combinations(range(g.n), size)
        ]
        values = {
            cand: max(g.subgraph_complement(cand).degrees())
            for cand in candidates
        }
        true_best = min(values.values())
        first = next(c for c in candidates if values[c] == true_best)
        assert best == true_best
        assert witness == first
