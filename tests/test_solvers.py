"""Branching solvers against the brute-force oracle, plus witness structure."""

import inspect
import random
import sys
from dataclasses import asdict
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from subcomp.families import complete, cycle, empty_graph, gnp, path, star
from subcomp.graph import Graph, mask_of, members_of
from subcomp.oracle import (
    brute_force_min_max_degree,
    brute_force_solve,
    check,
    max_deg_at_most,
    min_deg_at_least,
    regular,
)
from subcomp.solvers import (
    approx_min_max_degree,
    find_regular_extension,
    solve_k_regular,
    solve_max_deg_le,
    solve_min_deg_ge,
    trivial_high_max_degree_witness,
    trivial_low_min_degree_witness,
)

from conftest import graphs


class TestTrivialWitnesses:
    def test_low_complete(self):
        g = complete(4)
        s = trivial_low_min_degree_witness(g, 0)
        assert s == (0, 1, 2, 3)
        assert g.degree_after_complement(s, 0) == 0

    def test_low_edgeless(self):
        assert trivial_low_min_degree_witness(empty_graph(5), 0) == (0,)

    def test_low_path(self):
        g = path(3)
        s = trivial_low_min_degree_witness(g, 0)
        assert s == g.closed_neighborhood(0) == (0, 1)
        assert min(g.degrees_after_complement(s)) == 0

    def test_low_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            trivial_low_min_degree_witness(Graph(0, []), 0)

    def test_high_edgeless(self):
        g = empty_graph(4)
        s = trivial_high_max_degree_witness(g, 3)
        assert s == (0, 1, 2, 3)
        assert g.subgraph_complement(s) == complete(4)

    def test_high_above_range(self):
        assert trivial_high_max_degree_witness(cycle(4), 4) is None
        assert trivial_high_max_degree_witness(Graph(0, []), 0) is None

    def test_high_complete(self):
        assert trivial_high_max_degree_witness(complete(4), 3) == (0,)

    @given(graphs(min_n=1))
    def test_low_isolates_vertex_zero(self, g):
        s = trivial_low_min_degree_witness(g, 0)
        assert g.degree_after_complement(s, 0) == 0

    @given(graphs(min_n=1))
    def test_high_makes_vertex_zero_universal(self, g):
        s = trivial_high_max_degree_witness(g, g.n - 1)
        assert s is not None
        assert g.degree_after_complement(s, 0) == g.n - 1


class TestSolveMaxDegLe:
    def test_complete_k0(self):
        out = solve_max_deg_le(complete(5), 0)
        assert out.answer and out.witness == (0, 1, 2, 3, 4)

    def test_star_k1_refuted(self):
        out = solve_max_deg_le(star(5), 1)
        assert not out.answer
        assert not brute_force_solve(star(5), max_deg_at_most(1)).answer

    def test_cycle_k1_matches_brute(self):
        out = solve_max_deg_le(cycle(5), 1)
        assert out.answer == brute_force_solve(cycle(5), max_deg_at_most(1)).answer

    def test_n_zero(self):
        assert solve_max_deg_le(Graph(0, []), 0).answer

    def test_depth_independent_of_recursion_limit(self):
        # star(121) at k = 60 pulls 61 leaves in one at a time, so the
        # search runs 61 levels deep with only 30 frames of headroom.
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 30)
        try:
            out = solve_max_deg_le(star(121), 60)
            dual = solve_min_deg_ge(star(121).complement(), 122 - 1 - 60)
        finally:
            sys.setrecursionlimit(old_limit)
        assert out.answer and len(out.witness) == 62
        assert out.stats.max_depth == 61
        assert dual == out

    @settings(max_examples=120, deadline=None)
    @given(graphs(), st.integers(0, 5))
    def test_matches_brute(self, g, k):
        out = solve_max_deg_le(g, k)
        assert out.answer == brute_force_solve(g, max_deg_at_most(k)).answer
        if out.answer:
            assert check(g, out.witness, max_deg_at_most(k))
            high = mask_of(v for v in range(g.n) if g.degree(v) > k)
            assert high & mask_of(out.witness) == high

    @settings(max_examples=80, deadline=None)
    @given(graphs(), st.integers(0, 5))
    def test_stats_bounds(self, g, k):
        out = solve_max_deg_le(g, k)
        assert out.stats.nodes >= 1
        assert out.stats.max_depth <= 2 * k + 1

    @settings(max_examples=80, deadline=None)
    @given(graphs(min_n=1, max_n=6), st.integers(0, 4))
    def test_brute_witness_contains_all_high_vertices(self, g, k):
        out = brute_force_solve(g, max_deg_at_most(k))
        if out.answer:
            high = {v for v in range(g.n) if g.degree(v) > k}
            assert high <= set(out.witness)


class TestSolveMinDegGe:
    def test_edgeless_k3(self):
        g = empty_graph(4)
        out = solve_min_deg_ge(g, 3)
        assert out.answer and out.witness == (0, 1, 2, 3)
        assert g.subgraph_complement(out.witness) == complete(4)

    def test_k0_always_yes(self):
        out = solve_min_deg_ge(cycle(4), 0)
        assert out.answer and out.witness == ()

    def test_k_too_large(self):
        assert not solve_min_deg_ge(cycle(4), 4).answer

    def test_cycle_k3_matches_brute(self):
        out = solve_min_deg_ge(cycle(5), 3)
        assert out.answer == brute_force_solve(cycle(5), min_deg_at_least(3)).answer

    @settings(max_examples=120, deadline=None)
    @given(graphs(), st.integers(0, 5))
    def test_matches_brute(self, g, k):
        out = solve_min_deg_ge(g, k)
        assert out.answer == brute_force_solve(g, min_deg_at_least(k)).answer
        if out.answer:
            assert check(g, out.witness, min_deg_at_least(k))

    @settings(max_examples=60, deadline=None)
    @given(graphs(min_n=1), st.integers(1, 5))
    def test_complement_instance_identity(self, g, k):
        left = solve_min_deg_ge(g, k).answer
        if k > g.n - 1:
            assert not left
        else:
            right = solve_max_deg_le(g.complement(), g.n - k - 1).answer
            assert left == right


class TestApproxMinMaxDegree:
    def test_complete(self):
        res = approx_min_max_degree(complete(4))
        assert res.achieved_max_degree == 0
        assert res.witness == (0, 1, 2, 3)
        assert res.lower_bound_k == 0

    def test_edgeless(self):
        res = approx_min_max_degree(empty_graph(4))
        assert res.achieved_max_degree == 0
        assert res.witness == ()

    def test_star_ratio(self):
        g = star(5)
        res = approx_min_max_degree(g)
        opt, _ = brute_force_min_max_degree(g)
        assert res.achieved_max_degree <= 3 * opt

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            approx_min_max_degree(Graph(0, []))

    @settings(max_examples=100, deadline=None)
    @given(graphs(min_n=1, max_n=7))
    def test_certificate(self, g):
        res = approx_min_max_degree(g)
        achieved = max(g.degrees_after_complement(res.witness))
        assert achieved == res.achieved_max_degree
        opt, _ = brute_force_min_max_degree(g)
        assert res.achieved_max_degree <= 3 * opt
        high = tuple(v for v in range(g.n) if g.degree(v) > res.lower_bound_k)
        if res.witness == high:
            assert res.achieved_max_degree == opt
        else:
            assert opt >= res.lower_bound_k


def _completion(g, seeds, k):
    """find_regular_extension called as _search calls it, on the set `seeds`."""
    smask = mask_of(seeds)
    near = mask_of(u for v in seeds for u in g.closed_neighborhood(v))
    return find_regular_extension(g, smask, len(seeds), near, k)


def _check_completion(g, k):
    """The completion of V_!=k against a restricted oracle, if _search calls it."""
    if g.max_degree() > 3 * k:
        return
    seeds = tuple(v for v in range(g.n) if g.degree(v) != k)
    if not (0 < len(seeds) <= k):
        return
    c = _completion(g, seeds, k)
    # restricted oracle: a non-empty C of at most k vertices outside N[S]
    near = mask_of(u for v in seeds for u in g.closed_neighborhood(v))
    free = [v for v in range(g.n) if not near >> v & 1]
    exists = any(
        check(g, seeds + rest, regular(k))
        for size in range(1, k + 1)
        for rest in combinations(free, size)
    )
    assert bool(c) == exists
    if c:
        assert 1 <= c.bit_count() <= k
        assert c & near == 0
        assert check(g, members_of(mask_of(seeds) | c), regular(k))


class TestFindRegularExtension:
    def test_cycle_plus_isolate(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert _completion(g, (4,), 2) == mask_of((0, 1))
        assert check(g, (0, 1, 4), regular(2))

    def test_path_leaf_seed(self):
        # the seed is the path 3-4 beside K4 on {0, 1, 2, 5}: complementing
        # {0, 1, 2} with it cuts the edge 34 and the triangle and joins the two
        g = Graph(6, [*combinations((0, 1, 2, 5), 2), (3, 4)])
        c = _completion(g, (3, 4), 3)
        assert c == mask_of((0, 1, 2))
        assert check(g, (0, 1, 2, 3, 4), regular(3))

    def test_seed_members_disagree_on_size(self):
        # 0 (degree 1) needs |C| = 2 and 1 (degree 2) needs |C| = 1
        g = Graph(7, [(0, 2), (1, 3), (1, 4)])
        assert _completion(g, (0, 1), 4) == 0

    @settings(max_examples=60, deadline=None)
    @given(graphs(min_n=1, max_n=6), st.integers(1, 3))
    def test_returned_completion_is_valid(self, g, k):
        _check_completion(g, k)

    def test_all_graphs_up_to_five_vertices(self):
        # random graphs rarely admit a completion; these 1,099 labelled
        # graphs give 829 sets that meet the contract, 19 with a completion
        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                g = Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
                for k in (1, 2, 3):
                    _check_completion(g, k)


class TestSolveKRegular:
    def test_cycle_already_regular(self):
        out = solve_k_regular(cycle(5), 2)
        assert out.answer and out.witness == ()

    def test_cycle_plus_isolate(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3)])
        out = solve_k_regular(g, 2)
        assert out.answer
        assert len(out.witness) == 3
        assert check(g, out.witness, regular(2))
        assert out.answer == brute_force_solve(g, regular(2)).answer

    def test_path4_matches_brute(self):
        out = solve_k_regular(path(4), 2)
        assert out.answer == brute_force_solve(path(4), regular(2)).answer

    def test_k_at_least_n(self):
        assert not solve_k_regular(path(3), 3).answer
        assert not solve_k_regular(path(3), 9).answer

    def test_n_zero_vacuous(self):
        out = solve_k_regular(Graph(0, []), 0)
        assert out.answer and out.witness == ()

    @settings(max_examples=120, deadline=None)
    @given(graphs(), st.integers(0, 5))
    def test_matches_brute(self, g, k):
        out = solve_k_regular(g, k)
        assert out.answer == brute_force_solve(g, regular(k)).answer
        if out.answer:
            assert check(g, out.witness, regular(k))

    @settings(max_examples=80, deadline=None)
    @given(graphs(), st.integers(0, 4))
    def test_stats_bounds(self, g, k):
        out = solve_k_regular(g, k)
        assert out.stats.nodes >= 1
        assert out.stats.max_depth <= 2 * k + 1


_SOLVERS = {
    "maxdeg": solve_max_deg_le,
    "mindeg": solve_min_deg_ge,
    "regular": solve_k_regular,
}

_PREDICATES = {
    "maxdeg": max_deg_at_most,
    "mindeg": min_deg_at_least,
    "regular": regular,
}


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_matches_brute_beyond_hypothesis_sizes(n):
    # 48 seeded G(n, p) graphs per n, p from 1/9 to 8/9, none filtered out
    for seed in range(48):
        g = gnp(n, (seed % 8 + 1) / 9, 1000 * n + seed)
        for target, predicate in _PREDICATES.items():
            for k in range(5):
                out = _SOLVERS[target](g, k)
                ref = brute_force_solve(g, predicate(k))
                assert out.answer == ref.answer, (seed, target, k)
                if out.answer:
                    assert check(g, out.witness, predicate(k))


def _near_regular(n, d, seed, removed=0, added=0):
    """Seeded random d-regular graph, then perturbed.

    The d-regular graph is the union of d // 2 random Hamiltonian cycles
    (plus a random perfect matching when d is odd), redrawn until no edge
    repeats.  Then `removed` vertex-disjoint edges are deleted and `added`
    random non-edges inserted.
    """
    rng = random.Random(seed)
    while True:
        edges = set()
        for _ in range(d // 2):
            order = rng.sample(range(n), n)
            edges.update(tuple(sorted(e)) for e in zip(order, order[1:] + order[:1]))
        if d % 2:
            order = rng.sample(range(n), n)
            edges.update(tuple(sorted(order[i:i + 2])) for i in range(0, n, 2))
        if len(edges) == n * d // 2:
            break
    touched = set()
    for e in rng.sample(sorted(edges), len(edges)):
        if len(touched) == 2 * removed:
            break
        if touched.isdisjoint(e):
            edges.remove(e)
            touched.update(e)
    while added:
        e = tuple(sorted(rng.sample(range(n), 2)))
        if e not in edges:
            edges.add(e)
            added -= 1
    return Graph(n, sorted(edges))


def _planted(n, k, size, seed):
    """A seeded k-regular graph complemented on a connected set of `size` vertices."""
    g = _near_regular(n, k, seed)
    rng = random.Random(seed)
    part = {rng.randrange(n)}
    while len(part) < size:
        frontier = sorted(set().union(*(g.neighbors(v) for v in part)) - part)
        part.add(rng.choice(frontier))
    return g.subgraph_complement(sorted(part))


# (target, graph, k, answer, witness, (nodes, max_depth, pruned_by_size,
# pruned_by_slack, pruned_by_maxdeg), nodes before the slack prune).  The
# answers and witnesses were recorded from the recursive searches that the
# one iterative core replaced (the last four rows from the core before the
# slack prune and the fixed completion size), and the counters from the
# search with both.  The order children are visited in decides the witness
# and every counter, so this table pins that order; pruning must never
# visit more sets than the search without it.
PINNED_SEARCHES = [
    ("maxdeg", gnp(10, 0.22, 0), 1, True, (5, 6), (1, 0, 0, 0, 0), 1),
    ("maxdeg", gnp(10, 0.22, 1), 1, False, None, (1, 0, 0, 0, 0), 1),
    ("maxdeg", gnp(10, 0.22, 2), 1, False, None, (1, 0, 0, 0, 0), 1),
    ("maxdeg", gnp(10, 0.33, 0), 2, False, None, (5, 2, 2, 1, 0), 8),
    ("maxdeg", gnp(10, 0.33, 1), 2, False, None, (1, 0, 0, 0, 0), 1),
    ("maxdeg", gnp(10, 0.33, 2), 2, False, None, (1, 0, 0, 0, 0), 1),
    ("maxdeg", gnp(10, 0.44, 0), 3, True, (0, 5, 6, 8), (1, 0, 0, 0, 0), 1),
    ("maxdeg", gnp(10, 0.44, 1), 3, False, None, (1, 0, 0, 0, 0), 1),
    ("maxdeg", gnp(10, 0.44, 2), 3, False, None, (1, 0, 0, 1, 0), 8),
    ("maxdeg", gnp(10, 0.56, 0), 4, True, (0, 1, 4, 5, 6, 8, 9), (2, 1, 0, 0, 0), 2),
    ("maxdeg", gnp(10, 0.56, 1), 4, True, (0, 1, 2, 3, 4, 5, 6, 7, 9), (1, 0, 0, 0, 0), 1),
    ("maxdeg", gnp(10, 0.56, 2), 4, True, (2, 3, 4, 6), (1, 0, 0, 0, 0), 1),
    ("mindeg", gnp(8, 0.5, 2), 1, True, (), (1, 0, 0, 0, 0), 1),
    ("mindeg", gnp(8, 0.5, 3), 1, True, (), (1, 0, 0, 0, 0), 1),
    ("mindeg", gnp(8, 0.5, 4), 1, True, (), (1, 0, 0, 0, 0), 1),
    ("mindeg", gnp(8, 0.5, 2), 2, True, (), (1, 0, 0, 0, 0), 1),
    ("mindeg", gnp(8, 0.5, 3), 2, True, (), (1, 0, 0, 0, 0), 1),
    ("mindeg", gnp(8, 0.5, 4), 2, True, (0, 7), (2, 1, 0, 0, 0), 2),
    ("mindeg", gnp(8, 0.5, 2), 3, True, (0, 2, 5), (1, 0, 0, 0, 0), 1),
    ("mindeg", gnp(8, 0.5, 3), 3, True, (0, 2, 4, 5), (2, 1, 0, 0, 0), 2),
    ("mindeg", gnp(8, 0.5, 4), 3, True, (0, 2, 7), (3, 2, 0, 0, 0), 3),
    ("mindeg", gnp(8, 0.5, 2), 4, False, None, (1, 0, 0, 1, 0), 3),
    ("mindeg", gnp(8, 0.5, 3), 4, True, (0, 1, 2, 4, 5), (3, 2, 0, 0, 0), 3),
    ("mindeg", gnp(8, 0.5, 4), 4, True, (2, 4, 5, 7), (1, 0, 0, 0, 0), 1),
    ("regular", gnp(10, 0.11, 0), 1, False, None, (1, 0, 1, 0, 0), 1),
    ("regular", gnp(10, 0.11, 1), 1, False, None, (1, 0, 0, 0, 0), 1),
    ("regular", gnp(10, 0.11, 2), 1, False, None, (1, 0, 1, 0, 0), 1),
    ("regular", gnp(10, 0.22, 0), 2, False, None, (1, 0, 1, 0, 0), 1),
    ("regular", gnp(10, 0.22, 1), 2, False, None, (1, 0, 1, 0, 0), 1),
    ("regular", gnp(10, 0.22, 2), 2, False, None, (1, 0, 1, 0, 0), 1),
    ("regular", gnp(10, 0.33, 0), 3, False, None, (1, 0, 1, 0, 0), 1),
    ("regular", gnp(10, 0.33, 1), 3, False, None, (1, 0, 0, 1, 0), 16),
    ("regular", gnp(10, 0.33, 2), 3, False, None, (1, 0, 0, 1, 0), 5),
    ("regular", gnp(10, 0.44, 0), 4, False, None, (1, 0, 0, 1, 0), 3),
    ("regular", gnp(10, 0.44, 1), 4, False, None, (1, 0, 0, 1, 0), 3),
    ("regular", gnp(10, 0.44, 2), 4, False, None, (5, 1, 0, 4, 0), 15),
    ("maxdeg", gnp(10, 0.44, 5), 3, True, (2, 3, 5, 7, 8, 9), (5, 2, 0, 2, 0), 7),
    ("maxdeg", gnp(10, 0.56, 4), 4, True, (0, 1, 3, 4, 5, 6, 8, 9), (3, 1, 0, 0, 1), 3),
    ("maxdeg", star(5), 2, True, (0, 1, 2, 3), (4, 3, 0, 0, 0), 4),
    ("maxdeg", star(6), 2, False, None, (57, 4, 15, 0, 0), 57),
    ("maxdeg", star(9), 3, False, None, (466, 6, 84, 0, 0), 466),
    ("regular", star(3), 1, True, (0, 1, 2), (3, 2, 0, 0, 0), 3),
    ("maxdeg", cycle(5), 1, False, None, (1, 0, 0, 0, 0), 1),
    ("regular", Graph(5, cycle(4).edges()), 2, True, (0, 1, 4), (1, 0, 0, 0, 0), 1),
    ("regular", Graph(7, cycle(6).edges()), 2, True, (0, 1, 6), (1, 0, 0, 0, 0), 1),
    ("mindeg", Graph(6, cycle(5).edges()), 2, True, (0, 1, 5), (3, 2, 0, 0, 0), 3),
    ("regular", _near_regular(30, 4, 0, removed=2), 4, False, None, (85, 2, 0, 73, 0), 9992),
    ("regular", _near_regular(30, 4, 1, removed=2), 4, False, None, (89, 2, 0, 77, 0), 11434),
    ("regular", _planted(30, 4, 3, 0), 4, True, (0, 3, 27), (1, 0, 0, 0, 0), 1),
    ("maxdeg", _near_regular(40, 5, 3, added=2), 5, False, None, (148, 5, 0, 97, 0), 1817),
]


# Beyond the oracle's reach: near-regular no-instances, planted yes-instances
# whose witness comes from the detached completion, and maxdeg searches.
RELABELLED = [
    (target, g, k)
    for n in (30, 40)
    for seed in (0, 1)
    for target, g, k in (
        ("regular", _near_regular(n, 4, seed, removed=2), 4),
        ("regular", _planted(n, 4, 3, seed), 4),
        ("maxdeg", _near_regular(n, 5, seed, added=2), 5),
    )
]


@pytest.mark.parametrize(
    "target, g, k",
    RELABELLED,
    ids=[f"{row[0]}-n{row[1].n}-{i}" for i, row in enumerate(RELABELLED)],
)
def test_answer_survives_relabelling(target, g, k):
    answer = _SOLVERS[target](g, k).answer
    for seed in range(3):
        perm = random.Random(seed).sample(range(g.n), g.n)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        out = _SOLVERS[target](h, k)
        assert out.answer == answer, seed
        if out.answer:
            assert check(h, out.witness, _PREDICATES[target](k))


@pytest.mark.parametrize(
    "target, g, k, answer, witness, counters, unpruned_nodes",
    PINNED_SEARCHES,
    ids=[f"{row[0]}-{i}" for i, row in enumerate(PINNED_SEARCHES)],
)
def test_pinned_search(target, g, k, answer, witness, counters, unpruned_nodes):
    out = _SOLVERS[target](g, k)
    assert (out.answer, out.witness) == (answer, witness)
    assert tuple(asdict(out.stats).values()) == counters
    assert out.nodes_explored == counters[0] <= unpruned_nodes
