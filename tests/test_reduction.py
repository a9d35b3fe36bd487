"""Gadget construction, witness translation, and small-scale equivalence."""

import pytest

from subcomp.families import complete, cycle, path, prism
from subcomp.oracle import brute_force_solve, check, max_deg_at_most
from subcomp.reduction import (
    GadgetInvariantError,
    build_crg_reduction,
    extract_clique,
    find_clique,
    find_cliques,
    forward_witness,
)
from subcomp.solvers import solve_max_deg_le


class TestBuild:
    def test_c4_k2_parameters(self):
        inst = build_crg_reduction(cycle(4), 2)
        p = inst.params
        assert (p.n, p.r, p.t, p.s, p.a, p.b) == (4, 2, 3, 4, 3, 3)
        assert inst.k_prime == 5
        assert inst.g_prime.n == 4 + 3 + 4 + 3 * 3 + 4 * 3 == 32

    def test_c4_k3_parameters(self):
        inst = build_crg_reduction(cycle(4), 3)
        p = inst.params
        assert (p.t, p.s, p.a, p.b) == (2, 4, 3, 1)
        assert inst.k_prime == 4
        assert inst.g_prime.n == 20

    def test_complete_source_rejected(self):
        with pytest.raises(ValueError, match="k < n"):
            build_crg_reduction(complete(4), 4)
        with pytest.raises(ValueError, match="complete"):
            build_crg_reduction(complete(4), 2)

    def test_irregular_source_rejected(self):
        with pytest.raises(ValueError, match="not regular"):
            build_crg_reduction(path(3), 2)

    def test_gadget_over_vertex_limit(self):
        # n + t + s + t*a + s*b = 180 + 178 + 180 + 178*3 + 180*177 = 32,932
        with pytest.raises(ValueError, match="32932 vertices"):
            build_crg_reduction(cycle(180), 3)

    def test_oversized_clique_is_trivially_no(self):
        # a 2-regular graph has no clique of size 4 > r+1 = 3
        assert build_crg_reduction(cycle(5), 4) is None

    def test_blocks_partition_vertices(self):
        inst = build_crg_reduction(cycle(4), 2)
        seen = sorted(
            v for label in inst.blocks for v in inst.block_vertices(label)
        )
        assert seen == list(range(inst.g_prime.n))
        assert inst.block_vertices("source") == range(0, 4)
        p = inst.params
        assert sum(1 for l in inst.blocks if l.startswith("Ka:")) == p.t
        assert sum(1 for l in inst.blocks if l.startswith("Kb:")) == p.s

    def test_block_degree_audit(self):
        for src, k in ((cycle(4), 2), (cycle(5), 3), (prism(), 2)):
            inst = build_crg_reduction(src, k)
            p = inst.params
            g = inst.g_prime
            wanted = {
                "source": p.r + p.t,
                "Kt": p.t - 1 + p.n + p.s + p.a,
                "Ks": p.s - 1 + p.t + p.b,
            }
            for label, (lo, hi) in inst.blocks.items():
                if label.startswith("Ka:"):
                    expect = p.a
                elif label.startswith("Kb:"):
                    expect = p.b
                else:
                    expect = wanted[label]
                for v in range(lo, hi):
                    assert g.degree(v) == expect, (label, v)

    def test_source_copy_preserved(self):
        src = prism()
        inst = build_crg_reduction(src, 2)
        for u in range(src.n):
            for v in range(u + 1, src.n):
                assert inst.g_prime.adjacent(u, v) == src.adjacent(u, v)

    def test_pendant_attachment(self):
        inst = build_crg_reduction(cycle(4), 2)
        g = inst.g_prime
        for label, (lo, hi) in inst.blocks.items():
            if not label.startswith(("Ka:", "Kb:")):
                continue
            anchor = int(label.split(":")[1])
            for x in range(lo, hi):
                assert g.adjacent(anchor, x)
                # pendant vertices touch nothing outside block + anchor
                assert g.degree(x) == (hi - lo - 1) + 1


class TestWitnessTranslation:
    def test_forward_roundtrip(self):
        inst = build_crg_reduction(cycle(4), 2)
        s = forward_witness(inst, (0, 1))
        assert len(s) == 2 + 3 + 4
        assert check(inst.g_prime, s, max_deg_at_most(inst.k_prime))
        assert extract_clique(inst, s) == (0, 1)

    def test_forward_on_c5(self):
        inst = build_crg_reduction(cycle(5), 2)
        s = forward_witness(inst, (1, 2))
        assert check(inst.g_prime, s, max_deg_at_most(inst.k_prime))

    def test_forward_rejects_non_clique(self):
        inst = build_crg_reduction(cycle(4), 2)
        with pytest.raises(ValueError, match="not adjacent"):
            forward_witness(inst, (0, 2))

    def test_forward_rejects_wrong_size(self):
        inst = build_crg_reduction(cycle(4), 2)
        with pytest.raises(ValueError, match="size 2"):
            forward_witness(inst, (0,))

    def test_forward_rejects_outside_source(self):
        inst = build_crg_reduction(cycle(4), 2)
        with pytest.raises(ValueError, match="source block"):
            forward_witness(inst, (0, 10))

    def test_extract_rejects_non_witness(self):
        inst = build_crg_reduction(cycle(4), 2)
        with pytest.raises(ValueError, match="max degree"):
            extract_clique(inst, (0, 1))

    def test_extract_from_solver_witness(self):
        inst = build_crg_reduction(cycle(5), 2)
        out = solve_max_deg_le(inst.g_prime, inst.k_prime)
        assert out.answer
        c = extract_clique(inst, out.witness)
        assert len(c) == 2
        assert cycle(5).adjacent(*c)

    def test_invariant_error_is_runtime_error(self):
        assert issubclass(GadgetInvariantError, RuntimeError)


class TestCliqueFinder:
    def test_lex_first(self):
        assert find_clique(complete(4), 2) == (0, 1)
        assert find_clique(cycle(5), 2) == (0, 1)

    def test_absent(self):
        assert find_clique(cycle(5), 3) is None

    def test_k0(self):
        assert find_clique(cycle(5), 0) == ()

    def test_capped(self):
        with pytest.raises(ValueError, match="capped"):
            find_clique(complete(11), 2)
        with pytest.raises(ValueError):
            find_clique(cycle(4), -1)

    def test_find_all(self):
        assert len(find_cliques(cycle(5), 2)) == 5
        assert find_cliques(prism(), 3) == [(0, 1, 2), (3, 4, 5)]


class TestEquivalence:
    @pytest.mark.parametrize("k", [2, 3])
    def test_c5(self, k):
        src = cycle(5)
        inst = build_crg_reduction(src, k)
        have_clique = find_clique(src, k) is not None
        out = solve_max_deg_le(inst.g_prime, inst.k_prime)
        assert out.answer == have_clique

    def test_brute_on_smallest_gadget(self):
        # a perfect matching on 4 vertices is 1-regular; k=2 gives a
        # 25-vertex gadget, just inside the oracle capacity, so the
        # branching solver can be cross-checked against full enumeration
        from subcomp.graph import Graph

        src = Graph(4, [(0, 1), (2, 3)])
        inst = build_crg_reduction(src, 2)
        assert inst.g_prime.n == 4 + 3 + 4 + 3 * 2 + 4 * 2 == 25
        out = solve_max_deg_le(inst.g_prime, inst.k_prime)
        brute = brute_force_solve(inst.g_prime, max_deg_at_most(inst.k_prime))
        assert out.answer == brute.answer == (find_clique(src, 2) is not None)
