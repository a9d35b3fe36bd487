"""Acceptance gate: nine cross-validation criteria over shared corpora.

Each criterion prints one pass/fail line (run with `pytest -s` to see them
live, or execute this file directly).  The corpora are computed once and
shared: every labeled graph on five vertices with full brute-force answers,
plus two hundred seeded random graphs on eight vertices.
"""

import contextlib
import io
import random
import sys
import time
from functools import lru_cache, wraps
from itertools import combinations

from subcomp.cli import main as cli_main
from subcomp.cli import parse_graph, write_graph
from subcomp.families import cycle, gnp, prism
from subcomp.graph import Graph, mask_of, members_of
from subcomp.oracle import (
    brute_force_min_max_degree,
    brute_force_solve,
    check,
    max_deg_at_most,
    min_deg_at_least,
    regular,
)
from subcomp.reduction import build_crg_reduction, extract_clique, find_cliques, forward_witness
from subcomp.solvers import (
    approx_min_max_degree,
    solve_k_regular,
    solve_max_deg_le,
    solve_min_deg_ge,
)

TARGETS = (
    ("maxdeg", max_deg_at_most, solve_max_deg_le),
    ("mindeg", min_deg_at_least, solve_min_deg_ge),
    ("regular", regular, solve_k_regular),
)


def criterion(num, name):
    def deco(fn):
        @wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"criterion {num} ({name}): FAIL")
                raise
            elapsed = time.perf_counter() - start
            print(f"criterion {num} ({name}): PASS [{elapsed:.1f}s]")

        return run

    return deco


@lru_cache(maxsize=1)
def small_sweep():
    """All 1024 labeled graphs on n=5 with brute answers for k in 0..4."""
    pairs = list(combinations(range(5), 2))
    entries = []
    for bits in range(1 << 10):
        g = Graph(5, [pairs[i] for i in range(10) if bits >> i & 1])
        brute = {
            (name, k): brute_force_solve(g, ctor(k))
            for name, ctor, _ in TARGETS
            for k in range(5)
        }
        entries.append((g, brute))
    return entries


@lru_cache(maxsize=1)
def random_sweep():
    """200 seeded G(8, p) graphs, p cycling 0.2/0.5/0.8, k in 0..5."""
    ps = (0.2, 0.5, 0.8)
    entries = []
    for i in range(200):
        g = gnp(8, ps[i % 3], seed=1000 + i)
        brute = {
            (name, k): brute_force_solve(g, ctor(k))
            for name, ctor, _ in TARGETS
            for k in range(6)
        }
        entries.append((g, brute))
    return entries


@criterion(1, "exhaustive n=5 oracle equivalence")
def test_criterion_1():
    mismatches = 0
    assert len(small_sweep()) == 1024
    for g, brute in small_sweep():
        for name, _, solver in TARGETS:
            for k in range(5):
                if solver(g, k).answer != brute[name, k].answer:
                    mismatches += 1
    assert mismatches == 0


@criterion(2, "randomized n=8 oracle equivalence")
def test_criterion_2():
    mismatches = bad_witnesses = 0
    assert len(random_sweep()) == 200
    for g, brute in random_sweep():
        for name, ctor, solver in TARGETS:
            for k in range(6):
                target = ctor(k)
                b = brute[name, k]
                s = solver(g, k)
                if s.answer != b.answer:
                    mismatches += 1
                if b.answer and not check(g, b.witness, target):
                    bad_witnesses += 1
                if s.answer and not check(g, s.witness, target):
                    bad_witnesses += 1
    assert mismatches == 0
    assert bad_witnesses == 0


@criterion(3, "degree formula on 1000 random triples")
def test_criterion_3():
    rng = random.Random(20260819)
    violations = 0
    inside_draws = 0
    for i in range(1000):
        n = rng.randint(1, 10)
        g = gnp(n, rng.choice((0.2, 0.5, 0.8)), seed=rng.randrange(1 << 30))
        smask = rng.randrange(1 << n)
        v = rng.randrange(n)
        if i % 2:
            smask |= 1 << v
        s = members_of(smask)
        materialized = g.subgraph_complement(s)
        if g.degree_after_complement(s, v) != materialized.degree(v):
            violations += 1
        if smask >> v & 1:
            inside_draws += 1
            d = g.degree(v)
            bound = max(len(s) - d - 1, d - (len(s) - 1))
            if g.degree_after_complement(s, v) < bound:
                violations += 1
    assert violations == 0
    assert inside_draws >= 500


@criterion(4, "witness size and degree bounds")
def test_criterion_4():
    checked = violations = 0
    for entries, kmax in ((small_sweep(), 5), (random_sweep(), 6)):
        for g, brute in entries:
            for name in ("maxdeg", "regular"):
                for k in range(kmax):
                    out = brute[name, k]
                    if not out.answer:
                        continue
                    s = out.witness
                    if not any(g.degree(v) <= k for v in s):
                        continue
                    checked += 1
                    if len(s) > 2 * k + 1 or g.max_degree() > 3 * k:
                        violations += 1
    assert violations == 0
    assert checked > 100


@criterion(5, "regular witness component structure")
def test_criterion_5():
    checked = violations = 0
    for entries, kmax in ((small_sweep(), 5), (random_sweep(), 6)):
        for g, brute in entries:
            for k in range(kmax):
                out = brute["regular", k]
                if not out.answer or not out.witness:
                    continue
                s = out.witness
                comps = g.components_within(s)
                on_degree = [
                    c for c in comps if all(g.degree(v) == k for v in c)
                ]
                if len(on_degree) > 1:
                    violations += 1
                for c in on_degree:
                    checked += 1
                    if (len(s) - 1) % 2 != 0:
                        violations += 1
                        continue
                    want = (len(s) - 1) // 2
                    cmask = mask_of(c)
                    for v in c:
                        if (g.neighbor_mask(v) & cmask).bit_count() != want:
                            violations += 1
    assert violations == 0
    assert checked >= 10


@criterion(6, "approximation ratio and exactness")
def test_criterion_6():
    violations = 0
    for entries in (small_sweep(), random_sweep()):
        for g, _ in entries:
            res = approx_min_max_degree(g)
            opt, _ = brute_force_min_max_degree(g)
            achieved = max(g.subgraph_complement(res.witness).degrees())
            if achieved != res.achieved_max_degree:
                violations += 1
            if res.achieved_max_degree > 3 * opt:
                violations += 1
            high = tuple(v for v in range(g.n) if g.degree(v) > res.lower_bound_k)
            if res.witness == high:
                if res.achieved_max_degree != opt:
                    violations += 1
            elif opt < res.lower_bound_k:
                violations += 1
    assert violations == 0


@criterion(7, "hardness gadget equivalence")
def test_criterion_7():
    start = time.perf_counter()
    cases = [
        (cycle(4), 2),
        (cycle(4), 3),
        (cycle(5), 2),
        (cycle(5), 3),
        (prism(), 2),
        (prism(), 3),
    ]
    for src, k in cases:
        inst = build_crg_reduction(src, k)
        cliques = find_cliques(src, k)
        out = solve_max_deg_le(inst.g_prime, inst.k_prime)
        assert out.answer == bool(cliques), (src, k)
        for c in cliques:
            s = forward_witness(inst, c)
            assert check(inst.g_prime, s, max_deg_at_most(inst.k_prime))
        if out.answer:
            c = extract_clique(inst, out.witness)
            assert len(c) == k
            assert all(src.adjacent(u, v) for u, v in combinations(c, 2))
    assert time.perf_counter() - start < 300, "reduction sweep blew the budget"


@criterion(8, "complement identity for min degree")
def test_criterion_8():
    mismatches = 0
    for g, _ in small_sweep():
        gc = g.complement()
        for k in range(1, 5):
            left = solve_min_deg_ge(g, k).answer
            right = solve_max_deg_le(gc, g.n - k - 1).answer
            if left != right:
                mismatches += 1
    assert mismatches == 0


def _run_cli(argv, stdin_text):
    buf = io.StringIO()
    saved = sys.stdin
    try:
        sys.stdin = io.StringIO(stdin_text)
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
    finally:
        sys.stdin = saved
    return code, buf.getvalue()


@criterion(9, "CLI determinism, round-trips, exit codes")
def test_criterion_9():
    fixed = [
        (["regular", "--k", "2"], write_graph(cycle(5))),
        (["maxdeg", "--k", "1", "--stats"], write_graph(cycle(5))),
        (["mindeg", "--k", "3"], write_graph(gnp(7, 0.5, seed=5))),
        (["approx-maxdeg"], write_graph(gnp(7, 0.8, seed=6))),
        (["brute", "--target", "regular", "--k", "2"], write_graph(cycle(4))),
        (["verify", "--target", "maxdeg", "--k", "4", "--set", "0,2"],
         write_graph(gnp(6, 0.5, seed=7))),
    ]
    for argv, text in fixed:
        first = _run_cli(argv, text)
        second = _run_cli(argv, text)
        assert first == second, argv

    for seed in range(100):
        g = gnp(3 + seed % 8, (0.2, 0.5, 0.8)[seed % 3], seed=seed)
        text = write_graph(g)
        assert write_graph(parse_graph(text)) == text

    rng = random.Random(9)
    for i in range(50):
        g = gnp(6, (0.2, 0.5, 0.8)[i % 3], seed=200 + i)
        name, ctor, _ = TARGETS[i % 3]
        k = rng.randint(0, 4)
        expected = brute_force_solve(g, ctor(k)).answer
        code, out = _run_cli([name, "--k", str(k)], write_graph(g))
        assert code == (0 if expected else 1), (i, name, k)
        assert ('"answer": "yes"' in out) == expected


if __name__ == "__main__":
    crits = [
        test_criterion_1,
        test_criterion_2,
        test_criterion_3,
        test_criterion_4,
        test_criterion_5,
        test_criterion_6,
        test_criterion_7,
        test_criterion_8,
        test_criterion_9,
    ]
    failures = 0
    for crit in crits:
        try:
            crit()
        except BaseException as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            print(f"  {type(exc).__name__}: {exc}")
    sys.exit(1 if failures else 0)
