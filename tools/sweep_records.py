"""The fixed record stream that tools/sweep.py compares between two trees.

    PYTHONPATH=<a src directory> python3 tools/sweep_records.py

prints one JSON line [input, output] per record, for whichever subcomp
the path points at.  The stream is a pure function of the program: the corpus is seeded, and
the CLI runs in process, in a temporary working directory, so output file
names are relative.  Only names that exist in every tree the sweep is meant
to compare are imported.

Records: the three solvers (answer, witness, nodes, every stat), the
brute-force search, check, the min-max oracle, the approximation, the
trivial witnesses, subgraph_complement (edges, m, repr), direct completion
calls, the gadget (rows, blocks, params, k', errors, and the maxdeg verdict
on it), parse_graph on seeded malformed texts, and the CLI (stdout, stderr,
exit code, and both files of `reduce`) for every subcommand, with and
without --stats.  The last records are the hard cases: searches of
thousands to millions of nodes that finish in seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from dataclasses import asdict

from subcomp.cli import main, parse_graph, write_graph
from subcomp.families import complete, cycle, empty_graph, gnp, path, prism, star
from subcomp.graph import Graph, mask_of, members_of
from subcomp.oracle import (
    TargetKind,
    TargetPredicate,
    brute_force_min_max_degree,
    brute_force_solve,
    check,
)
from subcomp.reduction import build_crg_reduction
from subcomp.solvers import (
    approx_min_max_degree,
    find_regular_extension,
    solve_k_regular,
    solve_max_deg_le,
    solve_min_deg_ge,
    trivial_high_max_degree_witness,
    trivial_low_min_degree_witness,
)

SOLVERS = {
    "maxdeg": solve_max_deg_le,
    "mindeg": solve_min_deg_ge,
    "regular": solve_k_regular,
}
BRUTE_MAX_N = 11  # largest graph the brute-force records sweep


def emit(what, result) -> None:
    print(json.dumps([what, result], sort_keys=True))


def attempt(fn, *args):
    """fn's result, or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return ["raise", type(exc).__name__, str(exc)]


def outcome(o) -> dict:
    stats = None if o.stats is None else asdict(o.stats)
    return {"answer": o.answer, "witness": o.witness,
            "nodes": o.nodes_explored, "stats": stats}


# -- corpus ----------------------------------------------------------------


def circulant(n: int, diffs) -> Graph:
    return Graph(n, {tuple(sorted((v, (v + d) % n))) for v in range(n) for d in diffs})


def random_regular(rng: random.Random, n: int, d: int) -> Graph:
    """Pairing model, restarted whenever 100 draws in a row fail."""
    while True:
        edges, stubs = set(), [v for v in range(n) for _ in range(d)]
        while stubs:
            for _ in range(100):
                i, j = rng.randrange(len(stubs)), rng.randrange(len(stubs))
                e = tuple(sorted((stubs[i], stubs[j])))
                if e[0] != e[1] and e not in edges:
                    break
            else:
                break
            edges.add(e)
            for idx in sorted((i, j), reverse=True):
                stubs[idx] = stubs[-1]
                stubs.pop()
        if not stubs:
            return Graph(n, edges)


def perturbed(rng: random.Random, g: Graph, how: str) -> Graph:
    edges = set(g.edges())
    if how == "remove" and edges:
        edges.discard(rng.choice(sorted(edges)))
    elif how == "add" and g.m < g.n * (g.n - 1) // 2:
        while True:
            e = tuple(sorted(rng.sample(range(g.n), 2)))
            if e not in edges:
                edges.add(e)
                break
    elif how == "complement":
        return g.subgraph_complement(rng.sample(range(g.n), rng.randint(2, 5)))
    return Graph(g.n, edges)


def relabelled(rng: random.Random, g: Graph) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def blow_up(rng: random.Random, base: Graph) -> Graph:
    """Each vertex becomes 1..3 twins, open or closed at random."""
    copies, n = [], 0
    for _ in range(base.n):
        size = rng.randint(1, 3)
        copies.append(range(n, n + size))
        n += size
    edges = set()
    for u, v in base.edges():
        edges.update((x, y) for x in copies[u] for y in copies[v])
    for block in copies:
        if rng.random() < 0.5:
            edges.update((x, y) for x in block for y in block if x < y)
    return Graph(n, edges)


def planted(rng: random.Random, n: int, k: int) -> Graph:
    """A k-regular graph complemented on a connected set of at most k + 1
    vertices, so that complementing the set back answers yes."""
    g = random_regular(rng, n, k)
    size = rng.randint(2, k + 1)
    chosen = {rng.randrange(n)}
    while len(chosen) < size:
        frontier = sorted({u for v in chosen for u in g.neighbors(v)} - chosen)
        chosen.add(rng.choice(frontier))
    return g.subgraph_complement(chosen)


def corpus():
    """(name, graph) pairs, fixed by the seeds below."""
    rng = random.Random(19)
    for n in range(12):
        for p in (0.2, 0.4, 0.6, 0.8):
            for seed in range(3):
                yield f"gnp({n}, {p}, {seed})", gnp(n, p, seed)
    for n in range(1, 10):
        yield f"star({n})", star(n)
        yield f"path({n})", path(n)
        yield f"complete({n})", complete(n)
        yield f"empty({n})", empty_graph(n)
    for n in range(3, 10):
        yield f"cycle({n})", cycle(n)
        yield f"cycle({n})+isolate", Graph(n + 1, cycle(n).edges())
    for a in range(1, 5):
        for b in range(a, 5):
            for iso in range(3):
                g = Graph(a + b + iso, [(u, a + v) for u in range(a) for v in range(b)])
                yield f"K({a},{b})+{iso}", g
    yield "prism", prism()
    for n in range(10, 31, 4):
        for diffs in ((1, 2), (1, 3), (1, 2, 4)):
            base = circulant(n, diffs)
            for how in ("remove", "add", "complement"):
                yield f"C_{n}{diffs} {how}", perturbed(rng, base, how)
    for i in range(40):
        base = gnp(rng.randint(2, 5), 0.5, rng.randrange(1000))
        g = blow_up(rng, base)
        yield f"blow-up {i}", relabelled(rng, g) if i % 2 else g
    for n, k in ((12, 3), (16, 3), (20, 4), (24, 4), (30, 4)):
        for i in range(3):
            yield f"planted({n}, {k}) {i}", planted(rng, n, k)


# -- records ---------------------------------------------------------------


def graph_records(name: str, g: Graph, rng: random.Random) -> list:
    """The library records of one graph; returns the yes-witnesses seen."""
    emit(f"graph {name}", [repr(g), g.m, g.degrees()])
    witnesses = []
    ks = range(-1, min(g.n, 6) + 2)
    for kind, solve in SOLVERS.items():
        for k in ks:
            res = attempt(solve, g, k)
            if not isinstance(res, list):
                if res.answer:
                    witnesses.append(res.witness)
                res = outcome(res)
            emit(f"{kind} k={k} {name}", res)
    if g.n <= BRUTE_MAX_N:
        for kind in TargetKind:
            for k in ks:
                if k >= 0:
                    res = brute_force_solve(g, TargetPredicate(kind, k), cap=BRUTE_MAX_N)
                    emit(f"brute {kind.value} k={k} {name}", outcome(res))
        emit(f"min-max {name}", brute_force_min_max_degree(g, cap=BRUTE_MAX_N))
    res = attempt(approx_min_max_degree, g)
    emit(f"approx {name}", res if isinstance(res, list) else asdict(res))
    emit(f"trivial {name}", [
        [trivial_high_max_degree_witness(g, k) for k in range(g.n + 1)],
        attempt(trivial_low_min_degree_witness, g, 0),
    ])
    sets = witnesses[:4] + [
        tuple(sorted(rng.sample(range(g.n), rng.randint(0, g.n)))) for _ in range(2)
    ]
    for s in sets:
        h = g.subgraph_complement(s)
        emit(f"complement {s} {name}", [h.edges(), h.m, repr(h)])
        for kind in TargetKind:
            for k in range(0, min(g.n, 6) + 1):
                emit(f"check {kind.value} k={k} {s} {name}",
                     check(g, s, TargetPredicate(kind, k)))
    for k in range(2, 6):
        off = [v for v in range(g.n) if g.degree(v) != k]
        if not off or g.max_degree() > 3 * k:
            continue
        free = [v for v in range(g.n) if g.degree(v) == k]
        for extra in range(3):
            seeds = off + rng.sample(free, min(extra, len(free)))
            if len(seeds) >= k:
                break
            near = mask_of(u for v in seeds for u in g.closed_neighborhood(v))
            emit(f"completion k={k} {sorted(seeds)} {name}",
                 members_of(find_regular_extension(g, mask_of(seeds), near, k)))
    return witnesses


def run_cli(argv, stdin=""):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return [code, out.getvalue(), err.getvalue()]


def cli_records(name: str, g: Graph, witnesses) -> None:
    text = write_graph(g)
    for command in SOLVERS:
        for k in range(-1, min(g.n, 4) + 2):
            for stats in ([], ["--stats"]):
                argv = [command, "--k", str(k), *stats]
                emit(f"cli {argv} {name}", run_cli(argv, text))
    for kind in TargetKind:
        for k in (0, 1, 2):
            argv = ["brute", "--target", kind.value, "--k", str(k), "--cap", "9"]
            emit(f"cli {argv} {name}", run_cli(argv, text))
        for s in witnesses[:2] + [(0,), ()]:
            argv = ["verify", "--target", kind.value, "--k", "2",
                    "--set", ",".join(map(str, s))]
            emit(f"cli {argv} {name}", run_cli(argv, text))
    emit(f"cli approx-maxdeg {name}", run_cli(["approx-maxdeg"], text))


def reduce_records(name: str, g: Graph) -> None:
    r = g.max_degree()
    for k in range(-1, r + 3):
        inst = attempt(build_crg_reduction, g, k)
        if inst is None or isinstance(inst, list):
            emit(f"gadget k={k} {name}", inst)
        else:
            gp = inst.g_prime
            edges = hashlib.sha256(repr(gp.edges()).encode()).hexdigest()
            emit(f"gadget k={k} {name}",
                 [gp.n, gp.m, edges, inst.k_prime, inst.blocks, asdict(inst.params)])
            if gp.n <= 80:
                res = solve_max_deg_le(gp, inst.k_prime)
                emit(f"gadget maxdeg k={k} {name}", outcome(res))
        code, out, err = run_cli(["reduce", "--k", str(k), "--out", "out"], write_graph(g))
        files = []
        for fname in ("out.graph", "out.blocks.json"):
            if os.path.exists(fname):
                with open(fname, encoding="utf-8") as fh:
                    data = fh.read()
                files.append(hashlib.sha256(data.encode()).hexdigest()
                             if fname == "out.graph" else data)
                os.remove(fname)
        emit(f"cli reduce k={k} {name}", [code, out, err, files])


TOKENS = ["x", "0", "1 2 3", "-1 2", "# c", "", "5 5", "0 0", " ", "\t1\t2",
          "1 2 # c", "٣ 1", "1_0 2", "+1 2", "1.0 2", "2 1", "99999 1",
          "0 1", "1 0", "3", "a b", "1 1"]


def malformed(rng: random.Random) -> str:
    """A small valid edge list with one to three random edits."""
    g = gnp(rng.randint(0, 6), 0.5, rng.randrange(1000))
    lines = write_graph(g).splitlines()
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(5)
        at = rng.randint(0, len(lines))
        if op == 0 and lines:
            del lines[min(at, len(lines) - 1)]
        elif op == 1 and lines:
            lines.insert(at, lines[min(at, len(lines) - 1)])
        elif op == 2:
            lines.insert(at, rng.choice(TOKENS))
        elif op == 3 and lines:
            lines[0] = f"{rng.randint(-2, 8)} {rng.randint(-2, 12)}"
        else:
            lines.insert(at, f"{rng.randint(-1, 8)} {rng.randint(-1, 8)}")
    return "\n".join(lines) + rng.choice(["\n", "", "\n\n"])


def parse_result(text: str):
    g = attempt(parse_graph, text)
    return g if isinstance(g, list) else [g.n, g.edges()]


def error_records() -> None:
    rng = random.Random(7)
    for i in range(3000):
        text = malformed(rng)
        emit(f"parse {text!r}", parse_result(text))
        if i % 4 == 0:
            emit(f"cli maxdeg --k 1 {text!r}", run_cli(["maxdeg", "--k", "1"], text))
    with open("bad.graph", "wb") as fh:
        fh.write(b"3 1\n0 1\n\xff\n")
    for argv in (
        ["maxdeg", "--k", "1", "bad.graph"], ["approx-maxdeg", "bad.graph"],
        ["maxdeg", "--k", "1", "missing.graph"], ["mindeg"], ["nope"], [],
        ["--help"], ["maxdeg", "--help"], ["brute", "--target", "Maxdeg", "--k", "1"],
        ["brute", "--target", "maxdeg", "--k", "1", "--cap", "3"],
        ["verify", "--target", "regular", "--k", "2", "--set", "0,x"],
        ["verify", "--target", "regular", "--k", "2", "--set", "0,9"],
        ["maxdeg", "--k", "x"],
    ):
        emit(f"cli {argv} C5", run_cli(argv, write_graph(cycle(5))))


def hard_cases():
    rng = random.Random(60)
    g60 = random_regular(rng, 60, 7)
    g60 = perturbed(rng, perturbed(rng, g60, "add"), "add")
    gadget = build_crg_reduction(circulant(80, (1, 3, 5, 7)), 3)
    return [
        ("maxdeg star(21) k=7", solve_max_deg_le, star(21), 7),
        ("mindeg gnp(30, 0.6, 7) k=17", solve_min_deg_ge, gnp(30, 0.6, 7), 17),
        ("maxdeg gnp(40, 0.3, 7) k=15", solve_max_deg_le, gnp(40, 0.3, 7), 15),
        ("regular 7-regular n=60 plus 2 edges k=7", solve_k_regular, g60, 7),
        ("maxdeg gadget of C_80(1,3,5,7) k=3", solve_max_deg_le,
         gadget.g_prime, gadget.k_prime),
    ]


def main_records() -> None:
    rng = random.Random(5)
    graphs = list(corpus())
    for i, (name, g) in enumerate(graphs):
        witnesses = graph_records(name, g, rng)
        if g.n <= 10 or i % 3 == 0:
            cli_records(name, g, witnesses)
    for name, g in (("cycle(4)", cycle(4)), ("cycle(5)", cycle(5)), ("prism", prism()),
                    ("complete(4)", complete(4)), ("C_12(1,3)", circulant(12, (1, 3))),
                    ("C_16(1,2,5)", circulant(16, (1, 2, 5))), ("path(4)", path(4)),
                    ("empty(3)", empty_graph(3)), ("Graph(0)", Graph(0))):
        reduce_records(name, g)
    error_records()
    for what, solve, g, k in hard_cases():
        emit(f"hard {what}", outcome(solve(g, k)))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        main_records()
