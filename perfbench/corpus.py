"""The four workloads: seeded inputs, the CLI calls made on them, and the
correctness check of every call.

A workload turns a seed into a `Corpus`: graph files in the CLI edge-list
format plus an ordered list of `Call`s, each an argv for `subcomp.cli.main`
and a check of its exit code and JSON output.  The mix of instance kinds and
sizes is fixed per workload and only the graphs depend on the seed, so every
seed asks for the same kind of work.  A pass is sized to take about nine
seconds, so two fit in a run.  The search cost of a graph still depends
on the seed, so each workload is mostly many cheap instances whose costs
vary little (the variance of a pass's time per second of it is a few
milliseconds for every family that carries weight); that keeps a run's
figures from hanging on a few graphs.

Checks use ground truth that does not come from the solver under test
wherever one exists: planted answers, clique enumeration on the gadget
source, the brute-force oracle, the closed-form answers of `cli_bulk`, and
`oracle.check` on every yes-witness.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from typing import Callable

from subcomp.graph import Graph
from subcomp.oracle import check as oracle_check
from subcomp.oracle import max_deg_at_most, min_deg_at_least, regular
from subcomp.reduction import build_crg_reduction, extract_clique

import gen

TARGETS = {"maxdeg": max_deg_at_most, "mindeg": min_deg_at_least, "regular": regular}

# A check sees (exit code, parsed JSON output, all parsed outputs of this
# pass, tracer or None) and returns None when the call is correct, else a
# reason.
Check = Callable[[int, dict, list, object], "str | None"]


@dataclass
class Call:
    family: str
    argv: list[str]
    check: Check


@dataclass
class Corpus:
    calls: list[Call] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)

    def add_graph(self, n: int, edges: gen.Edges) -> str:
        name = f"g{len(self.files):04d}.graph"
        self.files[name] = gen.edge_list_text(n, edges)
        return name

    def add(self, family: str, argv: list[str], check: Check) -> int:
        self.calls.append(Call(family, argv, check))
        return len(self.calls) - 1

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        for c in self.calls:
            h.update(json.dumps(c.argv).encode() + b"\n")
        return h.hexdigest()


# -- checks ----------------------------------------------------------------


def decision(graph: Callable[[], Graph], kind: str, k: int, expect=None) -> Check:
    """A decision call: exit code 0 with "yes" or 1 with "no", the expected
    answer when one is known, and a yes-witness that `oracle.check`
    accepts."""

    def run(code, out, outs, tracer):
        if code not in (0, 1):
            return f"exit code {code}"
        if out.get("answer") != ("yes" if code == 0 else "no"):
            return f"answer {out.get('answer')!r} with exit code {code}"
        if expect is not None and out["answer"] != expect:
            return f"answer {out['answer']}, expected {expect}"
        if out["answer"] == "yes" and not oracle_check(
            graph(), out["witness"], TARGETS[kind](k)
        ):
            return f"witness {out['witness']} fails oracle.check"
        return None

    return run


def graph_of(text: str) -> Callable[[], Graph]:
    """The graph of an edge-list file, built only when a check needs it."""
    return lambda: Graph(*gen.read_edge_list(text))


def matches(ref: int, own: Check, keys: tuple[str, ...]) -> Check:
    """Passes `own` and agrees with the output of call `ref` on `keys`."""

    def run(code, out, outs, tracer):
        bad = own(code, out, outs, tracer)
        if bad:
            return bad
        got = [out.get(key) for key in keys]
        want = outs[ref] and [outs[ref].get(key) for key in keys]
        if got != want:
            return f"{got} differs from call {ref}: {want}"
        return None

    return run


def exact_output(expected: dict, code_expected: int) -> Check:
    def run(code, out, outs, tracer):
        if code != code_expected or out != expected:
            return f"got {code} {out}, expected {code_expected} {expected}"
        return None

    return run


def gadget_verdict(n: int, e: gen.Edges, kc: int, k_prime: int) -> Check:
    """The gadget verdict equals clique existence in the source, found by
    enumeration, and every yes-witness maps back through `extract_clique`
    to a kc-clique of the source."""
    inst = cache(lambda: build_crg_reduction(Graph(n, e), kc))
    truth = "yes" if gen.has_clique(n, e, kc) else "no"
    own = decision(lambda: inst().g_prime, "maxdeg", k_prime, expect=truth)
    have = set(e)

    def run(code, out, outs, tracer):
        bad = own(code, out, outs, tracer)
        if bad or out["answer"] == "no":
            return bad
        if tracer is None:
            clique = extract_clique(inst(), out["witness"])
        else:
            clique = tracer.call(
                "reduction.extract_clique", extract_clique, inst(), out["witness"]
            )
        if len(clique) != kc or any(p not in have for p in combinations(clique, 2)):
            return f"extract_clique gave {clique}, not a {kc}-clique of the source"
        return None

    return run


def reduce_report(expected: dict) -> Check:
    def run(code, out, outs, tracer):
        got = {key: out.get(key) for key in expected}
        if code != 0 or got != expected:
            return f"reduce exited {code} reporting {got}, expected {expected}"
        return None

    return run


# -- workloads -------------------------------------------------------------


def regular_search(rng: random.Random, tiny: bool) -> Corpus:
    """`regular --k K`, k in {3, 4}, n from 30 to 100.

    * Near-regular no-instances: a k-regular graph minus two vertex-disjoint
      edges.  Most of the time goes to k = 4 at n = 30 and 40 (40 and 100 ms
      each, costs within a third of the mean); one k = 4 graph at n = 100
      (about 0.7 s) brings the regime where the completion search takes
      most of the solver time.
    * Planted yes-instances: a k-regular H complemented on a random
      connected set S, with |S| cycling through 2..2k+1.

    Left out, because single instances run from 0.03 s to over 10 s at the
    seed commit and one of them would decide a whole run: removed edges
    that share an endpoint, and planted |S| = 5 at k = 4 (planted k = 4
    stays at n <= 60 for the other sizes).
    """
    c = Corpus()
    near = [(3, 40, 5), (3, 60, 5), (3, 80, 5), (3, 100, 5)]
    near += [(4, 30, 96), (4, 40, 32), (4, 100, 1)]
    planted = [(3, 40), (3, 60), (3, 80), (3, 100), (4, 40), (4, 60)]
    plant_sizes = {3: [2, 3, 4, 5, 6, 7], 4: [2, 3, 4, 6, 7, 8, 9]}
    if tiny:
        near = [(3, 12, 1), (4, 12, 1), (4, 16, 1)]
        planted = [(3, 12), (4, 16)]
    for k, n, count in near:
        for _ in range(count):
            e = gen.remove_disjoint_edges(rng, gen.random_regular(rng, n, k), 2)
            name = c.add_graph(n, e)
            c.add(
                f"near_k{k}",
                ["regular", "--k", str(k), name],
                decision(graph_of(c.files[name]), "regular", k),
            )
    for i, (k, n) in enumerate(planted * (1 if tiny else 6)):
        size = plant_sizes[k][i % len(plant_sizes[k])]
        h = gen.random_regular(rng, n, k)
        e = gen.complement_on(h, gen.random_connected_set(rng, n, h, size))
        name = c.add_graph(n, e)
        c.add(
            f"planted_k{k}",
            ["regular", "--k", str(k), name],
            decision(graph_of(c.files[name]), "regular", k, expect="yes"),
        )
    return c


def maxdeg_search(rng: random.Random, tiny: bool) -> Corpus:
    """The branching search without completion.

    * `maxdeg --k 5` on 5-regular graphs plus 2 edges at n = 100: many
      searches of about 9 ms (up to 20 ms) that take most of the time.
      k >= 6 with j = 2 is left out: single instances run from 0.01 s to
      over a minute at the seed commit, so one graph would decide a whole
      run's time and its peak memory (the visited set); at n = 200 the
      k = 5 costs spread four times as much per second of run.
    * Twins: `maxdeg` on k-regular graphs plus j edges at n = 100 and 300,
      each with `mindeg --k n-1-k` on its complement, which must return
      exactly the twin's answer and witness.  That is the same search on a
      dense graph, through `Graph.complement` and a parse of up to 44k
      edges; those parses cost more than the searches, so only these few
      graphs get a dual.
    * Clique gadgets: `reduce --k c` on a seeded r-regular source with
      n <= 10 and r <= 5, then `maxdeg --k k'` on the gadget.
    """
    c = Corpus()
    # (k, n, j, graphs, with a mindeg dual)
    mix = [(5, 100, 2, 630, False), (5, 100, 2, 16, True), (6, 100, 3, 16, True)]
    mix.append((6, 300, 3, 1, True))
    sources = [(8, 4), (8, 5), (9, 4), (10, 4), (10, 5)] * 2
    if tiny:
        mix, sources = [(5, 20, 2, 1, True), (6, 30, 3, 1, True)], [(8, 4)]
    for k, n, j, count, dual in mix:
        for _ in range(count):
            e = gen.add_edges(rng, n, gen.random_regular(rng, n, k), j)
            name = c.add_graph(n, e)
            twin = c.add(
                f"maxdeg_k{k}",
                ["maxdeg", "--k", str(k), name],
                decision(graph_of(c.files[name]), "maxdeg", k),
            )
            if dual:
                name = c.add_graph(n, gen.complement_edges(n, e))
                own = decision(graph_of(c.files[name]), "mindeg", n - 1 - k)
                c.add(
                    f"mindeg_dual_k{k}",
                    ["mindeg", "--k", str(n - 1 - k), name],
                    matches(twin, own, ("answer", "witness")),
                )
    for n, r in sources:
        for kc in range(3, r + 2):
            e = gen.random_regular(rng, n, r)
            t, s, a, b = n - kc + 1, n, r + 1, n + r - 2 * kc + 1
            k_prime = n + r - kc + 1
            prefix = f"gadget{len(c.calls):04d}"
            c.add(
                "gadget_reduce",
                ["reduce", "--k", str(kc), "--out", prefix, c.add_graph(n, e)],
                reduce_report(
                    {"k_prime": k_prime, "vertices": n + t + s + t * a + s * b}
                ),
            )
            c.add(
                "gadget_maxdeg",
                ["maxdeg", "--k", str(k_prime), prefix + ".graph"],
                gadget_verdict(n, e, kc, k_prime),
            )
    return c


def oracle_crosscheck(rng: random.Random, tiny: bool) -> Corpus:
    """`brute` and the exact solver on the same G(n, p) graph for all three
    targets; the exact answer must equal the brute one.  The bounds are
    chosen so that the brute sweeps either stop early or run through
    nearly all 2^n subsets, whatever the graph:

    * maxdeg at max - 1: a small set lowers every top vertex, so the answer
      is yes, found after a few hundred subsets;
    * mindeg at max: yes for about two graphs in five, found late in the
      sweep, no for the rest;
    * regular at max + 1: no, after all 2^n subsets.

    The two long sweeps take about 0.1 s each at n = 16 and carry most of
    the time.  Bounds nearer the middle of the degrees make the sweep stop
    at a set size that varies from graph to graph, and then a pass's time
    depends on the seed several times as much.  Eleven graphs in thirteen
    have n = 16, so the long sweeps are about three calls in ten, and the
    90th percentile call sits inside their band rather than at its edge."""
    c = Corpus()
    sizes = (8, 9) if tiny else (12, 14) + (16,) * 11
    for _ in range(1 if tiny else 3):
        for n in sizes:
            e = gen.gnp(rng, n, rng.uniform(0.2, 0.5))
            degs = [0] * n
            for u, v in e:
                degs[u] += 1
                degs[v] += 1
            name = c.add_graph(n, e)
            graph = cache(graph_of(c.files[name]))
            for kind, k in (
                ("maxdeg", max(max(degs) - 1, 0)),
                ("mindeg", max(degs)),
                ("regular", max(degs) + 1),
            ):
                ref = c.add(
                    f"brute_{kind}",
                    ["brute", "--target", kind, "--k", str(k), name],
                    decision(graph, kind, k),
                )
                c.add(
                    f"exact_{kind}",
                    [kind, "--k", str(k), name],
                    matches(ref, decision(graph, kind, k), ("answer",)),
                )
    return c


def cli_bulk(rng: random.Random, tiny: bool) -> Corpus:
    """Five subcommands on 4-regular graphs minus one edge uv, n from 2000
    to 10000 in steps of 320, so call times spread evenly rather than in
    a few bands.  Every solver stops at its first node, so parsing and
    `Graph` construction carry the time.  The answers follow from the
    construction: complementing {u, v} puts uv back."""
    c = Corpus()
    sizes = (60, 80) if tiny else range(2000, 10001, 320)
    for n in sizes:
        h = gen.random_regular(rng, n, 4)
        u, v = h[rng.randrange(len(h))]
        name = c.add_graph(n, [edge for edge in h if edge != (u, v)])
        uv = [u, v]
        for argv, code, out in (
            (["regular", "--k", "4"], 0, _answer("yes", uv, "regular", 4)),
            (["maxdeg", "--k", "3"], 1, _answer("no", None, "maxdeg", 3)),
            (["mindeg", "--k", "4"], 0, _answer("yes", uv, "mindeg", 4)),
            (
                ["approx-maxdeg"],
                0,
                {"achieved_max_degree": 4, "lower_bound_k": 2, "witness": []},
            ),
            (
                ["verify", "--target", "regular", "--k", "4", "--set", f"{u},{v}"],
                0,
                _answer("yes", uv, "regular", 4),
            ),
        ):
            c.add(f"bulk_{argv[0]}", argv + [name], exact_output(out, code))
    return c


def _answer(answer: str, witness, kind: str, k: int) -> dict:
    return {"answer": answer, "target": {"k": k, "kind": kind}, "witness": witness}


WORKLOADS = {
    "regular_search": regular_search,
    "maxdeg_search": maxdeg_search,
    "oracle_crosscheck": oracle_crosscheck,
    "cli_bulk": cli_bulk,
}


def build(workload: str, seed: int, tiny: bool = False) -> Corpus:
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, tiny)
