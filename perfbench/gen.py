"""Seeded graph generators for the benchmark corpora.

Every generator takes a `random.Random` that the caller seeded from the
workload seed, so one seed always yields the same graphs.  Graphs are
plain `(n, edges)` pairs with `u < v` edges in sorted order; the benchmark
writes them in the CLI edge-list format and the program only ever sees
those files.
"""

from __future__ import annotations

import random
from itertools import combinations

Edges = list[tuple[int, int]]


def random_regular(rng: random.Random, n: int, d: int) -> Edges:
    """A random simple d-regular graph on n vertices.

    Pairing model with restarts: draw two of the remaining half-edges at
    random and join them when they make a new simple edge.  When 100 draws
    in a row fail, the partial pairing is abandoned and drawing starts over
    from scratch.
    """
    if d >= n or n * d % 2:
        raise ValueError(f"no simple {d}-regular graph on {n} vertices")
    while True:
        edges = _try_pairing(rng, n, d)
        if edges is not None:
            return sorted(edges)


def _try_pairing(rng: random.Random, n: int, d: int) -> set | None:
    edges: set[tuple[int, int]] = set()
    stubs = [v for v in range(n) for _ in range(d)]
    while stubs:
        for _ in range(100):
            i, j = rng.randrange(len(stubs)), rng.randrange(len(stubs))
            u, v = sorted((stubs[i], stubs[j]))
            if u != v and (u, v) not in edges:
                break
        else:
            return None
        edges.add((u, v))
        for idx in sorted((i, j), reverse=True):
            stubs[idx] = stubs[-1]
            stubs.pop()
    return edges


def remove_disjoint_edges(rng: random.Random, edges: Edges, j: int) -> Edges:
    """Drop j edges chosen uniformly among sets of j edges with 2j distinct
    endpoints."""
    while True:
        gone = rng.sample(edges, j)
        if len({v for e in gone for v in e}) == 2 * j:
            return [e for e in edges if e not in gone]


def add_edges(rng: random.Random, n: int, edges: Edges, j: int) -> Edges:
    """Add j distinct non-edges chosen uniformly."""
    have = set(edges)
    while j:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in have:
            have.add((u, v))
            j -= 1
    return sorted(have)


def complement_edges(n: int, edges: Edges) -> Edges:
    """Edges of the whole-graph complement."""
    have = set(edges)
    return [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in have
    ]


def random_connected_set(
    rng: random.Random, n: int, edges: Edges, size: int
) -> list[int]:
    """A random connected vertex set of the given size, grown from a random
    start by adding random frontier vertices.  A start whose component is
    too small is dropped and another one drawn."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    while True:
        chosen = {rng.randrange(n)}
        frontier = set(adj[next(iter(chosen))])
        while len(chosen) < size and frontier:
            w = rng.choice(sorted(frontier))
            chosen.add(w)
            frontier |= adj[w]
            frontier -= chosen
        if len(chosen) == size:
            return sorted(chosen)


def complement_on(edges: Edges, subset: list[int]) -> Edges:
    """Edges of G complemented on `subset` (flip every pair inside it)."""
    have = set(edges)
    for pair in combinations(sorted(subset), 2):
        if pair in have:
            have.remove(pair)
        else:
            have.add(pair)
    return sorted(have)


def gnp(rng: random.Random, n: int, p: float) -> Edges:
    return [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]


def has_clique(n: int, edges: Edges, k: int) -> bool:
    """Plain enumeration: does the graph contain k mutually adjacent vertices?"""
    have = set(edges)
    return any(
        all(pair in have for pair in combinations(cand, 2))
        for cand in combinations(range(n), k)
    )


def read_edge_list(text: str) -> tuple[int, Edges]:
    """Inverse of edge_list_text."""
    lines = text.splitlines()
    n = int(lines[0].split()[0])
    return n, [tuple(map(int, line.split())) for line in lines[1:]]


def edge_list_text(n: int, edges: Edges) -> str:
    """The CLI's graph file format: header "n m", then one "u v" per line."""
    lines = [f"{n} {len(edges)}"]
    lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"
