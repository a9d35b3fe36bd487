"""Hardness gadget: clique-on-regular-graphs to max-degree complementation.

Given an r-regular source graph on n vertices and a clique size k, the
builder emits a larger graph g' and a bound k' such that g' admits a
single complementation reaching max degree <= k' exactly when the source
has a k-clique.  The gadget glues four kinds of clique blocks around a
copy of the source:

* K_t joined to every source vertex and to all of K_s,
* K_s joined to all of K_t,
* one K_a pendant clique per K_t vertex, one K_b per K_s vertex,

with t = n-k+1, s = n, a = r+1, b = n+r-2k+1 and k' = n+r-k+1.  The K_t
and K_s blocks start above the degree bound, so any witness must swallow
both; the pendant cliques pin the block degrees so that the only freedom
left is choosing k mutually adjacent source vertices.

Witness translation runs both ways: forward_witness lifts a k-clique to a
complementation set, extract_clique recovers the clique from any valid
witness.  extract_clique doubles as a structural check; if a valid witness
ever yielded a non-clique the construction itself would be refuted, so
that path raises GadgetInvariantError instead of returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from subcomp.graph import MAX_VERTICES, Graph, members_of
from subcomp.oracle import check, max_deg_at_most


class GadgetInvariantError(RuntimeError):
    """A structural guarantee of the construction failed to hold."""


@dataclass(frozen=True)
class ReductionParams:
    n: int
    k: int
    r: int
    s: int
    t: int
    a: int
    b: int


@dataclass(frozen=True)
class ReductionInstance:
    """Built gadget: the graph, its degree bound, and the block layout.

    blocks maps a label to a half-open id range [lo, hi).  Labels are
    "source", "Kt", "Ks", and "Ka:<v>" / "Kb:<u>" where v, u are the
    instance ids of the K_t / K_s vertex the pendant clique attaches to.
    """

    g_prime: Graph
    k_prime: int
    blocks: dict[str, tuple[int, int]]
    params: ReductionParams

    def block_vertices(self, label: str) -> range:
        lo, hi = self.blocks[label]
        return range(lo, hi)


def build_crg_reduction(g: Graph, k: int) -> ReductionInstance | None:
    """Build the gadget for (g, k), or None when k > r+1.

    An r-regular graph has no clique larger than r+1, so k > r+1 is a
    trivially-no instance and no gadget exists for it (the block size b
    would go negative).  Requires k < n and r < n-1; a complete source
    graph makes the question trivial and the construction degenerate.
    A gadget above MAX_VERTICES vertices (n + t + s + t*a + s*b) raises
    ValueError before any edge is built.
    """
    if k < 0:
        raise ValueError(f"clique size must be non-negative, got {k}")
    degs = g.degrees()
    if len(set(degs)) > 1:
        raise ValueError(
            f"source graph is not regular: degrees range over {sorted(set(degs))}"
        )
    n = g.n
    if k >= n:
        raise ValueError(f"need k < n, got k = {k} with n = {n}")
    r = degs[0]
    if r == n - 1:
        raise ValueError(
            "source graph is complete; the reduction assumes r < n-1"
        )
    if k > r + 1:
        return None

    s = n
    t = n - k + 1
    a = r + 1
    b = n + r - 2 * k + 1
    k_prime = n + r - k + 1
    size = n + t + s + t * a + s * b
    if size > MAX_VERTICES:
        raise ValueError(
            f"the gadget would have {size} vertices, more than {MAX_VERTICES}"
        )

    edges = list(g.edges())
    kt_lo, kt_hi = n, n + t
    ks_lo, ks_hi = kt_hi, kt_hi + s
    blocks: dict[str, tuple[int, int]] = {
        "source": (0, n),
        "Kt": (kt_lo, kt_hi),
        "Ks": (ks_lo, ks_hi),
    }

    for u, v in combinations(range(kt_lo, kt_hi), 2):
        edges.append((u, v))
    for u, v in combinations(range(ks_lo, ks_hi), 2):
        edges.append((u, v))
    for u in range(n):
        for v in range(kt_lo, kt_hi):
            edges.append((u, v))
    for u in range(kt_lo, kt_hi):
        for v in range(ks_lo, ks_hi):
            edges.append((u, v))

    pos = ks_hi
    for v in range(kt_lo, kt_hi):
        blocks[f"Ka:{v}"] = (pos, pos + a)
        for x, y in combinations(range(pos, pos + a), 2):
            edges.append((x, y))
        for x in range(pos, pos + a):
            edges.append((v, x))
        pos += a
    for u in range(ks_lo, ks_hi):
        blocks[f"Kb:{u}"] = (pos, pos + b)
        for x, y in combinations(range(pos, pos + b), 2):
            edges.append((x, y))
        for x in range(pos, pos + b):
            edges.append((u, x))
        pos += b

    g_prime = Graph(pos, edges)
    params = ReductionParams(n=n, k=k, r=r, s=s, t=t, a=a, b=b)
    return ReductionInstance(g_prime, k_prime, blocks, params)


def forward_witness(inst: ReductionInstance, clique) -> tuple[int, ...]:
    """Lift a k-clique of the source block to a complementation witness.

    The witness is the clique together with the whole K_t and K_s blocks;
    complementing it detaches K_t from everything but its pendants, turns
    K_s into its own pendant neighborhood, and drops each clique vertex's
    degree to exactly k'.
    """
    p = inst.params
    cmask = inst.g_prime._subset_mask(clique)
    cset = members_of(cmask)
    if len(cset) != p.k:
        raise ValueError(f"expected a clique of size {p.k}, got {len(cset)}")
    if any(v >= p.n for v in cset):
        raise ValueError(f"clique {cset} is not contained in the source block")
    for u, v in combinations(cset, 2):
        if not inst.g_prime.adjacent(u, v):
            raise ValueError(f"vertices {u} and {v} are not adjacent")
    smask = cmask
    for label in ("Kt", "Ks"):
        lo, hi = inst.blocks[label]
        smask |= ((1 << (hi - lo)) - 1) << lo
    return members_of(smask)


def extract_clique(inst: ReductionInstance, witness) -> tuple[int, ...]:
    """Recover the source k-clique from a valid complementation witness.

    The witness must actually achieve max degree <= k'; that is checked
    first and a failure is a ValueError (caller handed in a non-witness).
    Beyond the precondition the construction guarantees the source part of
    the witness is a clique of size exactly k, so any violation of that is
    reported as GadgetInvariantError.
    """
    smask = inst.g_prime._subset_mask(witness)
    if not check(inst.g_prime, members_of(smask), max_deg_at_most(inst.k_prime)):
        raise ValueError(
            f"the given set does not bring the max degree under {inst.k_prime}"
        )
    p = inst.params
    cset = members_of(smask & ((1 << p.n) - 1))
    if len(cset) != p.k:
        raise GadgetInvariantError(
            f"witness meets the source block in {len(cset)} vertices, "
            f"expected {p.k}"
        )
    for u, v in combinations(cset, 2):
        if not inst.g_prime.adjacent(u, v):
            raise GadgetInvariantError(
                f"witness source vertices {u} and {v} are not adjacent"
            )
    return cset


def find_clique(g: Graph, k: int) -> tuple[int, ...] | None:
    """First k-clique of g in size-then-lex order, or None.

    Test oracle for the source problem; refuses graphs above 10 vertices.
    Note k = 0 returns the empty tuple (a clique, but falsy), so callers
    must compare against None.
    """
    if g.n > 10:
        raise ValueError("clique finder is a test oracle, capped at 10 vertices")
    if k < 0:
        raise ValueError(f"clique size must be non-negative, got {k}")
    for cand in combinations(range(g.n), k):
        if all(g.adjacent(u, v) for u, v in combinations(cand, 2)):
            return cand
    return None


def find_cliques(g: Graph, k: int) -> list[tuple[int, ...]]:
    """All k-cliques of g in lex order; same 10-vertex cap as find_clique."""
    if g.n > 10:
        raise ValueError("clique finder is a test oracle, capped at 10 vertices")
    if k < 0:
        raise ValueError(f"clique size must be non-negative, got {k}")
    return [
        cand
        for cand in combinations(range(g.n), k)
        if all(g.adjacent(u, v) for u, v in combinations(cand, 2))
    ]
