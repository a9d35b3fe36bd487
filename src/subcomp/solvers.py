"""Exact and approximate solvers for single-complementation targets.

Everything here exploits two structural facts about a set S whose
complementation lands the graph in a bounded-degree class:

* a vertex outside S keeps its degree, so every vertex violating the
  target bound must be inside S (for max degree <= k this forces
  V_>k ⊆ S; for k-regular it forces V_!=k ⊆ S);
* if S contains any vertex of degree <= k and the result has max degree
  <= k, then |S| <= 2k+1 and the input max degree is at most 3k.

Together these give a certified 3-approximation for minimizing the
achievable max degree and one bounded-depth branching search, _search,
that serves both exact decisions: it grows S from the forced violators up
to |S| = 2k+1 on an explicit stack, drops every set with a member too far
from the target to get there within that bound, and for the k-regular
target also looks for a detached regular completion of each small enough
set.  Since every search set contains all the input violators, one scan
of S alone (_first_violator) decides whether a set is a witness.  All
searches use fixed minimum-id orders so witnesses are deterministic and
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from subcomp.graph import Graph, mask_of, members_of
from subcomp.oracle import SolveOutcome


@dataclass
class BranchStats:
    """Search instrumentation; carries no correctness weight.

    Filled in by _search for both exact decisions.  nodes counts candidate
    sets evaluated (the start set included; the candidates of the detached
    completion are not counted), max_depth counts vertices added beyond the
    start set (bounded by 2k+1), pruned_by_size counts sets cut at the
    |S| = 2k+1 cardinality bound, pruned_by_slack counts smaller sets with
    a member whose degree lies further from the target range than the
    2k+1 - |S| vertices still allowed can move it, and pruned_by_maxdeg
    (max-degree search only) counts sets whose minimum-id violator has no
    original neighbor left outside the set, so no child can repair it.
    """

    nodes: int = 0
    max_depth: int = 0
    pruned_by_size: int = 0
    pruned_by_slack: int = 0
    pruned_by_maxdeg: int = 0


@dataclass(frozen=True)
class ApproxResult:
    """Outcome of the max-degree minimization approximation.

    achieved_max_degree is exactly the max degree after complementing
    `witness`.  When the witness equals V_>lower_bound_k the value is the
    true optimum; otherwise lower_bound_k certifies OPT >= lower_bound_k >=
    achieved_max_degree / 3, so the value is always within factor 3.
    """

    achieved_max_degree: int
    witness: tuple[int, ...]
    lower_bound_k: int


# -- trivial targets ---------------------------------------------------


def trivial_low_min_degree_witness(g: Graph, k: int) -> tuple[int, ...]:
    """Witness set making min degree <= k: complementing N[v] isolates v.

    Always returns N[0], which leaves vertex 0 isolated, so the answer for
    "min degree <= k" is yes for every k >= 0.
    """
    if g.n == 0:
        raise ValueError("no vertex to isolate in the empty graph")
    return g.closed_neighborhood(0)


def trivial_high_max_degree_witness(g: Graph, k: int) -> tuple[int, ...] | None:
    """Witness set making max degree >= k, or None when k > n-1.

    Complementing V minus N(v) makes v universal (degree n-1); no graph on
    n vertices can reach degree k beyond that.
    """
    if k > g.n - 1:
        return None
    return members_of(((1 << g.n) - 1) & ~g._rows[0])


# -- the shared branching search ----------------------------------------


def _first_violator(
    g: Graph, smask: int, ssize: int, lo: int, hi: int, slack: int = 0
) -> tuple[int, int]:
    """Minimum-id member of S whose post-complementation degree leaves [lo, hi].

    Returns (violator, worst): the violator is -1 when every member
    complies, and worst is the largest distance of a member's degree from
    [lo, hi] seen by the scan.  The scan stops as soon as worst exceeds
    `slack`, so with the default 0 it ends at the first violator.  Only S
    is scanned: a vertex outside S keeps its degree, so the caller must
    know that those comply.
    """
    rows = g._rows
    first = -1
    worst = 0
    rest = smask
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        row = rows[v]
        d = row.bit_count() + ssize - 1 - 2 * (row & smask).bit_count()
        excess = lo - d if d < lo else d - hi
        if excess > worst:
            if first < 0:
                first = v
            worst = excess
            if worst > slack:
                break
        rest ^= low
    return first, worst


def _search(g: Graph, k: int, smask: int, regular: bool) -> SolveOutcome:
    """Depth-first growth of S from the forced start set, up to |S| = 2k+1.

    The start set holds every input violator (V_>k, or V_!=k when
    `regular`), and so does every set grown from it, which is what lets
    _first_violator scan S alone.  A set whose members all land in the
    target range is the witness.  Otherwise a set is pruned at the size
    bound, or by slack: a solution strictly containing the failed start set
    has at most 2k+1 vertices, and each vertex added to S moves the degree
    of every member by exactly one, so when some member of S lies further
    from the target range than 2k+1 - |S| no superset of S (detached
    completions included) is a solution.  Supersets of a pruned set are
    pruned too, so the prune skips no witness and changes none.  Surviving
    sets get children that add one vertex: for max degree <= k an original
    neighbor of the minimum-id violator (only that deletes one of its
    edges), for k-regular any neighbor of the set, after a set of size <= k
    has first tried find_regular_extension.  Children are visited in
    increasing id and sets already seen are skipped.  The stack holds one
    (set, size, untried children) frame per level, so the depth is bounded
    by 2k+1 and not by the recursion limit.
    """
    lo = k if regular else 0
    rows = g._rows
    limit = 2 * k + 1
    stats = BranchStats(nodes=1)
    ssize = smask.bit_count()
    viol, worst = _first_violator(g, smask, ssize, lo, k, limit - ssize)
    if viol < 0:
        return SolveOutcome(True, members_of(smask), stats.nodes, stats)
    # A solution would strictly contain the failed start set plus a vertex
    # of degree <= k, which caps the input max degree at 3k and, for max
    # degree, the start set at 2k vertices.
    if g.max_degree() > 3 * k or (not regular and ssize >= limit):
        return SolveOutcome(False, None, stats.nodes, stats)

    visited = {smask}
    stack = []
    while True:
        if ssize >= limit:
            stats.pruned_by_size += 1
        elif worst > limit - ssize:
            stats.pruned_by_slack += 1
        elif regular:
            near = smask
            for u in members_of(smask):
                near |= rows[u]
            if ssize <= k:
                cmask = find_regular_extension(g, smask, ssize, near, k)
                if cmask:
                    witness = members_of(smask | cmask)
                    return SolveOutcome(True, witness, stats.nodes, stats)
            stack.append((smask, ssize, near & ~smask))
        elif rows[viol] & ~smask:
            stack.append((smask, ssize, rows[viol] & ~smask))
        else:
            # Every vertex still outside S would raise the violator's degree.
            stats.pruned_by_maxdeg += 1

        while stack:
            parent, psize, untried = stack[-1]
            if not untried:
                stack.pop()
                continue
            low = untried & -untried
            stack[-1] = (parent, psize, untried ^ low)
            smask = parent | low
            if smask in visited:
                continue
            visited.add(smask)
            stats.nodes += 1
            stats.max_depth = max(stats.max_depth, len(stack))
            ssize = psize + 1
            viol, worst = _first_violator(g, smask, ssize, lo, k, limit - ssize)
            if viol < 0:
                return SolveOutcome(True, members_of(smask), stats.nodes, stats)
            break
        else:
            return SolveOutcome(False, None, stats.nodes, stats)


# -- max degree at most k ----------------------------------------------


def solve_max_deg_le(g: Graph, k: int) -> SolveOutcome:
    """Exact decision: can one complementation bring the max degree to <= k?

    Every solution must contain R = V_>k, so the search starts there.  If R
    itself fails, a solution would strictly contain R plus some low-degree
    vertex, which caps |S| at 2k+1 and the input max degree at 3k; both
    give immediate refutations.  Otherwise branch: the minimum-id vertex v
    still above the bound can only be fixed by pulling one of its original
    neighbors w into the set (that deletes the edge vw), so the children
    are S + {w} for each such w in increasing id.  Already-visited sets are
    skipped; the first compliant set in this DFS order is the witness.
    """
    rmask = mask_of(v for v, row in enumerate(g._rows) if row.bit_count() > k)
    return _search(g, k, rmask, regular=False)


# -- min degree at least k ---------------------------------------------


def solve_min_deg_ge(g: Graph, k: int) -> SolveOutcome:
    """Exact decision: can one complementation bring the min degree to >= k?

    Complementing commutes with taking the whole-graph complement, and min
    degree k in a graph is max degree n-1-k in its complement, so the same
    witness set answers (complement(G), n-k-1) for the max-degree solver.
    The branching is therefore bounded by n-k-1, not by k: cheap when k is
    close to n, expensive when k is small.
    """
    n = g.n
    if n == 0 or k == 0:
        return SolveOutcome(True, (), 1, BranchStats(nodes=1))
    if k > n - 1:
        return SolveOutcome(False, None, 1, BranchStats(nodes=1))
    return solve_max_deg_le(g.complement(), n - k - 1)


# -- minimize the max degree (3-approximation) --------------------------


def approx_min_max_degree(g: Graph) -> ApproxResult:
    """Certified 3-approximation of min over S of the resulting max degree.

    Sweep k upward.  If complementing V_>k already achieves max degree
    <= k, no smaller k was achievable (the sweep would have stopped), so
    the value is exactly optimal.  Otherwise max degree > 3k rules k out
    entirely; once the input max degree falls within 3k the empty set
    achieves it, and the optimum is at least k, giving the factor 3.
    """
    if g.n == 0:
        raise ValueError("the empty graph has no achievable max degree")
    degs = g.degrees()
    delta = max(degs)
    for k in range(g.n):
        rmask = mask_of(v for v, d in enumerate(degs) if d > k)
        rsize = rmask.bit_count()
        # Vertices outside R already have degree <= k, so scanning R decides.
        if _first_violator(g, rmask, rsize, 0, k)[0] < 0:
            achieved = max(
                g._degree_after_mask(rmask, rsize, v) for v in range(g.n)
            )
            return ApproxResult(achieved, members_of(rmask), k)
        if delta > 3 * k:
            continue
        return ApproxResult(delta, (), k)
    raise AssertionError("unreachable: the sweep always succeeds at k = n-1")


# -- k-regular ----------------------------------------------------------


def find_regular_extension(
    g: Graph, smask: int, ssize: int, near: int, k: int
) -> int:
    """Detached completion of a search set S for the k-regular target.

    Returns the mask of the first non-empty C, disjoint from N[S] (given as
    the mask `near`), such that complementing S + C makes the graph
    k-regular, or 0 when there is none.  This is a step of _search, which
    calls it only when S is non-empty, holds every vertex of degree != k,
    has |S| = `ssize` <= k, and the input max degree is at most 3k.

    After the complementation every member of C becomes adjacent to all of
    S, so |C| <= k; and a connected C lies within distance k-1 of any of
    its vertices, so for each start vertex v only subsets of the
    radius-(k-1) ball around v need checking.  Since C avoids N(S), every
    member b of S gains all of C and keeps its own edges, ending with
    degree d(b) + |S| + |C| - 1 - 2|N(b) & S|: the members must agree on
    one |C| in 1..k, or there is no completion.  Vertices outside S + C
    keep their degree k, so scanning S + C decides.  Enumeration is by
    start vertex, then lexicographic order, and the first verified
    completion wins.
    """
    rows = g._rows
    sizes = {
        k + 1 - ssize - rows[b].bit_count() + 2 * (rows[b] & smask).bit_count()
        for b in members_of(smask)
    }
    csize = sizes.pop()
    if sizes or not 1 <= csize <= k:
        return 0
    for v in range(g.n):
        if near >> v & 1:
            continue
        pool = [u for u in g.ball(v, k - 1) if u > v and not near >> u & 1]
        for tail in combinations(pool, csize - 1):
            cmask = 1 << v | mask_of(tail)
            if _first_violator(g, smask | cmask, ssize + csize, k, k)[0] < 0:
                return cmask
    return 0


def solve_k_regular(g: Graph, k: int) -> SolveOutcome:
    """Exact decision: can one complementation make the graph k-regular?

    Every solution contains V_!=k, and splits into a part S' whose induced
    components each touch V_!=k plus at most one detached component C that
    find_regular_extension can recover whenever |S'| <= k.  The search
    therefore grows S' from V_!=k one neighbor at a time; at each set it
    first tests the set itself, prunes at the |S| <= 2k+1 cardinality
    bound or by slack, then tries the detached completion, and otherwise
    branches on the neighbors of the current set in increasing id.  The
    direct test of V_!=k runs before the max-degree-3k refutation because
    that single candidate is the one solution shape the cardinality bound
    does not cover; an already k-regular graph (the empty graph included)
    passes it with the empty witness.
    """
    if 0 < g.n <= k:
        return SolveOutcome(False, None, 1, BranchStats(nodes=1))
    s0mask = mask_of(v for v, row in enumerate(g._rows) if row.bit_count() != k)
    return _search(g, k, s0mask, regular=True)
