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
that serves all three exact decisions (min degree as max degree in the
complement, without building it).  It reads the target's degree range
[lo, hi] from oracle.degree_range, grows S from the forced violators (the
vertices of degree outside that range) up to |S| = 2k+1 on an explicit
stack, never adding a vertex that an earlier sibling of the set or of an
ancestor added, drops every set with a member too far from the target to
get there within that bound, and for the k-regular target also looks for
a detached regular completion of each small enough set.  Since every
search set contains all the input violators, one scan of S alone
(_first_violator) decides whether a set is a witness.  All searches use
fixed minimum-id orders so witnesses are deterministic and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count

from subcomp.graph import Graph, mask_of, members_of
from subcomp.oracle import SolveOutcome, TargetKind, degree_range


@dataclass
class BranchStats:
    """Search instrumentation; carries no correctness weight.

    Filled in by _search for all three exact decisions.  nodes counts
    candidate sets evaluated (the start set included; the candidates of the
    detached completion are not counted), max_depth counts vertices added
    beyond the start set (bounded by 2k+1), pruned_by_size counts sets cut
    at the |S| = 2k+1 cardinality bound, pruned_by_slack counts smaller sets
    with a member whose degree lies further from the target range than the
    2k+1 - |S| vertices still allowed can move it, and pruned_by_maxdeg
    (max- and min-degree searches) counts sets whose minimum-id violator
    has fewer original neighbors (for min degree: non-neighbors) outside
    the set and not excluded than its distance from the target range, so
    no descendant can repair it.
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
    """Witness set making max degree >= k, or None when k > n-1 or n = 0.

    Complementing V minus N(v) makes v universal (degree n-1); no graph on
    n vertices can reach degree k beyond that, and the empty graph has no
    vertex to make universal.
    """
    if not g.n or k > g.n - 1:
        return None
    return members_of(((1 << g.n) - 1) & ~g._rows[0])


# -- the shared branching search ----------------------------------------


def _first_violator(
    g: Graph, smask: int, lo: int, hi: int, slack: int = 0
) -> tuple[int, int, int]:
    """Minimum-id member of S whose post-complementation degree leaves [lo, hi].

    Returns (violator, need, worst): the violator is -1 when every member
    complies, need is the violator's own distance from [lo, hi] (0 when
    there is none), and worst is the largest distance of a member's degree
    from [lo, hi] seen by the scan.  The scan stops as soon as worst
    exceeds `slack`, so with the default 0 it ends at the first violator.
    Only S is scanned: a vertex outside S keeps its degree, so the caller
    must know that those comply.
    """
    rows = g._rows
    first = -1
    need = worst = 0
    rest = smask
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        d = (rows[v] ^ smask).bit_count() - 1  # v's new row is N(v) xor (S - v)
        excess = lo - d if d < lo else d - hi
        if excess > worst:
            if first < 0:
                first = v
                need = excess
            worst = excess
            if worst > slack:
                break
        rest ^= low
    return first, need, worst


def _search(g: Graph, k: int, kind: TargetKind) -> SolveOutcome:
    """Depth-first growth of S from the forced start set, up to |S| = 2K+1.

    The target range [lo, hi] comes from degree_range, and the bound K is k
    for max degree and k-regular.  Min degree >= k runs as the max-degree
    search on the complement at bound K = n-1-lo without building it: the
    complement's degrees are n-1-d(v), complementing S commutes with taking
    the complement, and the complement's neighbors of a member v of S
    outside S are the vertices outside S that are not neighbors of v in G.
    So it visits the same sets in the same order, with the same witness and
    counters.

    The start set holds every input violator (degree outside [lo, hi]), and
    so does every set grown from it, which is what lets _first_violator scan
    S alone.  The start set is the search's first node, and one loop
    evaluates it like every other set: a set whose members all land in the
    target range is the witness.  At the first node only, a failed start set
    refutes the whole search when the input spread (max degree, or the
    complement's) exceeds 3K or, for max and min degree, the set has 2K+1
    vertices or more, since a solution would strictly contain it plus a vertex
    of degree <= K.  One tuple of the input degrees gives both the start
    set and the spread.  Otherwise a set is pruned at the size bound, or by
    slack: a solution strictly containing the failed start set has at most
    2K+1 vertices, and each vertex added to S moves the degree of every
    member by exactly one, so when some member of S lies further from the
    target range than 2K+1 - |S| no superset of S (detached completions
    included) is a solution.  Supersets of a pruned set are pruned too, so
    the prune skips no witness and changes none.  Surviving sets get
    children that add one vertex: for max degree <= k an original neighbor
    of the minimum-id violator (only that deletes one of its edges), for min
    degree a non-neighbor of it (only that adds one), for k-regular any
    neighbor of the set, after a set of size < k has first tried
    find_regular_extension.  Children are visited in increasing id.

    Each set also carries `out`, the vertices excluded from its subtree:
    those its ancestors and its earlier siblings already added as children.
    A child inherits its parent's current `out`, and once the child has
    been taken the parent's `out` gains it.  The subtree of a set is complete for the
    solutions that contain the set and avoid its `out`, so a set holding
    an excluded u is a superset of the failed sibling that added u, and
    skipping it loses no solution; the sets that remain keep their order,
    so the witness is the one the search without exclusion finds.  Two
    paths that split add different children, and the later one excludes
    the earlier, so no set is reached twice.  `out` also bounds what the
    subtree can still add: for max and min degree every added vertex moves
    the minimum-id violator's degree by exactly one, toward the range only
    if it is one of the set's untried children, so a set with fewer of
    those than the violator's distance from the range is pruned.  The stack
    holds one (set, untried children, out) frame per level, so the depth is
    bounded by 2K+1 and not by the recursion limit; |S| is read off the set
    once per node.
    """
    n = g.n
    rows = g._rows
    regular = kind is TargetKind.REGULAR
    dual = kind is TargetKind.MIN_DEG_AT_LEAST
    lo, hi = degree_range(kind, k, n)
    bound = n - 1 - lo if dual else k
    limit = 2 * bound + 1
    # rows[v] ^ flip is v's row in the complement, plus v itself.
    flip = (1 << n) - 1 if dual else 0
    degs = g.degrees()
    smask = mask_of(v for v, d in enumerate(degs) if not lo <= d <= hi)
    stats = BranchStats()
    out = 0
    stack = []
    while True:
        stats.nodes += 1
        ssize = smask.bit_count()
        viol, need, worst = _first_violator(g, smask, lo, hi, limit - ssize)
        if viol < 0:
            return SolveOutcome(True, members_of(smask), stats.nodes, stats)
        if stats.nodes == 1:
            # A solution would strictly contain the failed start set plus a
            # vertex of degree <= K (in the complement, for min degree),
            # which caps the input max degree (the complement's) at 3K and,
            # for max and min degree, the start set at 2K vertices.
            spread = n - 1 - min(degs, default=0) if dual else max(degs, default=0)
            if spread > 3 * bound or (not regular and ssize >= limit):
                return SolveOutcome(False, None, stats.nodes, stats)

        if ssize >= limit:
            stats.pruned_by_size += 1
        elif worst > limit - ssize:
            stats.pruned_by_slack += 1
        elif regular:
            near = smask
            for u in members_of(smask):
                near |= rows[u]
            if ssize < k:
                cmask = find_regular_extension(g, smask, near, k)
                if cmask:
                    witness = members_of(smask | cmask)
                    return SolveOutcome(True, witness, stats.nodes, stats)
            stack.append((smask, near & ~smask & ~out, out))
        else:
            untried = (rows[viol] ^ flip) & ~smask & ~out
            if untried.bit_count() >= need:
                stack.append((smask, untried, out))
            else:
                # Only an untried child moves the violator toward the
                # target, by one; every other vertex the subtree can add
                # moves it away.
                stats.pruned_by_maxdeg += 1

        while stack and not stack[-1][1]:
            stack.pop()
        if not stack:
            return SolveOutcome(False, None, stats.nodes, stats)
        parent, untried, out = stack[-1]
        low = untried & -untried
        stack[-1] = (parent, untried ^ low, out | low)
        smask = parent | low
        stats.max_depth = max(stats.max_depth, len(stack))


# -- max degree at most k ----------------------------------------------


def solve_max_deg_le(g: Graph, k: int) -> SolveOutcome:
    """Exact decision: can one complementation bring the max degree to <= k?

    Every solution must contain R = V_>k, so the search starts there.  If R
    itself fails, a solution would strictly contain R plus some low-degree
    vertex, which caps |S| at 2k+1 and the input max degree at 3k; both
    give immediate refutations.  Otherwise branch: the minimum-id vertex v
    still above the bound can only be fixed by pulling one of its original
    neighbors w into the set (that deletes the edge vw), so the children
    are S + {w} for each such w in increasing id; the first compliant set
    in this DFS order is the witness.
    """
    return _search(g, k, TargetKind.MAX_DEG_AT_MOST)


# -- min degree at least k ---------------------------------------------


def solve_min_deg_ge(g: Graph, k: int) -> SolveOutcome:
    """Exact decision: can one complementation bring the min degree to >= k?

    Complementing commutes with taking the whole-graph complement, and min
    degree k in a graph is max degree n-1-k in its complement, so this is
    the max-degree decision for (complement(G), n-1-k).  _search runs that
    search on G itself at bound n-1-k, from V_<k: the witness and every
    counter are those of solve_max_deg_le(g.complement(), n-1-k), without
    the n x n complement.  The branching is therefore bounded by n-1-k, not
    by k: cheap when k is close to n, expensive when k is small.  The edge
    cases need no code of their own: at k = 0 (or n = 0) no vertex is out
    of range and the empty start set is the witness, and at k > n-1 the
    range is empty and the bound negative, so the spread test refutes the
    first node.
    """
    return _search(g, k, TargetKind.MIN_DEG_AT_LEAST)


# -- minimize the max degree (3-approximation) --------------------------


def approx_min_max_degree(g: Graph) -> ApproxResult:
    """Certified 3-approximation of min over S of the resulting max degree.

    Sweep k upward, keeping R = V_>k: R starts at V and loses the vertices
    of degree k at step k.  Every smaller k was ruled out (below), so if
    complementing R achieves max degree <= k the value is optimal, and it
    is k itself: were the achieved max degree a < k, no vertex would have a
    degree in (a, k] (one outside R keeps its degree), so R = V_>a and the
    sweep would have stopped at a.  Otherwise k is ruled out entirely when
    the input max degree exceeds 3k: R fails, and any larger solution
    holds a vertex of degree <= k, which caps it at 3k.  Once it falls
    within 3k the empty set achieves it and the optimum is at least k,
    giving the factor 3; that happens by k = ceil(max degree / 3), so the
    sweep always ends.
    """
    if g.n == 0:
        raise ValueError("the empty graph has no achievable max degree")
    degs = g.degrees()
    delta = max(degs)
    level = [0] * (delta + 1)
    for v, d in enumerate(degs):
        level[d] |= 1 << v
    rmask = (1 << g.n) - 1
    for k in count():
        lo, hi = degree_range(TargetKind.MAX_DEG_AT_MOST, k, g.n)
        rmask ^= level[k]
        # Vertices outside R already have degree <= k, so scanning R decides.
        if _first_violator(g, rmask, lo, hi)[0] < 0:
            return ApproxResult(k, members_of(rmask), k)
        if delta <= 3 * k:
            return ApproxResult(delta, (), k)


# -- k-regular ----------------------------------------------------------


def find_regular_extension(g: Graph, smask: int, near: int, k: int) -> int:
    """Detached completion of a search set S for the k-regular target.

    Returns the mask of the first non-empty C, disjoint from N[S] (given as
    the mask `near`), such that complementing S + C makes the graph
    k-regular, or 0 when there is none.  This is a step of _search, which
    calls it only when S is non-empty, holds every vertex of degree != k,
    has |S| < k, and the input max degree is at most 3k.

    Since C avoids N(S), every member b of S gains all of C and keeps its
    own edges, ending with degree d(b) + |S| + |C| - 1 - 2|N(b) & S|: the
    members must agree on one |C|, which is at most k, or there is no
    completion.  C has a shape too.  Each c in C has degree k (S holds
    every other degree) and no neighbor in S, so it ends with degree
    k + |S| + |C| - 1 - 2|N(c) & C|, and G[C] must be d-regular with
    d = (|S| + |C| - 1)/2.  So |S| + |C| is odd, and d <= |C| - 1 gives
    |C| >= |S| + 1 (hence |S| < k); a size that breaks either is refused
    before any ball is built.  Since S is non-empty, d >= |C|/2, so two
    members of C that are not adjacent have together at least |C|
    neighbors among the other |C| - 2 members, and share one: every
    completion lies within distance 2 (and, having at most k members,
    k - 1) of its least member v.  So only subsets of the ball of radius
    min(2, k - 1) around v need checking; it holds at most k^2 + 1
    vertices, since v and its neighbors have degree k.  Vertices outside
    S + C keep their degree k, so scanning S + C decides.  Enumeration is
    by start vertex, then lexicographic order, and the first verified
    completion wins.
    """
    ssize = smask.bit_count()
    sizes = {k - g._degree_after_mask(smask, b) for b in members_of(smask)}
    csize = sizes.pop()
    if sizes or not ssize < csize <= k or (ssize + csize) % 2 == 0:
        return 0
    for v in range(g.n):
        if near >> v & 1:
            continue
        ball = g.ball(v, min(2, k - 1))
        pool = [u for u in ball if u > v and not near >> u & 1]
        for tail in combinations(pool, csize - 1):
            cmask = 1 << v | mask_of(tail)
            if _first_violator(g, smask | cmask, k, k)[0] < 0:
                return cmask
    return 0


def solve_k_regular(g: Graph, k: int) -> SolveOutcome:
    """Exact decision: can one complementation make the graph k-regular?

    Every solution contains V_!=k, and splits into a part S' whose induced
    components each touch V_!=k plus at most one detached component C that
    find_regular_extension recovers; C needs |S'| < k.  The search
    therefore grows S' from V_!=k one neighbor at a time; at each set it
    first tests the set itself, prunes at the |S| <= 2k+1 cardinality
    bound or by slack, then tries the detached completion, and otherwise
    branches on the neighbors of the current set in increasing id.  The
    direct test of V_!=k runs before the max-degree-3k refutation because
    that single candidate is the one solution shape the cardinality bound
    does not cover; an already k-regular graph (the empty graph included)
    passes it with the empty witness.  When 0 < n <= k every vertex is in
    the start set and no completion fits outside it, so the search ends
    at its first node with nothing pruned.
    """
    return _search(g, k, TargetKind.REGULAR)
