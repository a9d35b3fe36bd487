"""Immutable simple graphs with O(1) adjacency tests.

Vertices are the integers 0..n-1.  Internally every vertex stores its
neighborhood as an int bitmask (vertex v is bit 1 << v), which makes
adjacency queries, set algebra and the complementation primitives cheap
even without the compiled kernels.

Vertex sets cross the public API as plain iterables of ints on the way in
and as strictly increasing tuples on the way out; the canonical ordering
keeps all outputs deterministic and hashable.
"""

from __future__ import annotations

from collections.abc import Iterable

# Largest vertex count that the CLI reads from a header and that the
# hardness gadget may build: rows are bitmasks, so n vertices can take
# n^2/8 bytes (128 MB at 2^15), and the 10,000-vertex graphs of the
# cli_bulk benchmark workload still fit.
MAX_VERTICES = 1 << 15


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex ids into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def members_of(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into the canonical increasing vertex tuple."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Graph:
    """A finite, undirected, simple graph on vertices 0..n-1.

    Immutable after construction; all operations return new objects, so
    instances are safe to share freely (including across threads).
    """

    __slots__ = ("n", "_rows", "_m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        rows = [0] * n
        m = 0
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
            if not rows[u] >> v & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                m += 1
        self.n = n
        self._rows = tuple(rows)
        self._m = m

    @classmethod
    def _from_rows(cls, n: int, rows: Iterable[int]) -> "Graph":
        # Trusted fast path: rows must be a symmetric, loop-free adjacency.
        g = cls.__new__(cls)
        g.n = n
        g._rows = tuple(rows)
        g._m = sum(r.bit_count() for r in g._rows) // 2
        return g

    # -- basic queries -------------------------------------------------

    @property
    def m(self) -> int:
        return self._m

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        out = []
        for u in range(self.n):
            rest = self._rows[u] >> (u + 1) << (u + 1)
            for v in members_of(rest):
                out.append((u, v))
        return out

    def adjacent(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self._rows)

    def neighbor_mask(self, v: int) -> int:
        """Raw neighborhood bitmask of v (does not include v)."""
        self._check_vertex(v)
        return self._rows[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Open neighborhood N(v)."""
        self._check_vertex(v)
        return members_of(self._rows[v])

    def closed_neighborhood(self, v: int) -> tuple[int, ...]:
        """Closed neighborhood N[v] = N(v) plus v itself."""
        self._check_vertex(v)
        return members_of(self._rows[v] | 1 << v)

    def max_degree(self) -> int:
        """Maximum degree; 0 on the empty graph."""
        return max((r.bit_count() for r in self._rows), default=0)

    def min_degree(self) -> int:
        """Minimum degree; 0 on the empty graph."""
        return min((r.bit_count() for r in self._rows), default=0)

    def is_regular(self, k: int) -> bool:
        """True iff every vertex has degree exactly k (vacuously on n=0)."""
        return all(r.bit_count() == k for r in self._rows)

    # -- complementation -----------------------------------------------

    def subgraph_complement(self, vertices: Iterable[int]) -> "Graph":
        """The graph obtained by complementing the edges induced by the set.

        Edges with at least one endpoint outside the set are untouched; for
        u != v both inside it, uv is an edge of the result iff it is not an
        edge here.  Applying the same set twice is the identity.
        """
        smask = self._subset_mask(vertices)
        return self._complement_mask(smask)

    def _complement_mask(self, smask: int) -> "Graph":
        rows = list(self._rows)
        for v in members_of(smask):
            inside = rows[v] & smask
            flipped = smask & ~rows[v] & ~(1 << v)
            rows[v] = (rows[v] ^ inside) | flipped
        return Graph._from_rows(self.n, rows)

    def degree_after_complement(self, vertices: Iterable[int], v: int) -> int:
        """Degree of v after complementing the set, without materializing.

        For v outside the set the degree is unchanged.  For v inside, each
        of its in-set neighbors is lost and every in-set non-neighbor is
        gained, giving d(v) + |S| - 1 - 2 * |N(v) ∩ (S \\ {v})|.
        """
        self._check_vertex(v)
        smask = self._subset_mask(vertices)
        return self._degree_after_mask(smask, smask.bit_count(), v)

    def _degree_after_mask(self, smask: int, ssize: int, v: int) -> int:
        row = self._rows[v]
        if not smask >> v & 1:
            return row.bit_count()
        return row.bit_count() + ssize - 1 - 2 * (row & smask).bit_count()

    def degrees_after_complement(self, vertices: Iterable[int]) -> tuple[int, ...]:
        smask = self._subset_mask(vertices)
        ssize = smask.bit_count()
        return tuple(self._degree_after_mask(smask, ssize, v) for v in range(self.n))

    def complement(self) -> "Graph":
        """The edge complement over all vertex pairs."""
        full = (1 << self.n) - 1
        rows = [full & ~self._rows[v] & ~(1 << v) for v in range(self.n)]
        return Graph._from_rows(self.n, rows)

    # -- reachability --------------------------------------------------

    def ball(self, v: int, radius: int) -> tuple[int, ...]:
        """All vertices at distance at most `radius` from v, including v."""
        self._check_vertex(v)
        seen = 1 << v
        frontier = seen
        for _ in range(radius):
            nxt = 0
            for u in members_of(frontier):
                nxt |= self._rows[u]
            nxt &= ~seen
            if not nxt:
                break
            seen |= nxt
            frontier = nxt
        return members_of(seen)

    def components_within(self, vertices: Iterable[int]) -> list[tuple[int, ...]]:
        """Connected components of the induced subgraph, sorted by smallest member."""
        smask = self._subset_mask(vertices)
        comps = []
        remaining = smask
        while remaining:
            start = remaining & -remaining
            comp = start
            frontier = start
            while frontier:
                nxt = 0
                for u in members_of(frontier):
                    nxt |= self._rows[u] & smask
                nxt &= ~comp
                comp |= nxt
                frontier = nxt
            comps.append(members_of(comp))
            remaining &= ~comp
        return comps  # discovery order is by smallest member already

    # -- plumbing --------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")

    def _subset_mask(self, vertices: Iterable[int]) -> int:
        if isinstance(vertices, int):
            raise TypeError("expected an iterable of vertex ids, got a bare int")
        m = 0
        for v in vertices:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range [0, {self.n})")
            m |= 1 << v
        return m

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.n, self._rows))

    def __repr__(self) -> str:
        if self.n <= 8:
            return f"Graph({self.n}, {self.edges()})"
        return f"Graph(n={self.n}, m={self._m})"
