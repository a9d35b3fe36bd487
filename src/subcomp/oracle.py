"""Brute-force ground truth for the subgraph-complementation solvers.

Enumerates candidate sets in increasing size, ties broken lexicographically
on the sorted member list, so the returned witness is always the unique
minimum-cardinality, lexicographically-first one.  Deliberately free of any
pruning: this module is the oracle the clever solvers are validated
against, and must stay independent of them.

Each target class is a degree range [lo, hi] that every vertex must land
in; degree_range is its one definition, read by the kernel, by check and
by the solvers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from subcomp._kernels import brute_force_search
from subcomp.graph import Graph, members_of

if TYPE_CHECKING:  # solvers imports this module
    from subcomp.solvers import BranchStats

DEFAULT_CAPACITY = 25


class TargetKind(enum.Enum):
    MAX_DEG_AT_MOST = "maxdeg"
    MIN_DEG_AT_LEAST = "mindeg"
    REGULAR = "regular"


def degree_range(kind: TargetKind, k: int, n: int) -> tuple[int, int]:
    """The range [lo, hi] that every degree of an n-vertex graph must lie
    in for the target: [0, k] for max degree <= k, [k, n-1] for min degree
    >= k (empty when k > n-1), and [k, k] for k-regular.  k is not checked
    here, since the solvers pass on whatever k their caller gave."""
    if kind is TargetKind.MAX_DEG_AT_MOST:
        return 0, k
    if kind is TargetKind.MIN_DEG_AT_LEAST:
        return k, n - 1
    return k, k


@dataclass(frozen=True)
class TargetPredicate:
    """Degree-based target class: max degree <= k, min degree >= k, or k-regular."""

    kind: TargetKind
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"target degree bound must be non-negative, got {self.k}")


def max_deg_at_most(k: int) -> TargetPredicate:
    return TargetPredicate(TargetKind.MAX_DEG_AT_MOST, k)


def min_deg_at_least(k: int) -> TargetPredicate:
    return TargetPredicate(TargetKind.MIN_DEG_AT_LEAST, k)


def regular(k: int) -> TargetPredicate:
    return TargetPredicate(TargetKind.REGULAR, k)


@dataclass(frozen=True)
class SolveOutcome:
    """Decision plus witness; nodes_explored counts candidate sets evaluated."""

    answer: bool
    witness: tuple[int, ...] | None
    nodes_explored: int
    stats: BranchStats | None = None  # set when a branching solver ran

    def __post_init__(self):
        if self.answer and self.witness is None:
            raise ValueError("a yes outcome must carry a witness")
        if not self.answer and self.witness is not None:
            raise ValueError("a no outcome must not carry a witness")


class CapacityError(Exception):
    """Raised when an instance exceeds the brute-force capacity guard."""


def _guard_capacity(n: int, cap: int) -> None:
    if n > cap:
        raise CapacityError(
            f"brute force over 2^{n} subsets exceeds the capacity guard "
            f"(n = {n} > cap = {cap}); pass a larger cap to override"
        )


def check(g: Graph, vertices, target: TargetPredicate) -> bool:
    """True iff complementing the given set lands the graph in the target class."""
    smask = g._subset_mask(vertices)
    lo, hi = degree_range(target.kind, target.k, g.n)
    return all(lo <= g._degree_after_mask(smask, v) <= hi for v in range(g.n))


def brute_force_solve(g: Graph, target: TargetPredicate, cap: int = DEFAULT_CAPACITY) -> SolveOutcome:
    """Exhaustive decision over all 2^n candidate sets.

    Refuses graphs larger than `cap` vertices (default 25) rather than
    silently truncating; raise the cap explicitly if you can afford the
    2^n enumeration.
    """
    _guard_capacity(g.n, cap)
    lo, hi = degree_range(target.kind, target.k, g.n)
    found, mask, checked = brute_force_search(g._rows, g.n, lo, hi)
    return SolveOutcome(found, members_of(mask) if found else None, checked)


def brute_force_min_max_degree(g: Graph, cap: int = DEFAULT_CAPACITY) -> tuple[int, tuple[int, ...]]:
    """Exact optimum of min over all sets S of the post-complementation max
    degree, with the first optimal S in size-then-lex order.  Ground truth
    for the approximation guarantee.

    Sweeps the bound hi upward from 0 with the subset kernel: the optimum
    is the first hi that some set reaches, and the kernel's first set at
    that hi is the first optimal set.  The empty set reaches the max degree
    itself, so the sweep stops below it, and reaching the end means that no
    set beats the empty one.
    """
    _guard_capacity(g.n, cap)
    delta = g.max_degree()
    for hi in range(delta):
        found, mask, _ = brute_force_search(g._rows, g.n, 0, hi)
        if found:
            return hi, members_of(mask)
    return delta, ()
