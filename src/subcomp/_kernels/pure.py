"""Pure-Python subset-enumeration kernels.

Adjacency is a sequence of int bitmasks, one row per vertex, row v never
containing bit v.  Both kernels visit every subset, by size and then in
lexicographic order of the sorted member tuple, with no pruning, so their
results can serve as ground truth for the clever solvers.

Inside a kernel vertex v is bit n-1-v.  Among sets of one size, the
lexicographic order of member tuples is then decreasing mask order, so the
complement mask t of the set increases and Gosper's hack steps it to the
next mask with the same number of bits.  Masks are mapped back to vertex
numbering on the way out.

A target is the degree range [lo, hi] that every vertex must land in
(subcomp.oracle.degree_range).
"""

from __future__ import annotations

from collections.abc import Sequence


def _reverse(mask: int, n: int) -> int:
    """Swap bit v and bit n-1-v, for masks of n bits."""
    return int(f"{mask:0{n}b}"[::-1], 2)


def _reversed_rows(rows: Sequence[int], n: int):
    """Rows and degrees indexed by the kernel's bit b = n-1-v."""
    rrows = [_reverse(rows[n - 1 - b], n) for b in range(n)]
    return rrows, [row.bit_count() for row in rrows]


def brute_force_search(rows: Sequence[int], n: int, lo: int, hi: int):
    """First subset S (by size, then lexicographic member order) whose
    complementation puts every degree in [lo, hi], as
    (found, mask, subsets_checked).
    """
    rrows, deg = _reversed_rows(rows, n)
    # A vertex outside S keeps its degree, so each of these must be in S.
    bad = sum(1 << b for b in range(n) if not lo <= deg[b] <= hi)
    full = (1 << n) - 1
    checked = 0
    for size in range(n + 1):
        t = (1 << (n - size)) - 1  # complement of {0, ..., size-1}
        base = size - 1
        while t <= full:
            checked += 1
            if not bad & t:
                s = full ^ t
                x = s
                while x:
                    low = x & -x
                    b = low.bit_length() - 1
                    d = deg[b] + base - 2 * (rrows[b] & s).bit_count()
                    if not lo <= d <= hi:
                        break
                    x ^= low
                else:
                    return True, _reverse(s, n), checked
            if not t:  # size == n has the one set V
                break
            c = t & -t  # Gosper's hack: next larger mask with as many bits
            r = t + c
            t = (((r ^ t) >> 2) // c) | r
    return False, 0, checked


def min_max_degree(rows: Sequence[int], n: int):
    """Minimum over all subsets S of the post-complementation max degree.

    Returns (value, mask) where mask is the first optimal subset in the
    size-then-lex enumeration order.
    """
    rrows, deg = _reversed_rows(rows, n)
    full = (1 << n) - 1
    best = n  # max degree is at most n - 1, so this is beaten immediately
    best_mask = 0
    high = 0  # vertices of degree >= best: S must hold them all to beat best
    for size in range(n + 1):
        t = (1 << (n - size)) - 1
        base = size - 1
        while t <= full:
            if not high & t:
                s = full ^ t
                worst = 0
                x = s
                while x:
                    low = x & -x
                    b = low.bit_length() - 1
                    d = deg[b] + base - 2 * (rrows[b] & s).bit_count()
                    if d >= best:
                        break
                    if d > worst:
                        worst = d
                    x ^= low
                else:
                    best = max([worst] + [deg[b] for b in range(n) if t >> b & 1])
                    best_mask = s
                    high = sum(1 << b for b in range(n) if deg[b] >= best)
            if not t:
                break
            c = t & -t
            r = t + c
            t = (((r ^ t) >> 2) // c) | r
    return best, _reverse(best_mask, n)
