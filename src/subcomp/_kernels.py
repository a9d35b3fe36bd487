"""The subset-enumeration kernel of the brute-force oracle, in pure Python.

Adjacency is a sequence of int bitmasks, one row per vertex, row v never
containing bit v.  The kernel visits every subset, by size and then in
lexicographic order of the sorted member tuple, with no pruning, so its
results can serve as ground truth for the clever solvers.

Inside the kernel vertex v is bit n-1-v.  Among sets of one size, the
lexicographic order of member tuples is then decreasing mask order, so the
complement mask t of the set increases and Gosper's hack steps it to the
next mask with the same number of bits.  Masks are mapped back to vertex
numbering on the way out.

A target is the degree range [lo, hi] that every vertex must land in
(subcomp.oracle.degree_range).  A member b of S ends with neighborhood
N(b) xor (S minus b), so with degree |N(b) xor S| - 1.
"""

from __future__ import annotations

from collections.abc import Sequence

# The kernel implementation that benchmark results record.
BACKEND = "pure"


def _reverse(mask: int, n: int) -> int:
    """Swap bit v and bit n-1-v, for masks of n bits."""
    return int(f"{mask:0{n}b}"[::-1], 2)


def brute_force_search(rows: Sequence[int], n: int, lo: int, hi: int):
    """First subset S (by size, then lexicographic member order) whose
    complementation puts every degree in [lo, hi], as
    (found, mask, subsets_checked).
    """
    # Rows and degrees indexed by the kernel's bit b = n-1-v.
    rrows = [_reverse(rows[n - 1 - b], n) for b in range(n)]
    deg = [row.bit_count() for row in rrows]
    # A vertex outside S keeps its degree, so each of these must be in S.
    bad = sum(1 << b for b in range(n) if not lo <= deg[b] <= hi)
    full = (1 << n) - 1
    checked = 0
    for size in range(n + 1):
        t = (1 << (n - size)) - 1  # complement of {0, ..., size-1}
        while t <= full:
            checked += 1
            if not bad & t:
                s = full ^ t
                x = s
                while x:
                    low = x & -x
                    b = low.bit_length() - 1
                    d = (rrows[b] ^ s).bit_count() - 1
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
