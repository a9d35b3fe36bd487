"""Kernel backend selection.

The compiled Cython kernels are preferred when the extension built; the
pure-Python module is the always-available fallback and the semantic
reference.  Selection happens once at import, per-call dispatch only
falls back for graphs the compiled path cannot represent (n > 64).
BACKEND names the kernel selected at import.
"""

from __future__ import annotations

from array import array

from subcomp._kernels import pure

# Target-kind encoding shared with the kernels.
MAXDEG_AT_MOST = 0
MINDEG_AT_LEAST = 1
REGULAR = 2

try:
    from subcomp._kernels import _ckernels as _compiled
except ImportError:
    _compiled = None

BACKEND = "compiled" if _compiled is not None else "pure"


def brute_force_search(rows, n: int, kind: int, k: int):
    """Dispatch to the fastest kernel able to handle the instance."""
    if _compiled is not None and n <= 64:
        return _compiled.brute_force_search(array("Q", rows), n, kind, k)
    return pure.brute_force_search(rows, n, kind, k)


def min_max_degree(rows, n: int):
    if _compiled is not None and n <= 64:
        return _compiled.min_max_degree(array("Q", rows), n)
    return pure.min_max_degree(rows, n)
