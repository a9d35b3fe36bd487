"""The subset-enumeration kernel of the brute-force oracle, in `pure`.

BACKEND names the kernel implementation that benchmark results record.
"""

BACKEND = "pure"
