"""Scaling measured times to a fixed machine speed.

On a shared host the speed of one core swings by up to 2x for seconds at a
time, as other tenants come and go; a run's times then say more about the
neighbours than about the program.  A fixed pure-Python kernel is timed
before and after every call: big-int AND and popcount, the solvers' inner
step, then building small tuples and a dict, as parsing and the search's
bookkeeping do (the allocation part follows the slow spells of the
parse-heavy workloads that the arithmetic alone misses).  The call's time
is scaled by how much slower or faster than REFERENCE_S the kernel ran
around it.  The kernel does not depend on subcomp, so a change to the
program moves the scaled times exactly as it moves the raw ones; only the
host's speed drops out.

This module imports nothing but `time`, so the set-up probe can load it in a
fresh interpreter without paying for, or pre-loading, what subcomp.cli
imports.
"""

from time import perf_counter

# The kernel's time on the machine the benchmark was written on (a 2-vCPU
# x86-64 sandbox, CPython 3.11) at its usual speed.  Scaled times read as
# seconds on that machine; the constant only sets the scale.
REFERENCE_S = 150e-6

_ROWS = [(i * 0x9E3779B97F4A7C15) ** 3 & ((1 << 256) - 1) for i in range(1, 31)]


def probe_s() -> float:
    """Median of three timings of the kernel."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for r in _ROWS:
            for s in _ROWS[:20]:
                acc += (r & s).bit_count()
        pairs = [(i, i + 1) for i in range(400)]
        index = {i: pairs[i] for i in range(0, 400, 2)}
        del pairs, index
        times.append(perf_counter() - t0)
    return sorted(times)[1]


def factor(before: float, after: float) -> float:
    """Scale for a time measured between kernel timings `before` and
    `after`."""
    return 2 * REFERENCE_S / (before + after)
