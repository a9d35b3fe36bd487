#!/usr/bin/env python3
"""Time the pure kernel against the compiled one on full subset sweeps.

Two workloads, both forcing exhaustive enumeration so the comparison is
honest: deciding k-regularity for a k the random graph cannot reach, and
minimizing the post-complementation max degree.  Run with larger --sizes
to stretch the gap; 2^n subsets are scanned per call.
"""

import argparse
import time
from array import array

from subcomp._kernels import BACKEND, REGULAR, pure
from subcomp.families import gnp


def best_of(fn, repeat):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def bench(label, make_pure, make_compiled, repeat):
    t_pure, r_pure = best_of(make_pure, repeat)
    line = f"{label:<26} pure {t_pure * 1e3:9.1f} ms"
    if make_compiled is not None:
        t_comp, r_comp = best_of(make_compiled, repeat)
        if r_comp != r_pure:
            raise SystemExit(f"kernel disagreement on {label}: {r_pure} vs {r_comp}")
        line += f"   compiled {t_comp * 1e3:9.1f} ms   speedup {t_pure / t_comp:6.1f}x"
    print(line)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[12, 14, 16])
    ap.add_argument("--p", type=float, default=0.5, help="edge probability")
    ap.add_argument("--k", type=int, default=3, help="regularity target")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    compiled = None
    if BACKEND == "compiled":
        from subcomp._kernels import _ckernels as compiled
    else:
        print("compiled kernel unavailable; timing the pure kernel only")

    for n in args.sizes:
        g = gnp(n, args.p, seed=args.seed)
        rows = g._rows
        rows64 = array("Q", rows)

        bench(
            f"regular k={args.k} sweep n={n}",
            lambda: pure.brute_force_search(rows, n, REGULAR, args.k),
            (lambda: compiled.brute_force_search(rows64, n, REGULAR, args.k))
            if compiled
            else None,
            args.repeat,
        )
        bench(
            f"min max degree     n={n}",
            lambda: pure.min_max_degree(rows, n),
            (lambda: compiled.min_max_degree(rows64, n)) if compiled else None,
            args.repeat,
        )


if __name__ == "__main__":
    main()
