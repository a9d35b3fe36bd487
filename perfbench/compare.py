#!/usr/bin/env python3
"""Compare two sets of untraced benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the BENCH_<workload>_seed<n>_trace0.json files that
perfbench/run.py wrote for one commit.  The comparison is refused (exit 2)
when the two sides ran on different kernel backends or, for a seed both
sides ran, on different corpora: a pure-vs-compiled or generator change is
not a code change.  Otherwise it prints, per workload and end-to-end metric,
both medians, the change in the worse direction as a share of the base
median, and the bound from BENCHMARK.json; exit 1 if any change exceeds it.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted(Path(directory).glob("BENCH_*_trace0.json")):
        record = json.loads(path.read_text())
        prov = record["provenance"]
        runs[(prov["workload"], prov["seed"])] = record
    return runs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    backends = {r["provenance"]["backend"] for r in [*base.values(), *new.values()]}
    refused = []
    if len(backends) > 1:
        refused.append(f"kernel backends differ: {sorted(backends)}")
    for key in sorted(base.keys() & new.keys()):
        a, b = (side[key]["provenance"]["corpus_digest"] for side in (base, new))
        if a != b:
            refused.append(f"{key[0]} seed {key[1]}: corpus digests differ")
    if refused:
        for line in refused:
            print("REFUSED", line)
        return 2

    worse = False
    for workload in sorted({w for w, _ in base} | {w for w, _ in new}):
        sides = [
            [r for (w, _), r in sorted(side.items()) if w == workload]
            for side in (base, new)
        ]
        if not all(sides):
            print(f"{workload}: results on one side only")
            continue
        failed = [sum(r["failed"] for r in runs) for runs in sides]
        print(
            f"{workload}: runs {len(sides[0])} vs {len(sides[1])},"
            f" failed calls {failed[0]} vs {failed[1]}"
        )
        for m in spec["end_to_end"]:
            a, b = (
                statistics.median(r["metrics"][m["name"]]["value"] for r in runs)
                for runs in sides
            )
            change = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "WORSE" if change > m["bound"] else "ok"
            worse |= flag == "WORSE"
            print(
                f"  {m['name']:<18} {a:12.5g} -> {b:12.5g} {m['unit']:<4}"
                f"  worse by {change:+.3f} (bound {m['bound']})  {flag}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
