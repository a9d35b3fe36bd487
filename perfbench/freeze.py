#!/usr/bin/env python3
"""Record the program's outputs on the benchmark corpora as frozen.json.

    python3 perfbench/freeze.py --seeds 0-19 [--workloads a,b]

For each workload and seed, one untraced pass runs through the correctness
gate; it must pass.  The SHA-256 of the corpus and of the pass transcript
(every call's exit code and stdout, in order) are stored, and later runs on
those seeds must reproduce the transcript byte for byte.  Re-freeze only
when a change means to alter answers or witnesses, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    ap.add_argument("--workloads", help="comma-separated; default all")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))

    sys.path.insert(0, str(run.SRC))
    import corpus as corpora

    names = args.workloads.split(",") if args.workloads else list(corpora.WORKLOADS)
    records = {}
    for workload in names:
        for seed in range(first, last + 1):
            corpus = corpora.build(workload, seed)
            _, _, transcripts, failures, _ = run.execute(corpus, 0.0, 1)
            if failures:
                print("\n".join(failures), file=sys.stderr)
                return 1
            records.setdefault(workload, {})[str(seed)] = {
                "corpus": corpus.digest(),
                "outputs": run.transcript_digest(transcripts[0]),
            }
            print(workload, seed, "frozen", flush=True)
    # Read back just before writing, so runs on other workloads can share it.
    frozen = json.loads(run.FROZEN.read_text()) if run.FROZEN.is_file() else {}
    for workload, seeds in records.items():
        frozen.setdefault(workload, {}).update(seeds)
    run.FROZEN.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
