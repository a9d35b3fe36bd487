"""Parent-vs-change identity sweep: the same records from two trees' src/.

Usage, from the repository root:

    python3 tools/sweep.py REV

Exports REV's src/ with `git archive REV src | tar -x` into a temporary
directory and runs the one record generator, tools/sweep_records.py, under
that src/ and under this checkout's src/, each in a fresh interpreter with
its own hash seed, so that output which hangs on set or dict order shows
up as a difference even for REV = HEAD.  The two record streams must be
equal line for line.  On a difference the first differing record is
printed with its input.  Either way the node counts of the hard cases
are printed, REV against this checkout.  The exit code is 0 when the
streams are equal and 1 otherwise, and 2 on a usage error or when git
cannot archive REV (git's message is printed).  It takes about half a
minute on two cores; it is not part of tier-1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ROOT / "tools" / "sweep_records.py"


def _start(src: Path, out, hash_seed: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed,
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen([sys.executable, str(RECORDS)], env=env, stdout=out)


def _hard_nodes(lines: list[str]) -> dict[str, int]:
    found = {}
    for line in lines:
        what, result = json.loads(line)
        if what.startswith("hard "):
            found[what[5:]] = result["nodes"]
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rev = argv[0]
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT,
                             capture_output=True)
    if archive.returncode:
        sys.stderr.buffer.write(archive.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="subcomp-sweep-") as tmp:
        work = Path(tmp)
        subprocess.run(["tar", "-x", "-C", str(work)], input=archive.stdout,
                       check=True)
        sides = {rev: work / "src", "this checkout": ROOT / "src"}
        outs = {side: open(work / f"records-{i}.jsonl", "w+")
                for i, side in enumerate(sides)}
        runs = {side: _start(src, outs[side], str(i + 1))
                for i, (side, src) in enumerate(sides.items())}
        codes = {side: run.wait() for side, run in runs.items()}
        lines = {}
        for side, fh in outs.items():
            fh.seek(0)
            lines[side] = fh.read().splitlines()
            fh.close()
    for side, code in codes.items():
        if code:
            print(f"the records of {side} stopped with exit code {code}")
            return 1

    old, new = lines[rev], lines["this checkout"]
    old_nodes, new_nodes = _hard_nodes(old), _hard_nodes(new)
    for what in dict.fromkeys([*old_nodes, *new_nodes]):
        print(f"{what}: nodes {old_nodes.get(what)} at {rev}, "
              f"{new_nodes.get(what)} here")
    for i, (a, b) in enumerate(zip(old, new)):
        if a != b:
            what = json.loads(a)[0]
            print(f"record {i + 1} differs: {what}")
            print(f"  {rev}: {json.dumps(json.loads(a)[1])}")
            print(f"  here: {json.dumps(json.loads(b)[1])}")
            return 1
    if len(old) != len(new):
        print(f"{len(old)} records at {rev}, {len(new)} here")
        return 1
    print(f"{len(new)} records, all equal")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
