"""Mutation check of the tier-1 tests with a fixed list of one-line mutants.

Usage, from the repository root:

    python3 tools/mutants.py

Each mutant replaces one piece of text, which must occur exactly once, in
one file of a fresh copy of src/, tests/, perfbench/ and pyproject.toml in a
temporary directory, and runs tier-1 there with -x.  A failing run, or
one that runs past TIMEOUT_S, kills the mutant.  The unmutated copy runs first and must pass, or every mutant
would look killed.  A mutant marked equivalent is expected to survive,
with the reason given; every other mutant must be killed.  The exit code
is 0 when every mutant meets its expectation and 1 otherwise (a mutant
whose text is no longer found counts as a failure, so the list follows
the code).  About ten seconds per surviving mutant; killed ones stop at
their first failing test.

Left out on purpose: calling the completion through a module alias takes
two lines.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    equivalent: str = ""  # why the mutant cannot change any result


SOLVERS = "src/subcomp/solvers.py"
GRAPH = "src/subcomp/graph.py"
ORACLE = "src/subcomp/oracle.py"
KERNEL = "src/subcomp/_kernels.py"
REDUCTION = "src/subcomp/reduction.py"
CLI = "src/subcomp/cli.py"

MUTANTS = [
    # The degree of a member v of S is |N(v) xor S| - 1, in its three homes.
    Mutant("violator-minus-2", SOLVERS,
           "d = (rows[v] ^ smask).bit_count() - 1",
           "d = (rows[v] ^ smask).bit_count() - 2"),
    Mutant("kernel-minus-2", KERNEL,
           "d = (rrows[b] ^ s).bit_count() - 1",
           "d = (rrows[b] ^ s).bit_count() - 2"),
    Mutant("degree-after-minus-2", GRAPH,
           "return (row ^ smask).bit_count() - 1",
           "return (row ^ smask).bit_count() - 2"),
    Mutant("complement-keeps-loop-bit", GRAPH,
           "rows[v] ^= smask ^ 1 << v",
           "rows[v] ^= smask"),
    Mutant("edge-count-not-halved", GRAPH,
           "return sum(r.bit_count() for r in self._rows) // 2",
           "return sum(r.bit_count() for r in self._rows)"),
    Mutant("one-sided-edge", GRAPH,
           "            rows[v] |= 1 << u\n        self.n = n",
           "            pass\n        self.n = n"),
    Mutant("ball-one-step-short", GRAPH,
           "for _ in range(radius):",
           "for _ in range(radius - 1):"),
    # |S| is read off the set at each node.
    Mutant("node-size-of-parent", SOLVERS,
           "        ssize = smask.bit_count()\n        viol",
           "        ssize = (stack[-1][0] if stack else smask).bit_count()\n        viol"),
    Mutant("completion-size-off-by-one", SOLVERS,
           "    ssize = smask.bit_count()\n    sizes",
           "    ssize = smask.bit_count() + 1\n    sizes"),
    # The completion pool and shape.
    Mutant("pool-radius-1", SOLVERS,
           "g.ball(v, min(2, k - 1))",
           "g.ball(v, min(1, k - 1))"),
    Mutant("completion-without-parity", SOLVERS,
           " or (ssize + csize) % 2 == 0:",
           ":"),
    Mutant("completion-size-from-1", SOLVERS,
           "not ssize < csize <= k",
           "not 1 <= csize <= k"),
    Mutant("completion-size-le", SOLVERS,
           "not ssize < csize <= k",
           "not ssize <= csize <= k",
           equivalent="|C| = |S| makes |S| + |C| even, which the parity test refuses"),
    Mutant("completion-called-at-k", SOLVERS,
           "            if ssize < k:",
           "            if ssize <= k:",
           equivalent="at |S| = k the size test |S| < |C| <= k refuses before any ball"),
    # Exclusion and availability in _search.
    Mutant("child-out-without-low", SOLVERS,
           "stack[-1] = (parent, untried ^ low, out | low)",
           "stack[-1] = (parent, untried ^ low, out)"),
    Mutant("maxdeg-children-keep-out", SOLVERS,
           "untried = (rows[viol] ^ flip) & ~smask & ~out",
           "untried = (rows[viol] ^ flip) & ~smask"),
    Mutant("regular-children-keep-out", SOLVERS,
           "stack.append((smask, near & ~smask & ~out, out))",
           "stack.append((smask, near & ~smask, out))"),
    Mutant("availability-strict", SOLVERS,
           "if untried.bit_count() >= need:",
           "if untried.bit_count() > need:"),
    Mutant("availability-reads-worst", SOLVERS,
           "if untried.bit_count() >= need:",
           "if untried.bit_count() >= worst:"),
    Mutant("need-of-last-violator", SOLVERS,
           "            worst = excess\n",
           "            worst = need = excess\n"),
    Mutant("start-refutation-at-node-2", SOLVERS,
           "if stats.nodes == 1:",
           "if stats.nodes == 2:"),
    Mutant("start-refutation-strict", SOLVERS,
           "(not regular and ssize >= limit)",
           "(not regular and ssize > limit)"),
    Mutant("excess-at-lo", SOLVERS,
           "excess = lo - d if d < lo else d - hi",
           "excess = lo - d if d <= lo else d - hi",
           equivalent="at d = lo both branches give a distance <= 0, never counted"),
    Mutant("slack-prune-ge", SOLVERS,
           "elif worst > limit - ssize:",
           "elif worst >= limit - ssize:"),
    Mutant("trivial-high-empty-graph", SOLVERS,
           "if not g.n or k > g.n - 1:",
           "if k > g.n - 1:"),
    # One degree tuple: the approximation's level sweep, the search's spread.
    Mutant("approx-removes-next-level", SOLVERS,
           "rmask ^= level[k]",
           "rmask ^= level[k + 1]"),
    Mutant("approx-stops-below-a-third", SOLVERS,
           "if delta <= 3 * k:",
           "if delta < 3 * k:"),
    Mutant("approx-reports-k-plus-1", SOLVERS,
           "return ApproxResult(k, members_of(rmask), k)",
           "return ApproxResult(k + 1, members_of(rmask), k)"),
    Mutant("spread-reads-min-degree", SOLVERS,
           "else max(degs, default=0)",
           "else min(degs, default=0)"),
    # The target ranges, the oracle and the reduction.
    Mutant("mindeg-range-short", ORACLE,
           "return k, n - 1",
           "return k, n - 2"),
    Mutant("sweep-starts-at-1", ORACLE,
           "for hi in range(delta):",
           "for hi in range(1, delta):"),
    Mutant("sweep-drops-witness", ORACLE,
           "return hi, members_of(mask)",
           "return hi, ()"),
    Mutant("sweep-end-short", ORACLE,
           "return delta, ()",
           "return delta - 1, ()"),
    Mutant("kernel-without-bad-reject", KERNEL,
           "if not bad & t:",
           "if True:"),
    Mutant("gadget-loop-bit", REDUCTION,
           "rows[x] |= ymask & ~(1 << x)",
           "rows[x] |= ymask"),
    Mutant("gadget-one-sided-join", REDUCTION,
           "            rows[y] |= xmask & ~(1 << y)",
           "            pass"),
    Mutant("capacity-exit-2", CLI,
           "return 3",
           "return 2"),
    # One grammar for the header and the edge lines.
    Mutant("parse-swaps-line-labels", CLI,
           "if n < 0 else",
           "if n >= 0 else"),
    Mutant("header-sign-check-drops-m", CLI,
           "if u < 0 or v < 0:",
           "if u < 0:"),
    Mutant("parse-misses-duplicates", CLI,
           "if rows[u] >> v & 1:",
           "if rows[u] >> u & 1:"),
    Mutant("tracer-counts-no-subsets", "perfbench/tracing.py",
           'return {"subsets": result.nodes_explored}',
           'return {"subsets": 0}'),
]


def _copy() -> Path:
    work = Path(tempfile.mkdtemp(prefix="subcomp-mutant-"))
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(
                src, work / name,
                ignore=shutil.ignore_patterns("__pycache__", "out", ".hypothesis"),
            )
        else:
            shutil.copy2(src, work / name)
    return work


def _tier1(work: Path) -> bool:
    """True when tier-1 passes in the copy."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    try:
        run = subprocess.run(
            cmd, cwd=work, env=env, capture_output=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def _run(mutant: Mutant | None) -> str:
    """'killed', 'survived' or 'stale' (text not found exactly once)."""
    work = _copy()
    try:
        if mutant is not None:
            target = work / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                return "stale"
            target.write_text(text.replace(mutant.old, mutant.new))
        return "survived" if _tier1(work) else "killed"
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    if _run(None) != "survived":
        print("tier-1 fails on the unmutated copy", file=sys.stderr)
        return 1
    tally: dict[str, int] = {}
    bad = 0
    for m in MUTANTS:
        outcome = _run(m)
        tally[outcome] = tally.get(outcome, 0) + 1
        ok = outcome == ("survived" if m.equivalent else "killed")
        bad += not ok
        note = f"  (equivalent: {m.equivalent})" if m.equivalent else ""
        print(f"{'ok ' if ok else 'BAD'} {outcome:8} {m.name}{note}", flush=True)
    counts = ", ".join(f"{n} {outcome}" for outcome, n in sorted(tally.items()))
    print(f"{len(MUTANTS)} mutants: {counts}; {bad} not as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
