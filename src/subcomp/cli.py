"""Command line front end: edge-list I/O, solver dispatch, JSON output.

Graph files are plain text: a header line "n m", then m lines "u v", with
blank lines and '#' comments ignored.  A header may declare at most
MAX_VERTICES (32,768) vertices: adjacency rows are bitmasks, so n vertices
can take up to n^2/8 bytes; `reduce` refuses, with exit 2, a gadget that
would be larger.  Decision subcommands print a single JSON object
{"answer", "witness", "target", ...} and exit 0 on yes, 1 on no, 2 on bad
input (a usage error, an unreadable or non-UTF-8 file, a malformed graph
or argument), 3 when the brute-force capacity guard refuses, and 4 on an
internal error (any other exception, reported on stderr, so that a crash
is never read as "no").  Output is byte-deterministic: keys are sorted
and witnesses are sorted id lists.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

from subcomp.graph import MAX_VERTICES, Graph
from subcomp.oracle import (
    DEFAULT_CAPACITY,
    CapacityError,
    SolveOutcome,
    TargetKind,
    TargetPredicate,
    brute_force_solve,
    check,
)
from subcomp.reduction import build_crg_reduction
from subcomp.solvers import (
    approx_min_max_degree,
    solve_k_regular,
    solve_max_deg_le,
    solve_min_deg_ge,
)

# Bound once: the benchmark tracer replaces the module attribute Graph with
# a plain function, which has no _from_rows.
_from_rows = Graph._from_rows


class GraphParseError(ValueError):
    """Malformed edge-list input; message carries a 1-based line number."""


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format into a Graph.

    Endpoints are normalized to (min, max); headers above MAX_VERTICES,
    self-loops, out-of-range ids, duplicate edges, and edge-count
    mismatches are rejected with the line number where they were noticed.
    Edges go straight into the adjacency rows, which also detect duplicates.
    """
    n = m = -1
    rows: list[int] = []
    count = 0
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if count == m:  # m is -1 until the header is read
            raise GraphParseError(
                f"line {lineno}: more than the declared {m} edges"
            )
        try:
            u, v = line.split()
            u, v = int(u), int(v)
        except ValueError:
            expected = "header 'n m'" if n < 0 else "edge 'u v'"
            raise GraphParseError(
                f"line {lineno}: expected {expected}, got {raw!r}"
            ) from None
        if n < 0:
            if u < 0 or v < 0:
                raise GraphParseError(
                    f"line {lineno}: header values must be non-negative"
                )
            if u > MAX_VERTICES:
                raise GraphParseError(
                    f"line {lineno}: {u} vertices exceed the limit of {MAX_VERTICES}"
                )
            n, m = u, v
            rows = [0] * n
            continue
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(
                f"line {lineno}: endpoint out of range 0..{n - 1}"
            )
        if rows[u] >> v & 1:
            raise GraphParseError(
                f"line {lineno}: duplicate edge {min(u, v)} {max(u, v)}"
            )
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        count += 1
    if n < 0:
        raise GraphParseError("line 1: missing header 'n m'")
    if count != m:
        raise GraphParseError(
            f"line {last_line}: declared {m} edges but found {count}"
        )
    return _from_rows(n, rows)


def write_graph(g: Graph) -> str:
    """Canonical serialization; parse_graph(write_graph(g)) == g."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _read_graph_arg(path: str) -> Graph:
    if path == "-":
        return parse_graph(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _decision_payload(
    outcome: SolveOutcome, target: TargetPredicate, with_stats: bool
) -> dict:
    payload = {
        "answer": "yes" if outcome.answer else "no",
        "witness": outcome.witness,
        "target": {"kind": target.kind.value, "k": target.k},
    }
    if with_stats and outcome.stats is not None:
        payload["stats"] = asdict(outcome.stats)
    return payload


def _parse_vertex_set(text: str) -> list[int]:
    if text.strip() == "":
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise GraphParseError(
            f"--set expects comma-separated vertex ids, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subcomp",
        description=(
            "Decide whether one subgraph complementation can land a graph "
            "in a degree-constrained class."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "graph",
            nargs="?",
            default="-",
            help="edge-list file, or '-' for stdin (default)",
        )

    for name, help_text in (
        ("maxdeg", "can max degree be brought to <= K?"),
        ("mindeg", "can min degree be brought to >= K?"),
        ("regular", "can the graph be made K-regular?"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_graph_arg(p)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--stats", action="store_true")

    p = sub.add_parser(
        "approx-maxdeg",
        help="3-approximate the smallest achievable max degree",
    )
    add_graph_arg(p)

    targets = [kind.value for kind in TargetKind]
    p = sub.add_parser("brute", help="exhaustive reference search")
    add_graph_arg(p)
    p.add_argument("--target", choices=targets, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_CAPACITY,
        help="refuse graphs with more vertices than this (exit 3)",
    )

    p = sub.add_parser("verify", help="check a witness set against a target")
    add_graph_arg(p)
    p.add_argument("--target", choices=targets, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--set", required=True, help="comma-separated ids, e.g. 0,3,7")

    p = sub.add_parser(
        "reduce",
        help="emit the clique-hardness gadget for a regular graph",
    )
    add_graph_arg(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True, metavar="PREFIX")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: building takes far longer than parsing.  The
    # parser holds no solver, so patches of the solvers still take effect.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return _run(args)
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def _run(args: argparse.Namespace) -> int:
    try:
        g = _read_graph_arg(args.graph)
        if args.command == "approx-maxdeg":
            _emit(asdict(approx_min_max_degree(g)))
            return 0

        if args.command == "reduce":
            inst = build_crg_reduction(g, args.k)
            if inst is None:
                _emit(
                    {
                        "answer": "no",
                        "reason": "k exceeds r+1; an r-regular graph has no "
                        "clique that large",
                    }
                )
                return 1
            graph_path = f"{args.out}.graph"
            blocks_path = f"{args.out}.blocks.json"
            with open(graph_path, "w", encoding="utf-8") as fh:
                fh.write(write_graph(inst.g_prime))
            sidecar = {
                "k_prime": inst.k_prime,
                "params": asdict(inst.params),
                "blocks": inst.blocks,
            }
            with open(blocks_path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
            _emit(
                {
                    "blocks": blocks_path,
                    "graph": graph_path,
                    "k_prime": inst.k_prime,
                    "vertices": inst.g_prime.n,
                }
            )
            return 0

        # maxdeg, mindeg, regular, brute and verify: one verdict path.
        kind = TargetKind(getattr(args, "target", None) or args.command)
        target = TargetPredicate(kind, args.k)
        if args.command == "verify":
            vertices = _parse_vertex_set(args.set)
            ok = check(g, vertices, target)
            outcome = SolveOutcome(ok, tuple(sorted(set(vertices))) if ok else None, 1)
        elif args.command == "brute":
            outcome = brute_force_solve(g, target, cap=args.cap)
        else:
            # Looked up on each call, so that patches of the module
            # attributes (tests, the benchmark tracer) take effect.
            solve = {
                "maxdeg": solve_max_deg_le,
                "mindeg": solve_min_deg_ge,
                "regular": solve_k_regular,
            }[args.command]
            outcome = solve(g, args.k)
        _emit(_decision_payload(outcome, target, getattr(args, "stats", False)))
        return 0 if outcome.answer else 1
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
