"""Spans around the calls the CLI makes into each layer of subcomp.

The tracer wraps module attributes from outside (nothing under `src/`
changes): each wrapped call records a span (name, start, end, parent,
instance id) plus the work counts read from its return value.  Spans stay
in memory until the run ends; `layer_metrics` turns them into the per-layer
numbers, with a layer's self time being its duration minus the time of its
child spans.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

import subcomp.cli as cli
import subcomp.graph as graph
import subcomp.solvers as solvers

# subcomp.cli attribute -> span name.  solve_max_deg_le is wrapped apart:
# one wrapper serves its names in cli and in solvers, so direct maxdeg calls
# and the ones solve_min_deg_ge makes through its complement land in the
# same span.
_CLI_TARGETS = {
    "parse_graph": "cli.parse_graph",
    "Graph": "graph.build",
    "solve_min_deg_ge": "solvers.mindeg",
    "solve_k_regular": "solvers.regular",
    "approx_min_max_degree": "solvers.approx",
    "brute_force_solve": "oracle.brute",
    "check": "oracle.check",
    "build_crg_reduction": "reduction.build",
}


def _work(name: str, args: tuple, result) -> dict:
    """Counts a span contributes, read from its arguments and result."""
    if name == "cli.parse_graph":
        return {"bytes": len(args[0])}
    if name == "graph.build":
        return {"edges": result.m}
    if name in ("solvers.maxdeg", "solvers.regular"):
        st = result.stats
        return {
            "nodes": st.nodes,
            "pruned_by_size": st.pruned_by_size,
            "pruned_by_maxdeg": st.pruned_by_maxdeg,
        }
    if name == "oracle.brute":
        return {"subsets": result.nodes_explored}
    if name == "reduction.build" and result is not None:
        return {"gadget_vertices": result.g_prime.n}
    return {}


class Tracer:
    def __init__(self) -> None:
        # Each span: [name, start, end, parent index or -1, instance, work].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.instance = -1

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf_counter(), 0.0, parent, self.instance, {}]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        span[5] = _work(name, args, result)
        return result

    def rescale(self, mark: int, origin: float, factor: float) -> None:
        """Scale the spans recorded since `mark` about `origin`, as run.py
        scales the call that made them to the reference speed."""
        for span in self.spans[mark:]:
            span[1] = origin + (span[1] - origin) * factor
            span[2] = origin + (span[2] - origin) * factor

    def _wrap(self, name: str, fn):
        def wrapped(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapped

    @contextmanager
    def installed(self):
        """Wrap the layer entry points for the duration of the block."""
        maxdeg = self._wrap("solvers.maxdeg", solvers.solve_max_deg_le)
        patches = [
            (cli, attr, self._wrap(name, getattr(cli, attr)))
            for attr, name in _CLI_TARGETS.items()
        ]
        patches += [
            (cli, "solve_max_deg_le", maxdeg),
            (solvers, "solve_max_deg_le", maxdeg),
            (
                solvers,
                "find_regular_extension",
                self._wrap("solvers.completion", solvers.find_regular_extension),
            ),
            (
                graph.Graph,
                "complement",
                self._wrap("graph.complement", graph.Graph.complement),
            ),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, value in patches:
                setattr(owner, attr, value)
            yield self
        finally:
            for owner, attr, value in saved:
                setattr(owner, attr, value)


def write_spans(spans: list[list], path) -> None:
    """One JSON object per span, in the order the spans started."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, inst, work in spans:
            record = {"name": name, "start": start, "end": end}
            record.update(parent=parent, instance=inst, **work)
            fh.write(json.dumps(record) + "\n")


def _aggregate(spans: list[list]) -> dict[str, dict]:
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    agg: dict[str, dict] = {}
    for i, (name, start, end, _, _, work) in enumerate(spans):
        a = agg.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        a["s"] += end - start
        a["self_s"] += end - start - child_time[i]
        a["calls"] += 1
        for key, value in work.items():
            a[key] = a.get(key, 0) + value
    return agg


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], passes: int, overhead_share: float) -> dict:
    """Per-layer metrics, per pass of the corpus, as {name: (value, unit)}.

    Times and counts are divided by the number of passes, so counts repeat
    exactly for one seed however many passes fit in the run.
    """
    agg = _aggregate(spans)

    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0) / passes

    maxdeg_s = get("solvers.maxdeg", "s")
    regular_s = get("solvers.regular", "s")
    completion_s = get("solvers.completion", "s")
    build_s = get("graph.build", "s")
    parse_self = get("cli.parse_graph", "self_s")
    brute_s = get("oracle.brute", "s")
    return {
        "cli.self_s": (get("cli.main", "self_s"), "s"),
        "cli.parse_graph.self_s": (parse_self, "s"),
        "cli.parse_graph.MB_per_s": (
            _ratio(get("cli.parse_graph", "bytes") / 1e6, parse_self),
            "MB/s",
        ),
        "graph.build.s": (build_s, "s"),
        "graph.build.edges_per_s": (
            _ratio(get("graph.build", "edges"), build_s),
            "1/s",
        ),
        "graph.complement.s": (get("graph.complement", "s"), "s"),
        "graph.complement.calls": (get("graph.complement", "calls"), "count"),
        "solvers.maxdeg.s": (maxdeg_s, "s"),
        "solvers.maxdeg.calls": (get("solvers.maxdeg", "calls"), "count"),
        "solvers.maxdeg.nodes": (get("solvers.maxdeg", "nodes"), "count"),
        "solvers.maxdeg.pruned_by_size": (
            get("solvers.maxdeg", "pruned_by_size"),
            "count",
        ),
        "solvers.maxdeg.pruned_by_maxdeg": (
            get("solvers.maxdeg", "pruned_by_maxdeg"),
            "count",
        ),
        "solvers.maxdeg.nodes_per_s": (
            _ratio(get("solvers.maxdeg", "nodes"), maxdeg_s),
            "1/s",
        ),
        "solvers.mindeg.self_s": (get("solvers.mindeg", "self_s"), "s"),
        "solvers.regular.self_s": (get("solvers.regular", "self_s"), "s"),
        "solvers.regular.calls": (get("solvers.regular", "calls"), "count"),
        "solvers.regular.nodes": (get("solvers.regular", "nodes"), "count"),
        "solvers.regular.pruned_by_size": (
            get("solvers.regular", "pruned_by_size"),
            "count",
        ),
        "solvers.regular.nodes_per_verdict": (
            _ratio(
                get("solvers.regular", "nodes"), get("solvers.regular", "calls")
            ),
            "count",
        ),
        "solvers.completion.s": (completion_s, "s"),
        "solvers.completion.calls": (get("solvers.completion", "calls"), "count"),
        "solvers.completion.share": (_ratio(completion_s, regular_s), "ratio"),
        "solvers.approx.s": (get("solvers.approx", "s"), "s"),
        "oracle.brute.s": (brute_s, "s"),
        "oracle.brute.calls": (get("oracle.brute", "calls"), "count"),
        "kernels.subsets_checked": (get("oracle.brute", "subsets"), "count"),
        "kernels.subsets_per_s": (
            _ratio(get("oracle.brute", "subsets"), brute_s),
            "1/s",
        ),
        "oracle.check.s": (get("oracle.check", "s"), "s"),
        "oracle.check.calls": (get("oracle.check", "calls"), "count"),
        "reduction.build.s": (get("reduction.build", "s"), "s"),
        "reduction.gadget_vertices": (
            get("reduction.build", "gadget_vertices"),
            "count",
        ),
        "reduction.extract_clique.s": (
            get("reduction.extract_clique", "s"),
            "s",
        ),
        "trace.overhead_share": (overhead_share, "ratio"),
    }
