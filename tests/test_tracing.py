"""The benchmark tracer must still find every layer the CLI calls.

perfbench/tracing.py wraps `subcomp.cli` and `subcomp.solvers` attributes
by name and reads counters from the results; a renamed attribute or
counter would leave its per-layer metrics at 0 without failing the
benchmark.  The tracer is loaded from its file and left unchanged.
"""

import importlib.util
from pathlib import Path

import subcomp.cli as cli
from subcomp.cli import write_graph
from subcomp.families import cycle
from subcomp.graph import Graph

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Span name -> the work keys of that span that layer_metrics reads.
# layer_metrics also reads graph.build and graph.complement, which no CLI
# path enters (parse_graph builds rows rather than a Graph, and no solver
# builds the complement), and reduction.extract_clique, which the corpus
# checks in perfbench/corpus.py record themselves.
READ = {
    "cli.main": (),
    "cli.parse_graph": ("bytes",),
    "solvers.maxdeg": ("nodes", "pruned_by_size", "pruned_by_maxdeg"),
    "solvers.mindeg": (),
    "solvers.regular": ("nodes", "pruned_by_size"),
    "solvers.completion": (),
    "solvers.approx": (),
    "oracle.brute": ("subsets",),
    "oracle.check": (),
    "reduction.build": ("gadget_vertices",),
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_read_span_and_key_is_recorded(tmp_path, capsys):
    tracing = _load_tracing()
    # C4 plus an isolated vertex: 2-regular only through the detached
    # completion, so the regular call reaches find_regular_extension.
    c4 = tmp_path / "c4.graph"
    c4.write_text(write_graph(Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3)])))
    c5 = tmp_path / "c5.graph"
    c5.write_text(write_graph(cycle(5)))
    calls = [
        ["maxdeg", "--k", "1", str(c4)],
        ["mindeg", "--k", "1", str(c4)],
        ["regular", "--k", "2", str(c4)],
        ["brute", "--target", "regular", "--k", "2", str(c4)],
        ["verify", "--target", "regular", "--k", "2", "--set", "0,1,4", str(c4)],
        ["approx-maxdeg", str(c4)],
        ["reduce", "--k", "2", "--out", str(tmp_path / "gadget"), str(c5)],
    ]
    tracer = tracing.Tracer()
    with tracer.installed():
        for argv in calls:
            assert tracer.call("cli.main", cli.main, argv) in (0, 1), argv
    capsys.readouterr()

    work = {}
    for name, _, _, parent, _, keys in tracer.spans:
        work.setdefault(name, set()).update(keys)
        if name == "solvers.completion":
            assert tracer.spans[parent][0] == "solvers.regular"
    for name, keys in READ.items():
        assert name in work, name
        assert set(keys) <= work[name], (name, work[name])

    metrics = tracing.layer_metrics(tracer.spans, 1, 0.0)
    for name in (
        "cli.parse_graph.MB_per_s",
        "solvers.maxdeg.nodes",
        "solvers.regular.nodes",
        "solvers.completion.calls",
        "kernels.subsets_checked",
        "oracle.check.calls",
        "reduction.gadget_vertices",
    ):
        assert metrics[name][0] > 0, name
