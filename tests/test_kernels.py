"""The subset kernel, and the min-max oracle built on it, must match a
plain `combinations` sweep exactly.

The reference below keeps its own kind codes and its own comparisons, and
the fast kernel is called with the range from oracle.degree_range, so the
one shared definition of a target is checked against an independent one.
"""

import ast
import pathlib
from itertools import combinations

from hypothesis import example, given, settings, strategies as st

from subcomp._kernels import BACKEND, brute_force_search
from subcomp.families import empty_graph, gnp
from subcomp.graph import Graph, members_of
from subcomp.oracle import TargetKind, brute_force_min_max_degree, degree_range

from conftest import graphs

# The reference's kind codes, and the target each one stands for.
TARGET_OF = {
    0: TargetKind.MAX_DEG_AT_MOST,
    1: TargetKind.MIN_DEG_AT_LEAST,
    2: TargetKind.REGULAR,
}
KINDS = tuple(TARGET_OF)


def _reference_satisfies(rows, n, smask, ssize, kind, k):
    for v in range(n):
        row = rows[v]
        if smask >> v & 1:
            d = row.bit_count() + ssize - 1 - 2 * (row & smask).bit_count()
        else:
            d = row.bit_count()
        if kind == 0:
            if d > k:
                return False
        elif kind == 1:
            if d < k:
                return False
        else:
            if d != k:
                return False
    return True


def _reference_search(rows, n, kind, k):
    """The kernel's contract spelled out: every subset by size, then by
    sorted member tuple, each one checked on every vertex."""
    checked = 0
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            smask = 0
            for v in combo:
                smask |= 1 << v
            checked += 1
            if _reference_satisfies(rows, n, smask, size, kind, k):
                return True, smask, checked
    return False, 0, checked


def _fast_search(rows, n, kind, k):
    return brute_force_search(rows, n, *degree_range(TARGET_OF[kind], k, n))


def _reference_min_max(rows, n):
    best = n
    best_mask = 0
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            smask = 0
            for v in combo:
                smask |= 1 << v
            worst = 0
            for v in range(n):
                row = rows[v]
                if smask >> v & 1:
                    d = row.bit_count() + size - 1 - 2 * (row & smask).bit_count()
                else:
                    d = row.bit_count()
                if d > worst:
                    worst = d
                    if worst >= best:
                        break
            if worst < best:
                best = worst
                best_mask = smask
    return best, best_mask


def test_backend_consistent():
    assert BACKEND == "pure"


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=8), st.sampled_from(KINDS), st.integers(0, 9))
def test_search_matches_reference(g, kind, k):
    got = _fast_search(g._rows, g.n, kind, k)
    assert got == _reference_search(g._rows, g.n, kind, k)


def _reference_min_max_of(g):
    best, mask = _reference_min_max(g._rows, g.n)
    return best, members_of(mask)


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=8))
@example(Graph(0))
@example(empty_graph(5))
def test_min_max_degree_matches_reference(g):
    assert brute_force_min_max_degree(g) == _reference_min_max_of(g)


def test_exhaustive_sweep_matches_reference():
    # Two seeded G(n, p) graphs per n, sparse and dense, every kind and k
    for n in range(10):
        for seed, p in enumerate((0.3, 0.7)):
            g = gnp(n, p, 100 * n + seed)
            rows = g._rows
            for kind in KINDS:
                for k in range(n + 2):
                    got = _fast_search(rows, n, kind, k)
                    assert got == _reference_search(rows, n, kind, k), (n, seed, kind, k)
            assert brute_force_min_max_degree(g) == _reference_min_max_of(g), (n, seed)


def test_dispatch_handles_wide_graphs():
    # 65 vertices do not fit a machine word; an edgeless graph already has
    # every degree in [0, 0], so the very first subset wins.
    rows = [0] * 65
    found, mask, checked = brute_force_search(rows, 65, 0, 0)
    assert found and mask == 0 and checked == 1


def test_dispatch_small_graph():
    rows = [0b110, 0b101, 0b011]  # triangle, already 2-regular
    found, mask, checked = brute_force_search(rows, 3, 2, 2)
    assert found and mask == 0 and checked == 1
    triangle = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert brute_force_min_max_degree(triangle) == (0, (0, 1, 2))


def _runtime_imports(path):
    """Dotted names that `path` imports outside `if TYPE_CHECKING:` blocks."""
    tree = ast.parse(path.read_text())
    guarded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            guarded.update(id(n) for stmt in node.body for n in ast.walk(stmt))
    for node in ast.walk(tree):
        if id(node) in guarded:
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def _imports_solvers(path):
    return any("solvers" in name.split(".") for name in _runtime_imports(path))


def test_oracle_imports_nothing_from_solvers():
    # The oracle and the hardness gadget validate the solvers, so neither
    # may run their code.
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "subcomp"
    assert _imports_solvers(src / "cli.py")  # the check sees a real import
    for path in [src / "oracle.py", src / "reduction.py", src / "_kernels.py"]:
        assert not _imports_solvers(path), path
