"""Pure and compiled kernels must be observably identical."""

import pytest
from hypothesis import given, settings, strategies as st

from subcomp._kernels import (
    BACKEND,
    MAXDEG_AT_MOST,
    MINDEG_AT_LEAST,
    REGULAR,
    brute_force_search,
    min_max_degree,
    pure,
)

from conftest import graphs

KINDS = (MAXDEG_AT_MOST, MINDEG_AT_LEAST, REGULAR)

needs_compiled = pytest.mark.skipif(
    BACKEND != "compiled", reason="compiled kernel not built"
)


def test_backend_consistent():
    assert BACKEND in ("pure", "compiled")


@needs_compiled
@settings(max_examples=80, deadline=None)
@given(graphs(max_n=7), st.sampled_from(KINDS), st.integers(0, 4))
def test_search_agreement(g, kind, k):
    from subcomp._kernels import _ckernels
    from array import array

    expected = pure.brute_force_search(g._rows, g.n, kind, k)
    rows64 = array("Q", g._rows)
    got = _ckernels.brute_force_search(rows64, g.n, kind, k)
    assert got == expected


@needs_compiled
@settings(max_examples=60, deadline=None)
@given(graphs(min_n=1, max_n=7))
def test_min_max_degree_agreement(g):
    from subcomp._kernels import _ckernels
    from array import array

    expected = pure.min_max_degree(g._rows, g.n)
    got = _ckernels.min_max_degree(array("Q", g._rows), g.n)
    assert got == expected


def test_dispatch_handles_wide_graphs():
    # 65 vertices cannot fit a uint64 mask; the dispatcher must fall back to
    # the pure kernel.  Edgeless + k=0 stops at the very first subset.
    rows = [0] * 65
    found, mask, checked = brute_force_search(rows, 65, MAXDEG_AT_MOST, 0)
    assert found and mask == 0 and checked == 1


def test_dispatch_small_graph():
    rows = [0b110, 0b101, 0b011]  # triangle
    found, mask, checked = brute_force_search(rows, 3, REGULAR, 2)
    assert found and mask == 0 and checked == 1
    best, bmask = min_max_degree(rows, 3)
    assert best == 0 and bmask == 0b111

