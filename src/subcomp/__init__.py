"""Single subgraph complementation into degree-constrained graph classes.

A complementation G (+) S flips every edge and non-edge inside the induced
subgraph on S and leaves the rest of the graph alone.  This package
decides, exactly and fast for small k, whether one such operation can land
a graph in {max degree <= k}, {min degree >= k}, or {k-regular}, plus a
certified 3-approximation for minimizing the reachable max degree, a
brute-force oracle, and the clique hardness gadget.
"""

from subcomp.graph import Graph, mask_of, members_of
from subcomp.oracle import (
    DEFAULT_CAPACITY,
    CapacityError,
    SolveOutcome,
    TargetKind,
    TargetPredicate,
    brute_force_min_max_degree,
    brute_force_solve,
    check,
    max_deg_at_most,
    min_deg_at_least,
    regular,
)
from subcomp.reduction import (
    GadgetInvariantError,
    ReductionInstance,
    ReductionParams,
    build_crg_reduction,
    extract_clique,
    find_clique,
    find_cliques,
    forward_witness,
)
from subcomp.solvers import (
    ApproxResult,
    BranchStats,
    approx_min_max_degree,
    solve_k_regular,
    solve_max_deg_le,
    solve_min_deg_ge,
    trivial_high_max_degree_witness,
    trivial_low_min_degree_witness,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxResult",
    "BranchStats",
    "CapacityError",
    "DEFAULT_CAPACITY",
    "GadgetInvariantError",
    "Graph",
    "ReductionInstance",
    "ReductionParams",
    "SolveOutcome",
    "TargetKind",
    "TargetPredicate",
    "approx_min_max_degree",
    "brute_force_min_max_degree",
    "brute_force_solve",
    "build_crg_reduction",
    "check",
    "extract_clique",
    "find_clique",
    "find_cliques",
    "forward_witness",
    "mask_of",
    "max_deg_at_most",
    "members_of",
    "min_deg_at_least",
    "regular",
    "solve_k_regular",
    "solve_max_deg_le",
    "solve_min_deg_ge",
    "trivial_high_max_degree_witness",
    "trivial_low_min_degree_witness",
]
