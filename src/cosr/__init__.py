"""Exact solvers for consecutive-ones row deletion and interval deletion."""

from .errors import ContractError, GuardError, ParseError
from .matrix import (
    BinaryMatrix,
    SetSystem,
    augment,
    delete_rows,
    parse_matrix,
    serialize_matrix,
    set_system,
    support,
)
from .cop import (
    cop_order,
    interval_assignment,
    interval_intersection_size,
    is_icpia,
    verify_cop,
)
from .graphs import (
    Graph,
    HellyViolation,
    derived_graph,
    find_c4,
    find_helly_violation,
    find_uncovered_clique,
    is_chordal,
    is_simplicial,
    maximal_cliques_chordal,
    pair_subgraph,
    parse_graph,
    serialize_graph,
)
from .interval import clique_matrix, interval_deletion, is_interval, minimalize_solution
from .solver import (
    SolveReport,
    SolveStats,
    convex_bipartite_deletion,
    cos_r,
    half_adjacency,
)
from . import oracle

__all__ = [
    "BinaryMatrix",
    "ContractError",
    "Graph",
    "GuardError",
    "HellyViolation",
    "ParseError",
    "SetSystem",
    "SolveReport",
    "SolveStats",
    "augment",
    "clique_matrix",
    "convex_bipartite_deletion",
    "cop_order",
    "cos_r",
    "delete_rows",
    "derived_graph",
    "find_c4",
    "find_helly_violation",
    "find_uncovered_clique",
    "half_adjacency",
    "interval_assignment",
    "interval_deletion",
    "interval_intersection_size",
    "is_chordal",
    "is_icpia",
    "is_interval",
    "is_simplicial",
    "maximal_cliques_chordal",
    "minimalize_solution",
    "oracle",
    "pair_subgraph",
    "parse_graph",
    "parse_matrix",
    "serialize_graph",
    "serialize_matrix",
    "set_system",
    "support",
    "verify_cop",
]
