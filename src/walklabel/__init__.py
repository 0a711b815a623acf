"""Exact counting of random walk labelings on structured graph families."""

from .graphs import Graph, parse_edge_list, vertex_at
from .oracle import (
    count_completions,
    count_completions_each,
    count_labelings,
    count_labelings_from,
    count_labelings_from_before,
    count_labelings_perm,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "__version__",
    "count_completions",
    "count_completions_each",
    "count_labelings",
    "count_labelings_from",
    "count_labelings_from_before",
    "count_labelings_perm",
    "parse_edge_list",
    "vertex_at",
]
