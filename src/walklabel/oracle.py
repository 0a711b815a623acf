"""Ground-truth counting of random walk labelings by brute force.

A random walk on a connected graph G labels vertices 1, 2, ... in the order
it first visits them. The label sequences realizable this way are exactly
the orderings v1, ..., vn of V(G) in which every vi with i >= 2 is adjacent
to at least one earlier vj. Sketch: a walk reaches a new vertex only by
stepping off an already-visited one, so every realizable ordering has the
prefix-adjacency property; conversely, given such an ordering, the walk
that goes from vi's already-visited neighbor to vi (walking inside the
visited set first, which is connected by induction) realizes it. Counting
labelings therefore reduces to counting prefix-adjacent orderings.

Two dynamic programs count them, and every DP entry point below picks one
through engine(g):

- subset: N(S) = sum of N(S - v) over the vertices v whose removal leaves
  a set they are adjacent to, over all 2^n vertex subsets. Its hot loop
  lives in a compiled kernel when available, with a pure Python twin
  selected at import time otherwise (set WALKLABEL_PURE=1 to force the
  twin); backend() names the one in use.
- connected-set: a forward DP that keeps, per popcount layer, a dict from
  each reachable vertex set to its count and frontier, and pushes each
  count to the sets one frontier vertex larger. Only connected sets are
  ever stored. It is pure Python.

With the compiled subset kernel every graph goes to it: per subset it is
about a hundred times cheaper than the connected-set engine is per
connected set, and no density cut-off keeps the connected-set engine from
losing somewhere (see the measurements above engine). With the pure
subset kernel, graphs of average degree at most 4 go to the connected-set
engine; they include every family graph here, of which only a few percent
of the vertex subsets are connected. Its worst case is a star: K1,21 has average degree
below 2 but 2^20 + 21 connected sets. There both engines took about 13.4 s
on a 2-core x86 machine, and the connected-set engine peaked at 193 MB of
resident memory against 116 MB for the pure subset kernel (the wide-star
sweep of the tree acceptance test is the only such input in the test
suite).

Peak memory of the subset engine is one value table of 2^n entries (16
bytes each compiled, Python ints otherwise), about 256 MB at the default
24-vertex cap. That of the connected-set engine is two adjacent popcount
layers of connected sets: small on the family graphs, but on a star it
doubles with every further leaf (99 MB at K1,20, 193 MB at K1,21).
_core_py.LAYER_LIMIT caps one layer at 2^19 sets, so K1,22 and wider stars
end in an "instance too large" ValueError at about 250 MB.

The permutation oracle just filters all n! orderings and exists to check
the DPs, not to be fast.
"""

from __future__ import annotations

import os
from itertools import permutations

from ._core_py import dp_connected
from .graphs import Graph, is_connected

if os.environ.get("WALKLABEL_PURE"):
    from . import _core_py as _impl
else:
    try:
        from . import _core as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _core_py as _impl

__all__ = [
    "DP_LIMIT",
    "PERM_LIMIT",
    "backend",
    "count_completions",
    "count_labelings",
    "count_labelings_from",
    "count_labelings_from_before",
    "count_labelings_perm",
    "engine",
]

DP_LIMIT = 24
PERM_LIMIT = 10


def backend() -> str:
    """Name of the subset kernel selected at import time ("compiled" or
    "pure-python"). It says nothing about the connected-set engine, which
    is always pure Python; engine(g) tells which of the two a graph uses."""
    return _impl.BACKEND


# Measured on a 2-core x86 machine, timing dp_connected against each subset
# kernel's dp_total on random connected graphs of n = 14, 16 and 18 vertices
# at a given average degree, and on family graphs.
# - Against the pure subset kernel (n = 14 and 16) the connected-set engine
#   was 12-39x faster at average degree 2, 5.5x at 3, 1.8-2.3x at 4,
#   0.8-1.3x at 5 and 6 and 0.7-0.8x at 8: hence the cut-off 4.
# - Against the compiled subset kernel it lost on every random graph from
#   average degree 3 up (7-13x slower at 3, 100-150x at 8) and was within
#   a factor of 3 either way at 2. On family graphs and trees of average
#   degree 1.9-3 it won on paths, combs and two-cycle graphs (comb(2,9,2)
#   0.0004 s against 0.008 s, two_cycles(7,8,7) 0.003 s against 0.21 s)
#   but lost on the torus (torus(10) 0.20 s against 0.05 s), on
#   perfect_tree(2,4) (0.22 s against 0.07 s) and on stars (K1,19 2.6 s
#   against 0.04 s). Density does not separate these cases, so the
#   compiled kernel takes every graph.
def engine(g: Graph) -> str:
    """The DP engine that counts g: "subset" whenever the compiled subset
    kernel is loaded; otherwise "connected-set" when g's average degree is
    at most 4 (2|E| <= 4n) and "subset" when it is higher."""
    if _impl.BACKEND == "compiled":
        return "subset"
    return "connected-set" if sum(m.bit_count() for m in g.masks) <= 4 * g.n else "subset"


def _dp(g: Graph, labeled: int = 0, require_u: int = -1, forbid_v: int = -1) -> int:
    """Orderings of g extending the labeled mask (0: from every start),
    optionally with require_u placed before forbid_v, by engine(g)."""
    if engine(g) == "connected-set":
        return dp_connected(g.masks, g.n, labeled, require_u, forbid_v)
    if not labeled:
        return _impl.dp_total(g.masks, g.n)
    return _impl.dp_resume(g.masks, g.n, labeled, require_u, forbid_v)


def _check(g: Graph) -> None:
    if g.n > DP_LIMIT:
        raise ValueError(f"instance too large: {g.n} vertices exceeds the DP limit {DP_LIMIT}")
    if not is_connected(g):
        raise ValueError("graph not connected")


def _check_vertex(g: Graph, v: int, name: str = "vertex") -> None:
    if not 0 <= v < g.n:
        raise ValueError(f"{name} {v} out of range")


def count_labelings(g: Graph) -> int:
    """Number of random walk labelings of g (all starting vertices)."""
    _check(g)
    return _dp(g)


def count_labelings_from(g: Graph, start: int) -> int:
    """Labelings whose first label lands on start."""
    _check(g)
    _check_vertex(g, start, "start")
    return _dp(g, 1 << start)


def count_completions(g: Graph, labeled) -> int:
    """Ways to extend a partial labeling to all of g.

    labeled is the set of already-labeled vertices; it must induce a
    connected subgraph, because a walk's visited set is always connected.
    """
    _check(g)
    vs = sorted(set(labeled))
    if not vs:
        raise ValueError("labeled set not connected: it is empty")
    mask = 0
    for v in vs:
        _check_vertex(g, v, "labeled vertex")
        mask |= 1 << v
    seen = {vs[0]}
    frontier = [vs[0]]
    while frontier:
        v = frontier.pop()
        for u in g.adj[v]:
            if mask >> u & 1 and u not in seen:
                seen.add(u)
                frontier.append(u)
    if len(seen) != len(vs):
        raise ValueError("labeled set not connected")
    return _dp(g, mask)


def count_labelings_from_before(g: Graph, start: int, u: int, v: int) -> int:
    """Labelings starting at start in which u gets a smaller label than v.

    Implemented by forbidding the DP transition that labels v while u is
    still unlabeled. Two starts need no DP at all: if u is the start it is
    labeled first and the constraint is vacuous, and if v is the start the
    constraint is unsatisfiable.
    """
    _check(g)
    _check_vertex(g, start, "start")
    _check_vertex(g, u, "u")
    _check_vertex(g, v, "v")
    if u == v:
        raise ValueError("order constraint needs two distinct vertices")
    if u == start:
        return _dp(g, 1 << start)
    if v == start:
        return 0
    return _dp(g, 1 << start, u, v)


def count_labelings_perm(g: Graph) -> int:
    """Independent check: filter all n! orderings for prefix adjacency.

    Shares nothing with the DP (no subset table, no bit tricks beyond the
    adjacency masks the graph already carries).
    """
    if g.n > PERM_LIMIT:
        raise ValueError(f"instance too large: permutation oracle is capped at {PERM_LIMIT} vertices")
    if not is_connected(g):
        raise ValueError("graph not connected")
    count = 0
    for order in permutations(range(g.n)):
        seen = 1 << order[0]
        for w in order[1:]:
            if not g.masks[w] & seen:
                break
            seen |= 1 << w
        else:
            count += 1
    return count
