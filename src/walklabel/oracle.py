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

Two dynamic programs count them, both pure Python, and every DP entry
point below picks one through engine(g):

- connected-set: a forward DP that keeps, per popcount layer, a dict from
  each reachable vertex set to its count and frontier, and pushes each
  count to the sets one frontier vertex larger. Only connected sets are
  ever stored.
- first-gap: an ordering that is not a labeling has a first vertex w with
  no earlier neighbour; the vertices before w label a connected set U
  inside w's non-neighbourhood, and those after it come in any order, so

      N(G) = n! - sum over w and k of (n - 1 - k)! P_k(w),

  where P_k(w) counts the labelings of k-vertex sets of G - N[w], which a
  connected-set DP on that induced subgraph gives layer by layer. A
  labeled set or an order constraint changes only the weights. It shares
  the connected-set engine's layer loop.

Graphs of average degree at most 4 go to the connected-set engine unless
a vertex is adjacent to all others; they include every family graph here
but the stars, and only a few percent of their vertex subsets are
connected. All other graphs go to first-gap. Neither engine builds a
table over all 2^n vertex subsets.

Peak memory of the connected-set engine is two adjacent popcount layers
of connected sets; that of first-gap is the same for the graph left when
one vertex and its neighbours are removed, which on a dense graph is
small. Each engine's worst case is a graph with many connected sets where
it looks: for the connected-set engine a star (K1,21 has 2^20 + 21
connected sets and takes about 11 s and 190 MB), which is why a vertex
adjacent to all others sends a graph to first-gap, where the center never
enters a DP and K1,23 takes under a millisecond; for first-gap a sparse
graph, where w's non-neighbourhood is nearly the whole graph and the
connected-set DP runs about once per vertex. The widest first-gap input
within the cap found so far is a hub joined to every vertex of K1,21 and
to one more vertex, whose non-neighbourhood is that K1,21: 12.8 s and
192 MB. _core_py.LAYER_LIMIT caps one layer of either DP at 2^19 sets;
past it the count ends in an "instance too large" ValueError at about
250 MB.

The permutation oracle just filters all n! orderings and exists to check
the DPs, not to be fast.
"""

from __future__ import annotations

from itertools import permutations

from ._core_py import dp_connected, dp_first_gap
from .graphs import Graph, is_connected

__all__ = [
    "DP_LIMIT",
    "PERM_LIMIT",
    "backend",
    "check_size",
    "count_completions",
    "count_labelings",
    "count_labelings_from",
    "count_labelings_from_before",
    "count_labelings_perm",
    "engine",
]

# DP_LIMIT is the only bound on the work of long sparse inputs. A path of n vertices has n(n+1)/2 connected sets but
# at most n in a layer, so LAYER_LIMIT never stops it; with the cap
# removed, path(1000) took 1.5-1.7 s over 500,500 sets and path(2000)
# 9.7-10 s over 2,001,000 sets on a 2-core x86 machine. It stays until a
# work budget per call replaces it.
DP_LIMIT = 24
PERM_LIMIT = 10


def backend() -> str:
    """Name of the DP kernels: always "pure-python". engine(g) tells which
    of the two engines a graph uses."""
    return "pure-python"


# Measured on a 2-core x86 machine, timing dp_connected and dp_first_gap
# against the subset DP over all 2^n vertex sets (tests/subset_dp.py) on
# random connected graphs of n = 14, 16 and 18 vertices at a given average
# degree, and on family graphs.
# - Against the subset DP (n = 14 and 16) the connected-set engine was
#   12-39x faster at average degree 2, 5.5x at 3, 1.8-2.3x at 4, 0.8-1.3x
#   at 5 and 6 and 0.7-0.8x at 8.
# - At n = 18 (median of three graphs), first-gap took 0.09, 0.20, 0.10,
#   0.12 and 0.027 s at average degree 3, 4, 5, 6 and 8 and 0.023 s with
#   half of all edges; the connected-set engine took 0.06, 0.31, 0.61,
#   0.61, 1.09 and 1.10 s and the subset DP 0.6-0.8 s. On paths, combs
#   and two-cycle graphs first-gap was 3-11x slower than the connected-set
#   engine (two_cycles(6,7,5) 0.008 s against 0.002 s, path(18) 0.002 s
#   against 0.0002 s), though faster on torus(9) (0.06 s against 0.09 s),
#   so the cut-off stays at 4. A vertex adjacent to all others is in every
#   connected set that holds it, so such a graph has at least 2^(n-1) of
#   them and goes to first-gap whatever its density.
def engine(g: Graph) -> str:
    """The DP engine that counts g: "connected-set" when g's average degree
    is at most 4 (2|E| <= 4n) and no vertex is adjacent to all others, and
    "first-gap" when it is higher or one is."""
    degrees = [m.bit_count() for m in g.masks]
    if sum(degrees) <= 4 * g.n and max(degrees) < g.n - 1:
        return "connected-set"
    return "first-gap"


def _dp(g: Graph, labeled: int = 0, require_u: int = -1, forbid_v: int = -1) -> int:
    """Orderings of g extending the labeled mask (0: from every start),
    optionally with require_u placed before forbid_v, by engine(g)."""
    dp = dp_connected if engine(g) == "connected-set" else dp_first_gap
    return dp(g.masks, g.n, labeled, require_u, forbid_v)


def check_size(n: int) -> None:
    """Reject an instance of n vertices past DP_LIMIT. The CLI calls it on
    an edge list's vertex count before the graph is built."""
    if n > DP_LIMIT:
        raise ValueError(f"instance too large: {n} vertices exceeds the DP limit {DP_LIMIT}")


def _check(g: Graph) -> None:
    check_size(g.n)
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

    Shares nothing with the DPs (no vertex-set tables, no bit tricks beyond
    the adjacency masks the graph already carries).
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
