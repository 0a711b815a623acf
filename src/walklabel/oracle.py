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

One identity counts them, in pure Python. An ordering that is not a
labeling has a first vertex w with no earlier neighbour; the vertices
before w label a connected set U whose closed neighbourhood N[U] misses
w, and those after it come in any order, so

    N(G) = n! - sum over U and w outside N[U] of (n - 1 - |U|)! P(U),

where P(U) counts the labelings of U. A forward DP over connected vertex
sets, one popcount layer at a time, gives P(U) and adds up the sum; a
labeled set changes only the weights. A single unconstrained query
(count_labelings, count_labelings_from, count_completions) picks one of
three call patterns through engine(g):

- tree: no DP. On a tree (connected, n - 1 edges) a labeling that extends
  L is an order of the free vertices in which each follows its neighbour
  towards L, a linear extension of the tree with L contracted to its
  root, so the count is (n - |L|)! over the product of the free subtree
  sizes (hook lengths); the total sums it over every root by rerooting.
  Perfect trees, combs, paths and stars go here, at O(n) arithmetic
  operations a query.
- connected-set: one pass over the whole graph, every vertex a possible
  w. A set U with N[U] = V has no w, nor has any superset, so it is never
  stored: the pass stops at a dominating set, and a star at its center.
  Other graphs of average degree at most 4 go here, the tori and
  two-cycle graphs among them; only a few percent of their vertex subsets
  are connected.
- first-gap: one pass per w, inside w's non-neighbourhood, which on the
  denser graphs that go here is small.

Neither DP builds a table over all 2^n vertex subsets, and each keeps two
adjacent layers of stored sets. Each DP's worst case is a graph
with many connected sets where it looks. On a 2-core x86 machine
(scripts/sweep24.py), the slowest 24-vertex graphs found are a random
graph of average degree 5 under first-gap (19 s, 79 MB), a hub joined to
every vertex of K1,21 and to one more vertex under connected-set (the
sets holding the star's center dominate all but that vertex: 16 s,
193 MB) and a random graph of average degree 4 under connected-set
(13 s, 160 MB). _core_py.LAYER_LIMIT caps one layer at 2^19 sets; past it
the count ends in an "instance too large" ValueError at about 250 MB.

Besides the three call patterns there is a completion search. It answers
many queries of one graph at once (count_completions_each) and is the
only way that takes an order constraint (count_labelings_from_before,
count_completions_each with before): on a tree the hook lengths give no
count of "u before v", so constrained queries search there too, while an
unconstrained batch on a tree takes the formula once per set. The
completions of a connected set U are the sum of those of U | w over the w
next to U, and a set that dominates the graph finishes in any order. One
memo of the non-dominating sets reached serves every labeled set of the
call, and ends with it. The memo holds every set it reached, not two
layers, and LAYER_LIMIT caps it as a whole. The search recurses once per
vertex added, fewer than DP_LIMIT times. A batch of every start costs
0.6 to 1.0 times one connected-set pass over the whole graph on
perfect_tree(2, 4), torus(8) and two_cycles(6, 7, 5) (2-core x86), where
per-start forward calls cost one pass each: 8 to 13 times as much.

DP_LIMIT bounds every query, trees included. The formula alone would
count a tree of any size, but not in bounded time: each rerooting step
divides a count as long as the result, and the total of a 40,000-vertex
comb took 7.7 s (2-core x86). The cap stays until one work budget bounds
the formula and the DPs alike.

The permutation oracle just filters all n! orderings and exists to check
the DPs and the formula, not to be fast.
"""

from __future__ import annotations

from itertools import permutations

from ._core_py import dp_completions, dp_connected, dp_first_gap, tree_count
from .graphs import Graph, is_connected

__all__ = [
    "DP_LIMIT",
    "PERM_LIMIT",
    "backend",
    "check_size",
    "count_completions",
    "count_completions_each",
    "count_labelings",
    "count_labelings_from",
    "count_labelings_from_before",
    "count_labelings_perm",
    "engine",
]

# DP_LIMIT is the only bound on the work of long sparse inputs. A path
# of n vertices has n(n+1)/2 connected sets but at most n in a layer, so
# LAYER_LIMIT never stops it; with the cap removed, path(1000) took 1.7 s
# over 500,500 sets and path(2000) 11 s over 2,001,000 sets on a 2-core
# x86 machine. It stays until a work budget per call replaces it.
DP_LIMIT = 24
PERM_LIMIT = 10


def backend() -> str:
    """Name of the kernels: always "pure-python". engine(g) tells which of
    the three engines a graph uses."""
    return "pure-python"


# Measured on a 2-core x86 machine, calling dp_connected (the pruned
# pass) and dp_first_gap directly on random connected graphs of a given
# average degree and on family graphs.
# - At n = 18 (median of three graphs) the pruned pass took 0.04, 0.10,
#   0.17, 0.14 and 0.034 s at average degree 3, 4, 5, 6 and 8 and 0.035 s
#   with half of all edges; first-gap took 0.08, 0.14, 0.14, 0.10, 0.027
#   and 0.019 s. On path(18), two_cycles(6,7,5) and torus(9) the pruned
#   pass took 0.0002, 0.002 and 0.028 s against 0.002, 0.007 and 0.046 s.
# - At n = 24 (the graphs of scripts/sweep24.py) the pruned pass took 5.3,
#   13.0, 19.4, 20.5, 9.9 and 0.62 s at average degree 3, 4, 5, 6, 8 and
#   12, first-gap 7.8, 15.7, 19.5, 14.6, 5.0 and 0.28 s; on torus(12) and
#   the 4x6 grid 0.75 and 3.7 s against 1.15 and 4.2 s.
# So the cut-off stays at average degree 4.
def engine(g: Graph) -> str:
    """The engine that counts g's unconstrained queries: "tree" when g is
    connected with n - 1 edges (the hook-length formula, no DP),
    "connected-set" when its average degree is otherwise at most 4
    (2|E| <= 4n), and "first-gap" when it is higher. Constrained queries
    run the completion search on every graph, and DP_LIMIT bounds all
    three engines: the formula's cost grows with the length of its count."""
    edges = g.edge_count()
    if edges == g.n - 1 and is_connected(g):
        return "tree"
    if 2 * edges <= 4 * g.n:
        return "connected-set"
    return "first-gap"


_KERNELS = {"tree": tree_count, "connected-set": dp_connected, "first-gap": dp_first_gap}


def _dp(g: Graph, labeled: int = 0) -> int:
    """Orderings of g extending the labeled mask (0: from every start), by
    engine(g)."""
    return _KERNELS[engine(g)](g.masks, g.n, labeled)


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


def _labeled_mask(g: Graph, labeled) -> int:
    """The mask of a labeled vertex set, checked to be in range, nonempty
    and connected, as a walk's visited set always is."""
    vs = sorted(set(labeled))
    if not vs:
        raise ValueError("labeled set not connected: it is empty")
    mask = 0
    for v in vs:
        _check_vertex(g, v, "labeled vertex")
        mask |= 1 << v
    if not is_connected(g, mask):
        raise ValueError("labeled set not connected")
    return mask


def _check_order(g: Graph, u: int, v: int) -> None:
    _check_vertex(g, u, "u")
    _check_vertex(g, v, "v")
    if u == v:
        raise ValueError("order constraint needs two distinct vertices")


def count_completions(g: Graph, labeled) -> int:
    """Ways to extend a partial labeling to all of g.

    labeled is the set of already-labeled vertices; it must induce a
    connected subgraph, because a walk's visited set is always connected.
    """
    _check(g)
    return _dp(g, _labeled_mask(g, labeled))


def count_completions_each(g: Graph, labeled_sets, before=None) -> list[int]:
    """count_completions of each labeled set, from one memoized search, or
    on a tree without before from the formula, set by set.

    With before=(u, v), count only the completions in which u gets a
    smaller label than v: a set that holds u gets its plain count, and
    one that holds v but not u gets 0.
    """
    _check(g)
    sources = [_labeled_mask(g, labeled) for labeled in labeled_sets]
    u = v = -1
    if before is not None:
        u, v = before
        _check_order(g, u, v)
    elif engine(g) == "tree":
        return [tree_count(g.masks, g.n, s) for s in sources]
    return dp_completions(g.masks, g.n, sources, u, v)


def count_labelings_from_before(g: Graph, start: int, u: int, v: int) -> int:
    """Labelings starting at start in which u gets a smaller label than v:
    a one-source completion search that never labels v while u is still
    unlabeled. A start at u leaves the count unconstrained, and a start
    at v makes it 0.
    """
    _check(g)
    _check_vertex(g, start, "start")
    _check_order(g, u, v)
    return dp_completions(g.masks, g.n, [1 << start], u, v)[0]


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
