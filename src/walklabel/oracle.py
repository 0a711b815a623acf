"""Ground-truth counting of random walk labelings by exact search.

A random walk on a connected graph G labels vertices 1, 2, ... in the order
it first visits them. The label sequences realizable this way are exactly
the orderings v1, ..., vn of V(G) in which every vi with i >= 2 is adjacent
to at least one earlier vj. Sketch: a walk reaches a new vertex only by
stepping off an already-visited one, so every realizable ordering has the
prefix-adjacency property; conversely, given such an ordering, the walk
that goes from vi's already-visited neighbor to vi (walking inside the
visited set first, which is connected by induction) realizes it. Counting
labelings therefore reduces to counting prefix-adjacent orderings. A
labeled set L, the vertices a walk has visited so far, is connected for
the same reason, and leaves the orderings of the f free vertices outside
it (L empty: every start).

The first-gap identity. An ordering of the free vertices that is not a
labeling has a first gap w, with no neighbour in L or earlier. The k free
vertices before w extend L to a connected set S whose closed neighbourhood
N[S] misses w, and the f - 1 - k after w come in any order, so

    count(L) = f! - sum over such S and w of count(S) (f - 1 - k)!,

where count(S) counts the orderings of S's free vertices that reach S.
_failed adds up the sum by a forward DP over connected sets, keeping two
adjacent layers and never storing a set whose neighbourhood leaves no gap.
No table over all 2^n vertex subsets is built.

engine(g) sends a single unconstrained query (count_labelings,
count_labelings_from, count_completions) to one of three call patterns:

- "tree", for a connected graph with n - 1 edges (perfect trees, combs,
  paths, stars): tree_count reads the count off hook lengths, with no DP,
  at O(n) arithmetic operations a query.
- "connected-set", for other graphs of average degree at most 4 (the tori
  and two-cycle graphs, where only a few percent of the vertex subsets are
  connected): dp_connected, one pass of _failed over the whole graph with
  every vertex a possible w. A dominating set is never stored: neither it
  nor a superset has a w.
- "first-gap", for denser graphs: dp_first_gap, one pass per w inside w's
  non-neighbourhood, which is small there.

The completion search, dp_completions, counts completions directly: those
of a connected set S are the sum of those of S | w over the w next to S,
and a set that dominates the graph finishes in any order. One memo of the
sets reached answers every labeled set of a batch (count_completions_each:
every start of torus(8) or two_cycles(6, 7, 5) costs 0.6 to 1.0 passes of
dp_connected, not one pass per start) and is dropped when the call returns.
It alone takes an order constraint "u before v"
(count_labelings_from_before, count_completions_each with before), because
it alone builds an ordering one vertex at a time and can refuse v while u
is unlabeled: the first-gap sum lets the vertices after w come in any
order, and hook lengths count no pair order. Constrained queries therefore
search on trees too, while an unconstrained batch on a tree takes the
formula once per set.

Three caps bound the work; past each a query raises ValueError("instance
too large: ..."), which the CLI prints as a clean exit 1.

- DP_LIMIT (24 vertices) bounds every query, trees included, and keeps the
  completion search, which recurses once per vertex added, fewer than 24
  calls deep. It is the only bound on long sparse inputs: a path of n
  vertices has n(n+1)/2 connected sets but at most n in a layer, and with
  the cap removed path(1000) took 1.7 s and path(2000) 11 s. Nor does the
  tree formula run in bounded time: each rerooting step divides a count as
  long as the result, and the total of a 40,000-vertex comb took 7.7 s. It
  stays until one work budget per call bounds the formula and the DPs.
- LAYER_LIMIT (2^19 sets) bounds one layer of _failed and the whole memo
  of one dp_completions call. A layer is checked once per stored set, so
  it may run up to n sets past the cap, at about 240 bytes a set: about
  250 MB in all. The widest layer found within DP_LIMIT, C(21, 10) =
  352,716 sets of the hub joined to K1,21 and one more vertex (hub21 of
  scripts/sweep24.py), fits at a 192 MB peak; dp_connected on K1,23 with
  one more vertex joined to a leaf, C(22, 11) = 705,432 sets, does not.
  The memo, checked before each insert, costs 96 to 141 bytes a set, about
  75 MB when full: a fresh process grew by 25.6 MB over the 189,948 sets
  of torus(12)'s per-start batch.
- PERM_LIMIT (10 vertices) bounds count_labelings_perm, which filters all
  n! orderings to check the DPs and the formula, not to be fast.

Each DP is worst on a graph with many connected sets where it looks. The
slowest 24-vertex graphs of scripts/sweep24.py are a random graph of
average degree 5 under first-gap (19 s, 79 MB), hub21 under connected-set
(16 s, 193 MB) and a random graph of average degree 4 under connected-set
(13 s, 160 MB). All figures here are from a 2-core x86 machine. The tests
check every kernel against a subset DP over all 2^n vertex sets and
against permutation filtering.
"""

from __future__ import annotations

from itertools import permutations

from .bigmath import exact_div, factorial
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

DP_LIMIT = 24
PERM_LIMIT = 10
LAYER_LIMIT = 1 << 19


def backend() -> str:
    """Name of the kernels: always "pure-python". engine(g) tells which of
    the three engines a graph uses."""
    return "pure-python"


def _factorials(f: int) -> list[int]:
    """0! to f!."""
    fact = [1]
    for i in range(1, f + 1):
        fact.append(fact[-1] * i)
    return fact


def _failed(masks, n: int, labeled_mask: int, allowed: int, targets: int, fact) -> int:
    """Orderings of the free vertices whose first gap lies in targets.

    A forward DP over the connected sets S inside allowed that extend
    labeled_mask (0: nonempty sets, started anywhere). A layer maps each S
    of one size to [count, near], near being S and its allowed neighbours;
    S pushes its count to S | v for each v in near - S and adds
    count(S) (f - 1 - k)! per target outside near, k being the free
    vertices in S. Every target lies in allowed or has no neighbour there,
    so near misses the targets N[S] misses. S | v is not stored when its
    near covers targets: neither it nor a superset has a gap. A layer past
    LAYER_LIMIT sets raises ValueError.
    """
    nbr = {1 << v: masks[v] & allowed for v in range(n)}
    if labeled_mask:
        near = labeled_mask
        for v in range(n):
            if labeled_mask >> v & 1:
                near |= nbr[1 << v]
        layer = {labeled_mask: [1, near]}
        r = len(fact) - 2
    else:
        layer = {1 << v: [1, nbr[1 << v] | 1 << v] for v in range(n) if allowed >> v & 1}
        r = len(fact) - 3
    limit = LAYER_LIMIT
    failed = 0
    while layer:
        nxt = {}
        get = nxt.get
        gaps = 0
        for s, (c, near) in layer.items():
            if len(nxt) > limit:
                raise ValueError(f"instance too large: more than {limit} connected "
                                 f"vertex sets of {s.bit_count() + 1} vertices")
            gaps += c * (targets & ~near).bit_count()
            rem = near ^ s
            while rem:
                low = rem & -rem
                rem ^= low
                t = s | low
                entry = get(t)
                if entry is None:
                    cover = near | nbr[low]
                    if targets & ~cover:
                        nxt[t] = [c, cover]
                else:
                    entry[0] += c
        failed += gaps * fact[r]
        r -= 1
        layer = nxt
    return failed


def dp_connected(masks, n: int, labeled_mask: int = 0) -> int:
    """Orderings of the vertices outside labeled_mask, each adjacent to the
    labeled set or an earlier pick; labeled_mask 0 means every start (the
    total). One pass of _failed over the graph.
    """
    free = ((1 << n) - 1) & ~labeled_mask
    fact = _factorials(free.bit_count())
    return fact[-1] - _failed(masks, n, labeled_mask, (1 << n) - 1, free, fact)


def dp_first_gap(masks, n: int, labeled_mask: int = 0) -> int:
    """dp_connected's count by one pass of _failed per free w with no
    labeled neighbour, inside the labeled set and w's free non-neighbours.
    A vertex adjacent to all others never enters another's pass.
    """
    free = ((1 << n) - 1) & ~labeled_mask
    fact = _factorials(free.bit_count())
    total = fact[-1]
    for w in range(n):
        if free >> w & 1 and not masks[w] & labeled_mask:
            allowed = labeled_mask | (free & ~masks[w] & ~(1 << w))
            total -= _failed(masks, n, labeled_mask, allowed, 1 << w, fact)
    return total


def dp_completions(masks, n: int, sources, require_u: int = -1, forbid_v: int = -1) -> list[int]:
    """Orderings of the vertices outside each source, a nonempty connected
    vertex mask, each adjacent to the source or an earlier pick; with
    forbid_v set, only those in which require_u comes before forbid_v.

    A memoized search: the completions of a connected set S are the sum of
    those of S | w over the allowed w in N[S] - S, and near = N[S] is
    passed down as S grows. A set whose near is every vertex is never
    searched: each order of its f free vertices is a labeling, and with
    the constraint, a set that lacks u lacks v too and finishes in f!/2
    ways. A set that lacks u never adds v. A source that holds u gets the
    unconstrained count, one that holds v but not u gets 0. One memo of
    the non-dominating sets serves every source of the batch and lives
    only for this call; past LAYER_LIMIT sets it raises ValueError. The
    search recurses at most n - |source| deep, which DP_LIMIT keeps at 23
    or less; lifting the cap needs an iterative search first.
    """
    full = (1 << n) - 1
    fact = _factorials(n)
    # with no constraint every set counts as holding u and nothing is blocked
    req = 1 << require_u if forbid_v >= 0 else -1
    late = 1 << forbid_v if forbid_v >= 0 else 0
    nbr = {1 << v: masks[v] | 1 << v for v in range(n)}
    limit = LAYER_LIMIT
    memo: dict[int, int] = {}
    get = memo.get

    def completions(s: int, near: int) -> int:
        after = fact[n - s.bit_count() - 1]  # orders after a dominating S | w
        acc = 0
        rem = near ^ s if s & req else (near ^ s) & ~late
        while rem:
            low = rem & -rem
            rem ^= low
            t = s | low
            value = get(t)
            if value is None:
                cover = near | nbr[low]
                if cover == full:
                    value = after if t & req else after // 2
                else:
                    value = completions(t, cover)
            acc += value
        if len(memo) >= limit:
            raise ValueError(f"instance too large: more than {limit} connected "
                             f"vertex sets in one completion table")
        memo[s] = acc
        return acc

    counts = []
    for s in sources:
        if not s & req and s & late:
            counts.append(0)
            continue
        value = get(s)
        if value is None:
            near = s
            rem = s
            while rem:
                low = rem & -rem
                rem ^= low
                near |= nbr[low]
            if near == full:
                whole = fact[n - s.bit_count()]
                value = whole if s & req else whole // 2
            else:
                value = completions(s, near)
        counts.append(value)
    return counts


def tree_count(masks, n: int, labeled_mask: int = 0) -> int:
    """dp_connected's count when the graph is a tree and labeled_mask is 0
    or a connected set L.

    A search outward from L (vertex 0 when L is empty) gives each free
    vertex a parent, towards L. A labeling is an order of the free vertices
    in which each comes after its parent, a linear extension of the tree
    with L contracted to its root: (n - |L|)! over the product of the free
    vertices' subtree sizes (Knuth, TAOCP vol. 3, 5.1.4). With L empty
    that is the count from vertex 0, and the total sums it over every
    root: moving the root from p to its child c multiplies the count by
    size(c) / (n - size(c)).
    """
    root = labeled_mask or 1
    parent = [-1] * n
    order = [v for v in range(n) if root >> v & 1]
    seen = root
    for v in order:
        rem = masks[v] & ~seen
        seen |= rem
        while rem:
            low = rem & -rem
            rem ^= low
            c = low.bit_length() - 1
            parent[c] = v
            order.append(c)
    free = order[root.bit_count():]
    size = [1] * n
    for v in reversed(free):
        size[parent[v]] += size[v]
    hooks = 1
    for v in free:
        hooks *= size[v]
    count = exact_div(factorial(len(free)), hooks, "tree hook-length count")
    if labeled_mask:
        return count
    counts = [0] * n
    counts[0] = total = count
    for c in free:
        counts[c] = exact_div(counts[parent[c]] * size[c], n - size[c], "rerooted tree count")
        total += counts[c]
    return total


# A connected-set pass grows every connected set of the graph, few on a
# sparse graph; a first-gap pass grows only sets inside one
# non-neighbourhood, small on a dense graph. Timing both kernels on random
# graphs of 18 and 24 vertices put the crossover near average degree 4.
# Two graphs of scripts/sweep24.py sit near the cut-off: hub21 (44 edges)
# goes to connected-set although first-gap counts it a little faster, and
# on the random graph of average degree 5 the two take about as long.
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
