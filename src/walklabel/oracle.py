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

The first-gap identity. Let W_R(k) count the valid k-sequences inside a
region R of r free vertices: sequences of distinct vertices of R, each next
to L or to an earlier one. Of the r! orders of R, W_R(k) (r - k)! start
with a valid k-sequence. Each other has a first gap x at some place
j + 1 <= k: x is not next to L, the j vertices before it are a valid
sequence inside R - N[x], and the r - j - 1 after it come in any order. So

    W_R(k) (r - k)! = r! - sum over x in R - N(L), start <= j < k
                           of W_{R - N[x]}(j) (r - j - 1)!,

where start is 1 when L is empty (a walk's first pick is never a gap) and
0 otherwise, and the count is W_free(f). No two components of R are
adjacent, so with L nonempty a valid sequence of R is any interleaving of
valid sequences of its components, and W_R is their binomial convolution;
with L empty the first pick fixes the component and the walk stays in it,
so W_R(k) for k >= 1 is the sum over the components. dp_first_gap
memoizes W_R by region, split into components, so a region that chains
of gaps leave again and again is counted once. No table over all 2^n
vertex subsets is built.

One rule, in _count, routes every query once its input is checked:

- an unconstrained query on a "tree" or a "first-gap" graph takes the
  kernel engine(g) names, set by set, a batch of sets included;
- every other query takes one dp_completions search: every query on a
  "connected-set" graph, and any query with an order constraint. A
  connected-set total is the sum of the every-start batch, since each
  labeling has one start.

engine(g) names one of three kernels:

- "tree", for a connected graph with n - 1 edges (perfect trees, combs,
  paths, stars): tree_count reads the count off hook lengths, with no DP,
  at O(n) arithmetic operations a query.
- "connected-set", for a graph of at most n + 2 edges and no vertex of
  degree 1 (cycles, two-cycle graphs, cycles with two chords): the
  completion search. Such a graph subdivides a multigraph of at most four
  vertices and six edges, so its connected sets are polynomially few. A
  leaf would let a hub grow 2^k of them: the star K1,22 with three chords
  and a pendant vertex takes the search past LAYER_LIMIT in 2.4 s.
- "first-gap", for every other graph: dp_first_gap. R - N[x] is small on
  a dense graph, and on the torus, grids and random graphs of average
  degree 3 and up the regions are far fewer than the connected sets.

The completion search, dp_completions, counts completions directly: those
of a connected set S are the sum of those of S | w over the w next to S,
and a set that dominates the graph finishes in any order. One memo of the
sets reached answers every labeled set of a batch (every start of
two_cycles(6, 7, 5) in 2 ms, not one search per start) and is dropped
when the call returns. It alone takes an order constraint "u before v",
because it alone builds an ordering one vertex at a time and can refuse v
while u is unlabeled: the first-gap sum lets the vertices after w come in
any order, and hook lengths count no pair order.

Three caps bound the work; past each a query raises ValueError("instance
too large: ..."), which the CLI prints as a clean exit 1.

- DP_LIMIT (24 vertices) bounds every query, trees included, and keeps
  the completion search and the first-gap recursion, which recurse once
  per vertex added or removed, at most 25 calls deep. It is the only bound
  on long sparse inputs. The tree formula's cost grows with the length of
  the count: with the cap removed count_labelings takes 7 ms on path(2000)
  and 1.4 s on a 40,000-vertex comb. The cap stays until one work budget
  per call bounds the formula and the DPs.
- LAYER_LIMIT (2^19) bounds the entries of one call's memo in
  dp_completions and dp_first_gap, checked before each insert. A set of
  the completion memo costs 96 to 141 bytes, about 75 MB when full
  (25.6 MB over the 189,948 sets of a search over every start of
  torus(12)). A region costs at most 1.24 KB, a vector of 25 ints of up
  to 80 bits: about 650 MB when full. The sweep graphs store at most
  8,688 regions (the 4x6 grid) at 270 to 330 bytes each (tracemalloc); no
  24-vertex graph tried stored more than 17,573.
- PERM_LIMIT (10 vertices) bounds count_labelings_perm, which filters all
  n! orderings to check the DPs and the formula, not to be fast.

The slowest 24-vertex graphs of scripts/sweep24.py take 0.04 to 0.07 s at
a 23 MB peak: the random graphs of average degree 3 and 4 and the 4x6 grid
under first-gap, the theta graph of four paths under connected-set. A
forward DP over the connected sets took 16 s on the random graph of
average degree 5, run once per gap vertex, and 198 MB on hub21 or the
chorded star, run once. All figures here are from a 2-core x86 machine.
The tests check every kernel against a subset DP over all 2^n vertex sets
and against permutation filtering.
"""

from __future__ import annotations

from itertools import permutations, zip_longest
from math import comb

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


def dp_first_gap(masks, n: int, labeled_mask: int = 0) -> int:
    """Orderings of the vertices outside labeled_mask, each adjacent to the
    labeled set or an earlier pick (labeled_mask 0: every start, the
    total), by the first-gap recursion of the module docstring. vector(R)
    is [W_R(0), ..., W_R(r)]; missing entries are 0, so a component with
    no vertex next to a nonempty labeled set is [1]. The memo of regions
    lives only for this call, and past LAYER_LIMIT regions it raises
    ValueError.
    """
    free = ((1 << n) - 1) & ~labeled_mask
    anchored = sum(1 << v for v in range(n) if masks[v] & labeled_mask)
    gaps = free & ~anchored
    start = 0 if labeled_mask else 1  # with L empty the first pick is never a gap
    fact = _factorials(free.bit_count())
    nbr = {1 << v: masks[v] for v in range(n)}
    memo: dict[int, list[int]] = {}
    get = memo.get

    def vector(region: int) -> list[int]:
        vec = get(region)
        if vec is not None:
            return vec
        part = frontier = region & -region
        while frontier:
            grow = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                grow |= nbr[low]
            frontier = grow & region & ~part
            part |= frontier
        if part != region:
            a, b = vector(part), vector(region ^ part)
            if labeled_mask:  # independent parts interleave freely
                vec = [0] * (len(a) + len(b) - 1)
                for i, x in enumerate(a):
                    for j, y in enumerate(b, i):
                        vec[j] += comb(j, i) * x * y
            else:  # a walk with no labeled set stays in one part
                vec = [1] + [x + y for x, y in zip_longest(a[1:], b[1:], fillvalue=0)]
        elif labeled_mask and not region & anchored:
            vec = [1]
        else:
            r = region.bit_count()
            sums = [0] * r
            rem = region & gaps
            while rem:
                low = rem & -rem
                rem ^= low
                for j, w in enumerate(vector(region & ~(nbr[low] | low))):
                    sums[j] += w
            vec = [1]
            failed = 0
            for k in range(1, r + 1):
                if k > start:
                    failed += sums[k - 1] * fact[r - k]
                vec.append((fact[r] - failed) // fact[r - k])
        if len(memo) >= LAYER_LIMIT:
            raise ValueError(f"instance too large: more than {LAYER_LIMIT} gap regions in one first-gap count")
        memo[region] = vec
        return vec

    return vector(free)[-1]  # vector(0) is [1]: every vertex labeled


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
    """dp_first_gap's count when the graph is a tree and labeled_mask is 0
    or a connected set L.

    A search outward from L (vertex 0 when L is empty) gives each free
    vertex a parent, towards L. A labeling is an order of the free vertices
    in which each comes after its parent, a linear extension of the tree
    with L contracted to its root: (n - |L|)! over the product of the free
    vertices' subtree sizes (Knuth, TAOCP vol. 3, 5.1.4). With L empty
    that is count0, the count from vertex 0, and the total sums the count
    over every root. Moving the root from p to its child c multiplies it
    by size(c) / (n - size(c)), so the total is count0 F(0), where

        F(v) = 1 + sum over v's children c of size(c) / (n - size(c)) F(c).

    F(v) is summed bottom-up as one fraction num[v] / den[v], den[v] the
    product of n - size(u) over v's subtree without v, and the total is
    one exact division of count0 num[0] by den[0].
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
    num, den = [1] * n, [1] * n
    for c in reversed(free):
        p, a, b = parent[c], size[c] * num[c], (n - size[c]) * den[c]
        num[p], den[p] = num[p] * b + a * den[p], den[p] * b
        num[c] = den[c] = 0  # merged: a path would keep O(n^2 log n) bits alive
    return exact_div(count * num[0], den[0], "tree total")


# The completion search grows every connected set of the graph, the
# first-gap recursion the regions that chains of gaps leave. On 24-vertex
# graphs of n + 1 or n + 2 edges and no leaf (two_cycles(8, 8, 8), K4 with
# its edges subdivided, and scripts/sweep24.py's cycle-chords and theta4)
# the search's total is 3 to 10 times faster. On the other non-tree sweep
# graphs it is 25 to 230 times slower, or passes LAYER_LIMIT after 2.1 to
# 3.5 s (the 4x6 grid, hub21, star-chords, the random graphs of average
# degree 3 to 8) where the recursion takes at most 0.08 s. A batch follows
# the label too: one dp_first_gap per start counts every start of each
# first-gap sweep graph in at most 0.6 s; one search fails on 8 of the 11.
def engine(g: Graph) -> str:
    """The kernel that counts g's unconstrained queries: "tree" when g is
    connected with n - 1 edges (the hook-length formula, no DP),
    "connected-set" when it otherwise has at most n + 2 edges and no vertex
    of degree 1 (the completion search), and "first-gap" for every other
    graph. _count sends every unconstrained query on a "tree" or a
    "first-gap" graph, set by set and batches included, to that kernel,
    and every other query to one completion search. DP_LIMIT bounds all of
    them: the formula's cost grows with the length of its count."""
    edges = g.edge_count()
    if edges == g.n - 1 and is_connected(g):
        return "tree"
    if edges <= g.n + 2 and all(m & (m - 1) for m in g.masks):
        return "connected-set"
    return "first-gap"


_KERNELS = {"tree": tree_count, "first-gap": dp_first_gap}


def check_size(n: int) -> None:
    """Reject an instance of n vertices past DP_LIMIT. The CLI calls it on
    an edge list's vertex count before the graph is built."""
    if n > DP_LIMIT:
        raise ValueError(f"instance too large: {n} vertices exceeds the DP limit {DP_LIMIT}")


def _check_vertex(g: Graph, v: int, name: str) -> None:
    if not 0 <= v < g.n:
        raise ValueError(f"{name} {v} out of range")


def _labeled_mask(g: Graph, labeled, name: str) -> int:
    """The mask of a labeled vertex set, checked to be in range, nonempty
    and connected, as a walk's visited set always is."""
    vs = sorted(set(labeled))
    if not vs:
        raise ValueError("labeled set not connected: it is empty")
    mask = 0
    for v in vs:
        _check_vertex(g, v, name)
        mask |= 1 << v
    if not is_connected(g, mask):
        raise ValueError("labeled set not connected")
    return mask


def _count(g: Graph, labeled_sets=None, before=None, name: str = "labeled vertex") -> list[int]:
    """The counts of one query, each labeled set's (None: the total, from
    every start), by the routing rule of the module docstring. The size and
    connectivity of g are checked first, then each set in turn, a vertex
    out of range named by name, then before=(u, v)."""
    check_size(g.n)
    if not is_connected(g):
        raise ValueError("graph not connected")
    sources = [0] if labeled_sets is None else [_labeled_mask(g, vs, name) for vs in labeled_sets]
    if before is None:
        kind = engine(g)
        if kind != "connected-set":
            return [_KERNELS[kind](g.masks, g.n, s) for s in sources]
        if labeled_sets is None:  # each labeling has one start
            return [sum(dp_completions(g.masks, g.n, [1 << v for v in range(g.n)]))]
        before = (-1, -1)
    else:
        u, v = before
        _check_vertex(g, u, "u")
        _check_vertex(g, v, "v")
        if u == v:
            raise ValueError("order constraint needs two distinct vertices")
    return dp_completions(g.masks, g.n, sources, *before)


def count_labelings(g: Graph) -> int:
    """Number of random walk labelings of g (all starting vertices)."""
    return _count(g)[0]


def count_labelings_from(g: Graph, start: int) -> int:
    """Labelings whose first label lands on start."""
    return _count(g, [[start]], name="start")[0]


def count_completions(g: Graph, labeled) -> int:
    """Ways to extend a partial labeling to all of g.

    labeled is the set of already-labeled vertices; it must induce a
    connected subgraph, because a walk's visited set is always connected.
    """
    return _count(g, [labeled])[0]


def count_completions_each(g: Graph, labeled_sets, before=None) -> list[int]:
    """count_completions of each labeled set, by the routing rule of the
    module docstring: a "tree" or "first-gap" graph's kernel counts the
    sets one by one, and one search counts them all otherwise.

    With before=(u, v), count only the completions in which u gets a
    smaller label than v: a set that holds u gets its plain count, and
    one that holds v but not u gets 0.
    """
    return _count(g, list(labeled_sets), before)  # None fails here, not as the total


def count_labelings_from_before(g: Graph, start: int, u: int, v: int) -> int:
    """Labelings starting at start in which u gets a smaller label than v:
    a one-source completion search that never labels v while u is still
    unlabeled. A start at u leaves the count unconstrained, and a start
    at v makes it 0.
    """
    return _count(g, [[start]], (u, v), "start")[0]


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
