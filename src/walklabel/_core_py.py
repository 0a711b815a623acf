"""The oracle's kernels: dp_connected and dp_first_gap, two call patterns
of one failure sum, dp_completions, one memoized search for many queries of
one graph, and tree_count, the hook-length formula on a tree.

An ordering of the f free vertices (those outside the labeled set L) that
is not a labeling has a first gap w, with no neighbour in L or earlier.
The k free vertices before w extend L to a connected set S whose closed
neighbourhood N[S] misses w, and the r = f - 1 - k after w come in any
order, so the count is f! minus count(S) r! over such S and w. _failed
sums that by a forward DP over connected sets; dp_connected runs it once
over the graph, dp_first_gap once per w. These two answer one
unconstrained query each.

dp_completions instead counts completions directly: those of a connected
set S are the sum of those of S | w over the w next to S, and one memo of
the sets reached answers every source of a batch at once. It alone takes
an order constraint "u before v". The tests check all four against a
subset DP over all 2^n vertex sets and against permutation filtering.

On a tree no DP is needed: a labeling that extends L is an order of the
free vertices in which each comes after its neighbour towards L, so
tree_count reads the count off the subtree sizes in O(n) arithmetic
operations.
"""

from __future__ import annotations

from .bigmath import exact_div, factorial

__all__ = ["dp_completions", "dp_connected", "dp_first_gap", "tree_count"]

# Most sets one layer of _failed, or the memo of one dp_completions call,
# may hold. A layer is checked once per stored set (so up to n sets past
# it) and costs about 240 bytes a set, about 250 MB in all. The widest
# layer within DP_LIMIT found so far, C(21, 10) = 352,716 sets of the hub
# joined to K1,21 and one more vertex, fits (192 MB peak on a 2-core x86
# machine); dp_connected on K1,23 with one more vertex joined to a leaf,
# C(22, 11) = 705,432 sets, does not. The memo is checked before each
# insert and costs 96 to 141 bytes a set, about 75 MB when full: ru_maxrss
# of a fresh process grew by 25.6 MB over the 189,948 sets of torus(12)'s
# per-start batch, and by 14.8 and 29.5 MB over the 161,884 and 313,231
# sets of random 20- and 21-vertex graphs of average degree 4.
LAYER_LIMIT = 1 << 19


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
