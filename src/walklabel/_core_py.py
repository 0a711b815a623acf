"""The oracle's DP kernels: dp_connected and dp_first_gap, two call
patterns of one failure sum.

An ordering of the f free vertices (those outside the labeled set L) that
is not a labeling has a first gap w, with no neighbour in L or earlier.
The k free vertices before w extend L to a connected set S whose closed
neighbourhood N[S] misses w, and the r = f - 1 - k after w come in any
order, so the count is f! minus count(S) r! over such S and w. _failed
sums that by a forward DP over connected sets; dp_connected runs it once
over the graph, dp_first_gap once per w. The tests check both against a
subset DP over all 2^n vertex sets and against permutation filtering.
"""

from __future__ import annotations

__all__ = ["dp_connected", "dp_first_gap"]

# Most sets one layer of _failed may hold, checked once per source set (a
# layer may end up to n sets past it): about 250 MB at about 240 bytes per
# set and two live layers. The widest layer within DP_LIMIT found so far,
# C(21, 10) = 352,716 sets of the hub joined to K1,21 and one more vertex,
# fits (192 MB peak on a 2-core x86 machine); dp_connected on K1,23 with
# one more vertex joined to a leaf, C(22, 11) = 705,432 sets, does not.
LAYER_LIMIT = 1 << 19


def _orderings(free: int, require_u: int, forbid_v: int):
    """Factorials 0! to f! of the f free vertices, the count of their
    orderings and the constraint on them: require_u before forbid_v halves
    the count when both are free, and binds nothing (-1, -1) when either
    is labeled (a labeled u precedes v; a labeled v is never added)."""
    fact = [1]
    for i in range(1, free.bit_count() + 1):
        fact.append(fact[-1] * i)
    if forbid_v < 0 or not free >> require_u & 1 or not free >> forbid_v & 1:
        return fact, fact[-1], -1, -1
    return fact, fact[-1] // 2, require_u, forbid_v


def _failed(masks, n: int, labeled_mask: int, allowed: int, targets: int,
            require_u: int, forbid_v: int, fact) -> int:
    """Orderings of the free vertices whose first gap lies in targets.

    A forward DP over the connected sets S inside allowed that extend
    labeled_mask (0: nonempty sets, started anywhere but forbid_v). A layer
    maps each S of one size to [count, near], near being S and its allowed
    neighbours; S pushes its count to S | v for each v in near - S and adds
    count(S) (f - 1 - k)! per target outside near, k being the free
    vertices in S. Every target lies in allowed or has no neighbour there,
    so near misses the targets N[S] misses. S | v is not stored when its
    near covers targets: neither it nor a superset has a gap. With
    require_u before forbid_v, v is never added while u is missing, and a
    gap weighs in halves of r!: 2 when S holds u or the gap is u, 0 when it
    is v, else 1 (u and v both follow it). A layer past LAYER_LIMIT sets
    raises ValueError.
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
        layer = {1 << v: [1, nbr[1 << v] | 1 << v] for v in range(n) if allowed >> v & 1 and v != forbid_v}
        r = len(fact) - 3
    # with no constraint every set counts as holding u and blocked keeps every bit
    req = 1 << require_u if forbid_v >= 0 else -1
    late = 1 << forbid_v if forbid_v >= 0 else 0
    blocked = ~late
    limit = LAYER_LIMIT
    halves = 0
    while layer:
        nxt = {}
        get = nxt.get
        whole = half = 0
        for s, (c, near) in layer.items():
            if len(nxt) > limit:
                raise ValueError(f"instance too large: more than {limit} connected "
                                 f"vertex sets of {s.bit_count() + 1} vertices")
            gaps = targets & ~near
            if s & req:
                whole += c * gaps.bit_count()
                rem = near ^ s
            else:
                half += c * (gaps.bit_count() + (gaps & req > 0) - (gaps & late > 0))
                rem = (near ^ s) & blocked
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
        halves += (2 * whole + half) * fact[r]
        r -= 1
        layer = nxt
    return halves // 2


def dp_connected(masks, n: int, labeled_mask: int = 0, require_u: int = -1, forbid_v: int = -1) -> int:
    """Orderings of the vertices outside labeled_mask, each adjacent to the
    labeled set or an earlier pick; labeled_mask 0 means every start (the
    total). With forbid_v set, v is never added while require_u is
    missing, nor used as a start. One pass of _failed over the graph.
    """
    free = ((1 << n) - 1) & ~labeled_mask
    fact, total, require_u, forbid_v = _orderings(free, require_u, forbid_v)
    return total - _failed(masks, n, labeled_mask, (1 << n) - 1, free, require_u, forbid_v, fact)


def dp_first_gap(masks, n: int, labeled_mask: int = 0, require_u: int = -1, forbid_v: int = -1) -> int:
    """dp_connected's count by one pass of _failed per free w with no
    labeled neighbour, inside the labeled set and w's free non-neighbours.
    A vertex adjacent to all others never enters another's pass.
    """
    free = ((1 << n) - 1) & ~labeled_mask
    fact, total, require_u, forbid_v = _orderings(free, require_u, forbid_v)
    for w in range(n):
        if free >> w & 1 and not masks[w] & labeled_mask:
            allowed = labeled_mask | (free & ~masks[w] & ~(1 << w))
            total -= _failed(masks, n, labeled_mask, allowed, 1 << w, require_u, forbid_v, fact)
    return total
