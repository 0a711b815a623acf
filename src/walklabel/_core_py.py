"""The oracle's DP kernels: the connected-set DP and the first-gap DP.

dp_connected counts the orderings in which every vertex is adjacent to an
earlier one (or to the labeled set) by a forward DP that only ever holds
connected vertex sets, which is what makes sparse graphs cheap.
dp_first_gap subtracts the orderings that fail from all of them, running
that forward DP on one vertex's non-neighbourhood at a time, which is what
makes dense graphs cheap. Both share the layer loop _layers and its
LAYER_LIMIT. The tests check them against a subset DP over all 2^n vertex
sets and against permutation filtering.
"""

from __future__ import annotations

__all__ = ["dp_connected", "dp_first_gap"]

# Most sets one layer of _layers (dp_connected, dp_first_gap) may hold,
# checked once per source set (a layer may end up to n sets past it). At
# about 240 bytes per set and two live layers, dp_connected stops K1,22 and
# K1,23 at 245 MB peak on a 2-core x86 machine; the widest layer of K1,21,
# C(21, 10) = 352,716 sets (192 MB peak), fits.
LAYER_LIMIT = 1 << 19


def _layers(masks, n: int, labeled_mask: int, allowed: int, require_u: int, forbid_v: int):
    """Yield the layers of a forward DP over the connected vertex sets
    inside allowed, from labeled_mask (0: from every allowed vertex but
    forbid_v) until no set can grow. With forbid_v set, forbid_v is never
    added while require_u is missing.

    A layer maps each reachable set S of one size to [count, frontier],
    the frontier being the allowed vertices outside S adjacent to it. S
    pushes its count to S | v for every frontier vertex v; the frontier of
    S | v is computed once, when S | v is first reached. Only two layers
    are alive at a time, so work and memory follow the number of connected
    sets rather than 2^n. A layer that grows past LAYER_LIMIT sets raises
    ValueError.
    """
    nbr = {1 << v: masks[v] & allowed for v in range(n)}
    if labeled_mask:
        front = 0
        for v in range(n):
            if labeled_mask >> v & 1:
                front |= nbr[1 << v]
        layer = {labeled_mask: [1, front & ~labeled_mask]}
    else:
        layer = {1 << v: [1, nbr[1 << v]] for v in range(n) if allowed >> v & 1 and v != forbid_v}
    # with no constraint req is 0 and blocked keeps every bit
    req = 1 << require_u if require_u >= 0 else 0
    blocked = ~(1 << forbid_v) if forbid_v >= 0 else -1
    limit = LAYER_LIMIT
    while layer:
        yield layer
        nxt = {}
        get = nxt.get
        for s, (c, f) in layer.items():
            if len(nxt) > limit:
                raise ValueError(f"instance too large: more than {limit} connected "
                                 f"vertex sets of {s.bit_count() + 1} vertices")
            rem = f if s & req else f & blocked
            while rem:
                low = rem & -rem
                rem ^= low
                t = s | low
                entry = get(t)
                if entry is None:
                    nxt[t] = [c, (f | nbr[low]) & ~t]
                else:
                    entry[0] += c
        layer = nxt


def dp_connected(masks, n: int, labeled_mask: int = 0, require_u: int = -1, forbid_v: int = -1) -> int:
    """Orderings of the vertices outside labeled_mask, each adjacent to the
    labeled set or an earlier pick, by a forward DP over connected vertex
    sets; labeled_mask 0 means every start (the total). With forbid_v set,
    v is never added while require_u is missing, nor used as a start. The
    count is that of the full vertex set in the last layer of _layers.
    """
    full = (1 << n) - 1
    last = {}
    for last in _layers(masks, n, labeled_mask, full, require_u, forbid_v):
        pass
    entry = last.get(full)
    return entry[0] if entry else 0


def dp_first_gap(masks, n: int, labeled_mask: int = 0, require_u: int = -1, forbid_v: int = -1) -> int:
    """dp_connected's count as all orderings minus those that fail.

    An ordering of the f free vertices that fails has a first vertex w
    with no neighbour in the labeled set or earlier. The k free vertices
    before w extend the labeled set to a connected set inside w's
    non-neighbourhood, and the r = f - 1 - k after it come in any order.
    So the count is f! minus, over the free w with no labeled neighbour,
    r! times the counts of layer k of _layers run inside labeled_mask and
    the free non-neighbours of w. With require_u before forbid_v (both
    free) the total is f!/2; a prefix holding u keeps weight r!, one
    without u (hence without v) has u and v after w and weight r!/2,
    except at w = u, where v follows u (weight r!), and at w = v, where
    v precedes u (weight 0).

    Each DP runs on the non-neighbourhood of one vertex, so on dense
    graphs the sets stay few and small. A vertex adjacent to all others
    never enters a DP.
    """
    free = ((1 << n) - 1) & ~labeled_mask
    f = free.bit_count()
    fact = [1]
    for i in range(1, f + 1):
        fact.append(fact[-1] * i)
    req = 1 << require_u if forbid_v >= 0 else 0
    failed = 0
    for w in range(n):
        if not free >> w & 1 or masks[w] & labeled_mask:
            continue
        # weight of a prefix without u, in halves of r!
        halves = 2 if not req or w == require_u else 0 if w == forbid_v else 1
        allowed = labeled_mask | (free & ~masks[w] & ~(1 << w))
        layers = _layers(masks, n, labeled_mask, allowed, require_u, forbid_v)
        for k, layer in enumerate(layers, 0 if labeled_mask else 1):
            weight = fact[f - 1 - k]
            held = sum(e[0] for s, e in layer.items() if s & req) if req else 0
            rest = sum(e[0] for e in layer.values()) - held
            failed += held * weight + rest * weight * halves // 2
    return (fact[f] // 2 if req else fact[f]) - failed
