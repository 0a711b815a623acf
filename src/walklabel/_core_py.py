"""Pure Python DP kernels: the subset DP and the connected-set DP.

dp_total and dp_resume are the subset DP, the reference twin of the
compiled _core: both backends expose these two functions and must return
identical values, and walklabel.oracle prefers the compiled module at
import time when available. Subset iteration is popcount-ascending, then
numerically ascending within a popcount layer (Gosper's hack), so the table
for smaller sets is always complete before it is read.

dp_connected counts the same orderings by a forward DP that only ever holds
connected vertex sets, which is what makes sparse graphs cheap. It exists
in pure Python only.
"""

from __future__ import annotations

__all__ = ["dp_connected", "dp_resume", "dp_total"]

BACKEND = "pure-python"

# Most sets one layer of dp_connected may hold, checked once per source set
# (a layer may end up to n sets past it). At about 240 bytes per set and two
# live layers, K1,22 and K1,23 stop at 245 MB peak on a 2-core x86 machine;
# the widest layer of K1,21, C(21, 10) = 352,716 sets (192 MB peak), fits.
LAYER_LIMIT = 1 << 19


def _layer(popcount: int, nbits: int):
    """Yield all nbits-wide masks with the given popcount, ascending."""
    c = (1 << popcount) - 1
    top = 1 << nbits
    while c < top:
        yield c
        low = c & -c
        lifted = c + low
        c = lifted | ((c ^ lifted) >> (low.bit_length() + 1))


def dp_total(masks, n: int) -> int:
    """Number of orderings of all n vertices where each vertex after the
    first is adjacent to an earlier one. masks[v] = neighbor bitmask."""
    full = (1 << n) - 1
    table = [0] * (full + 1)
    for v in range(n):
        table[1 << v] = 1
    for p in range(2, n + 1):
        for c in _layer(p, n):
            acc = 0
            rem = c
            while rem:
                low = rem & -rem
                rem ^= low
                prev = c ^ low
                if masks[low.bit_length() - 1] & prev:
                    acc += table[prev]
            table[c] = acc
    return table[full]


def dp_resume(masks, n: int, labeled_mask: int, require_u: int = -1, forbid_v: int = -1) -> int:
    """Orderings of the vertices outside labeled_mask, each adjacent to the
    labeled set or an earlier pick; optionally the transition placing
    forbid_v is blocked until require_u has been placed.

    The DP runs in the compressed index space of the free vertices, so the
    table size is 2^(free count) regardless of where the labeled set sits.
    """
    full = (1 << n) - 1
    free_mask = full & ~labeled_mask
    free = [v for v in range(n) if free_mask >> v & 1]
    f = len(free)
    if f == 0:
        return 1
    pos = {v: i for i, v in enumerate(free)}
    adjc = []
    anchored = []
    for v in free:
        a = 0
        for u in free:
            if masks[v] >> u & 1:
                a |= 1 << pos[u]
        adjc.append(a)
        anchored.append(1 if masks[v] & labeled_mask else 0)
    ju = pos[require_u] if require_u >= 0 else -1
    jv = pos[forbid_v] if forbid_v >= 0 else -1
    table = [0] * (1 << f)
    table[0] = 1
    for p in range(1, f + 1):
        for c in _layer(p, f):
            acc = 0
            rem = c
            while rem:
                low = rem & -rem
                rem ^= low
                i = low.bit_length() - 1
                prev = c ^ low
                if i == jv and not prev >> ju & 1:
                    continue
                if anchored[i] or adjc[i] & prev:
                    acc += table[prev]
            table[c] = acc
    return table[(1 << f) - 1]


def dp_connected(masks, n: int, labeled_mask: int = 0, require_u: int = -1, forbid_v: int = -1) -> int:
    """dp_resume by a forward DP over connected vertex sets; labeled_mask 0
    means every start (the total, as dp_total). With forbid_v set, v is
    never added while require_u is missing, nor used as a start.

    Layer k maps each reachable set S of k vertices to [count, frontier],
    the frontier being the vertices outside S adjacent to it. S pushes its
    count to S | v for every frontier vertex v; the frontier of S | v is
    computed once, when S | v is first reached. Only two layers are alive
    at a time, so work and memory follow the number of connected sets
    rather than 2^n. A layer that grows past LAYER_LIMIT sets raises
    ValueError.
    """
    nbr = {1 << v: masks[v] for v in range(n)}
    if labeled_mask:
        front = 0
        for v in range(n):
            if labeled_mask >> v & 1:
                front |= masks[v]
        layer = {labeled_mask: [1, front & ~labeled_mask]}
    else:
        layer = {1 << v: [1, masks[v]] for v in range(n) if v != forbid_v}
    # with no constraint req is 0 and blocked keeps every bit
    req = 1 << require_u if require_u >= 0 else 0
    blocked = ~(1 << forbid_v) if forbid_v >= 0 else -1
    limit = LAYER_LIMIT
    for _ in range(n - (labeled_mask.bit_count() if labeled_mask else 1)):
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
    entry = layer.get((1 << n) - 1)
    return entry[0] if entry else 0
