"""The subset DP over all 2^n vertex sets: the reference the completion
search, the first-gap recursion and the tree formula are checked against,
next to permutation filtering.

The oracle no longer runs it: its 2^n table is what the oracle's kernels
avoid. Subset iteration is popcount-ascending, then numerically ascending
within a popcount layer (Gosper's hack), so the table for smaller sets is
always complete before it is read; dp_completion_table walks the layers
the other way, widest first.
"""

from __future__ import annotations

__all__ = ["dp_completion_table", "dp_resume", "dp_total"]


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


def dp_completion_table(masks, n: int) -> list[int]:
    """table[S], for every vertex mask S: orderings of the vertices outside
    S, each adjacent to S or an earlier pick. One backward pass, popcount
    descending, answers every start (table[1 << v]) and every labeled set;
    table[0] is left 0.
    """
    full = (1 << n) - 1
    table = [0] * (full + 1)
    table[full] = 1
    for p in range(n - 1, 0, -1):
        for c in _layer(p, n):
            near = 0
            rem = c
            while rem:
                low = rem & -rem
                rem ^= low
                near |= masks[low.bit_length() - 1]
            rem = near & ~c
            acc = 0
            while rem:
                low = rem & -rem
                rem ^= low
                acc += table[c | low]
            table[c] = acc
    return table
