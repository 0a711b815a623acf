"""Expected values computed without the code path each op times.

- forward_count: labelings by a forward DP over connected vertex sets. It
  also returns how many sets it touched, which is the benchmark's count of
  the DP states that can carry a nonzero value (``oracle.connected_states``).
- torus_total: n (n + 2) (2n - 2)! / (n - 2)! with math.factorial.
- tree_total: the hook-length formula for trees, summed over all roots by
  rerooting; it checks perfect trees and combs (a comb is a tree).
- verify_check_count: the number of Check records a verify grid yields.
"""

from __future__ import annotations

import math


def forward_count(masks, n: int, labeled: int = 0, require: int = -1, forbid: int = -1) -> tuple[int, int]:
    """(labelings, connected states) of the graph with neighbour bitmasks
    masks, extending the connected labeled set (0: every start), never
    adding forbid while require is unlabeled."""
    if labeled:
        layer = {labeled: 1}
        front = {labeled: _neighbours(masks, labeled) & ~labeled}
    else:
        layer = {1 << v: 1 for v in range(n)}
        front = {1 << v: masks[v] for v in range(n)}
    states = len(layer)
    for _ in range(n - labeled.bit_count() - (0 if labeled else 1)):
        nxt: dict[int, int] = {}
        nfront: dict[int, int] = {}
        for s, c in layer.items():
            f = front[s]
            if forbid >= 0 and not s >> require & 1:
                f &= ~(1 << forbid)
            while f:
                low = f & -f
                f ^= low
                t = s | low
                if t in nxt:
                    nxt[t] += c
                else:
                    nxt[t] = c
                    nfront[t] = (front[s] | masks[low.bit_length() - 1]) & ~t
        layer, front = nxt, nfront
        states += len(layer)
    return layer.get((1 << n) - 1, 0), states


def _neighbours(masks, s: int) -> int:
    out = 0
    while s:
        low = s & -s
        s ^= low
        out |= masks[low.bit_length() - 1]
    return out


def torus_total(n: int) -> int:
    return n * (n + 2) * math.factorial(2 * n - 2) // math.factorial(n - 2)


def tree_total(adj: list[list[int]]) -> int:
    """Labelings of a tree: from root r there are n! / prod(subtree sizes);
    moving the root from p to its child c multiplies that by
    size(c) / (n - size(c))."""
    n = len(adj)
    parent = [-1] * n
    order = [0]
    parent[0] = 0
    for v in order:
        for u in adj[v]:
            if parent[u] < 0:
                parent[u] = v
                order.append(u)
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    prod = 1
    for s in size:
        prod *= s
    count = [0] * n
    count[0] = math.factorial(n) // prod
    for v in order[1:]:
        count[v] = count[parent[v]] * size[v] // (n - size[v])
    return sum(count)


def perfect_tree_adj(h: int, m: int) -> list[list[int]]:
    n = (m ** (h + 1) - 1) // (m - 1)
    adj: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        p = (v - 1) // m
        adj[v].append(p)
        adj[p].append(v)
    return adj


def comb_adj(m: int, n: int, k: int) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(m * n)]

    def join(a: int, b: int) -> None:
        adj[a].append(b)
        adj[b].append(a)

    for i in range(m):
        for j in range(n - 1):
            join(i * n + j, i * n + j + 1)
        if i + 1 < m:
            join(i * n + k - 1, (i + 1) * n + k - 1)
    return adj


def verify_check_count(max_h: int, max_m: int, max_vertices: int, max_mn: int,
                       max_n: int, max_oracle_n: int, max_total: int, max_lemma_total: int) -> int:
    """Checks `walklabel verify --family all` reports for these grid flags,
    counted from the grids the harness documents (combs: 8 x 6 lemma grid,
    two-cycle parts up to 8)."""
    total = 0
    for m in range(2, max_m + 1):
        for h in range(max_h + 1):
            total += 2 * h + 1
            n = (m ** (h + 1) - 1) // (m - 1)
            if n <= max_vertices:
                total += 1 + 2 * (h + 1)
            total += sum(1 for k in range(h) if n - (m ** (h - k) - 1) // (m - 1) <= max_vertices)
    for m in range(1, max_mn // 2 + 1):
        total += sum(4 * n for n in range(2, max_mn // m + 1))
    total += 9 * sum(range(2, 7)) + 2
    for n in range(2, max_n + 1):
        total += n + 1 + sum(2 if s + t >= n else 1 for s in range(n) for t in range(n))
    for n in range(1, max_oracle_n + 1):
        total += 1 + (n + n * (n + 1) // 2 if n >= 2 else 0)
    total += 2
    for a1 in range(2, 9):
        for a2 in range(2, 9):
            for a3 in range(2, 9):
                if a1 + a2 + a3 <= max_total:
                    total += 2
                    if a1 + a2 + a3 <= max_lemma_total:
                        total += 1 + (a2 - 2) + a1 + a3
    return total
