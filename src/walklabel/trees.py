"""Labeling counts for perfect m-ary trees.

Conventions: T(h, m) is the perfect m-ary tree of height h (all leaves at
depth h, every internal vertex with m children). t(h, m, k) counts the
labelings that start at a depth-k vertex; s(h, m, k) counts the ways to
finish labeling T(h, m) minus one depth-(k+1) subtree, given that exactly
the path from the root to the bereaved depth-k parent is labeled (the
recursive step the t recurrence consumes).

count_perfect_tree is the fast path: one factorial and one exact division
give the root-started count by hook lengths, and each start depth below it
is one exact small-integer step (O(h) steps in all). The per-depth
quantities keep two independent evaluation paths, the mutual recurrences
(t_rec, s_rec) and fully expanded products (t_closed, s_closed); verify
holds them equal to each other and to the brute-force oracle, and the tests
hold count_perfect_tree equal to the depth-weighted sum of t_rec.

Sizes below are written with the geometric sums (m^a - m^b) // (m - 1),
which are exact by construction for every m >= 2. The hook-length quotient
and the rerooting steps are exact only because the formula says so, so they
divide through bigmath.exact_div, which raises instead of flooring.
"""

from __future__ import annotations

from functools import cache

from .bigmath import binomial, exact_div, factorial, multinomial

__all__ = [
    "alpha",
    "beta",
    "count_perfect_tree",
    "gamma",
    "oeis_tree_root_sequence",
    "s_closed",
    "s_rec",
    "t_closed",
    "t_rec",
]


def _check_hm(h: int, m: int, min_h: int = 0, k: int = 0) -> None:
    """m >= 2, h >= min_h and k in [0, h - min_h]: a depth-k start for
    min_h = 0, a bereaved depth-k parent for min_h = 1."""
    if m < 2:
        raise ValueError(f"parameter out of range: m = {m} must be >= 2")
    if h < min_h:
        raise ValueError(f"parameter out of range: h = {h} must be >= {min_h}")
    if not 0 <= k <= h - min_h:
        raise ValueError(f"parameter out of range: k = {k} must be in [0, {h - min_h}]")


def _geo(m: int, a: int, b: int = 0) -> int:
    """(m^a - m^b) // (m - 1), the number of vertices at depths b..a-1."""
    return (m**a - m**b) // (m - 1)


def alpha(h: int, m: int) -> int:
    """Ways to interleave the m depth-(<= h) subtrees hanging off one root:
    multinomial of m blocks of (m^h - 1) / (m - 1) vertices each."""
    _check_hm(h, m, min_h=1)
    return multinomial([_geo(m, h)] * m)


def beta(h: int, m: int, k: int) -> int:
    """Interleaving factor at the bereaved depth-k vertex of T(h, m):
    m - 1 intact child subtrees of height h - k - 1 against the block of
    vertices outside the depth-k subtree that are still unlabeled."""
    _check_hm(h, m, 1, k)
    return multinomial([_geo(m, h - k)] * (m - 1) + [_geo(m, h + 1, h - k + 1)])


def gamma(h: int, m: int, k: int) -> int:
    """Positions of the depth-k start's subtree among all non-root vertices:
    C((m^(h+1) - m)/(m - 1), (m^(h+1-k) - m)/(m - 1))."""
    _check_hm(h, m, 0, k)
    return binomial(_geo(m, h + 1, 1), _geo(m, h + 1 - k, 1))


@cache
def _t0_table(h: int, m: int) -> tuple[int, ...]:
    """t(j, m, 0) for j = 0..h: root-started counts, built bottom-up."""
    values = [1]
    for j in range(1, h + 1):
        values.append(values[j - 1] ** m * alpha(j, m))
    return tuple(values)


@cache
def s_rec(h: int, m: int, k: int) -> int:
    """Completion count after removing one depth-(k+1) subtree, by the
    mutual recurrence over the t(., m, 0) table: each k extends the cached
    s(h, m, k - 1) by one level, with s(h, m, -1) = 1."""
    _check_hm(h, m, 1, k)
    below = s_rec(h, m, k - 1) if k else 1
    return _t0_table(h, m)[h - k - 1] ** (m - 1) * below * beta(h, m, k)


@cache
def t_rec(h: int, m: int, k: int) -> int:
    """Labelings of T(h, m) started at a depth-k vertex, by recurrence."""
    _check_hm(h, m, 0, k)
    t0 = _t0_table(h, m)
    if k == 0:
        return t0[h]
    return t0[h - k] * s_rec(h, m, k - 1) * gamma(h, m, k)


def s_closed(h: int, m: int, k: int) -> int:
    """Product form of s_rec: prod over j of beta(h, m, j) times the alpha
    powers contributed by the m - 1 intact subtrees at each level."""
    _check_hm(h, m, 1, k)
    value = 1
    for j in range(k + 1):
        value *= beta(h, m, j)
        for level in range(1, h - j):
            value *= alpha(level, m) ** ((m - 1) * m ** (h - 1 - j - level))
    return value


def t_closed(h: int, m: int, k: int) -> int:
    """Product form of t_rec."""
    _check_hm(h, m, 0, k)
    value = gamma(h, m, k)
    for j in range(1, h - k + 1):
        value *= alpha(j, m) ** (m ** (h - k - j))
    if k:
        value *= s_closed(h, m, k - 1)
    return value


def count_perfect_tree(h: int, m: int) -> int:
    """Total labelings of T(h, m): sum over start depths of m^k t(h, m, k),
    by rerooted hook lengths. With s_j the size of a depth-j subtree and n
    the tree's size, t(h, m, 0) = n! / prod_j s_j^(m^j), and moving the
    start from a depth-(k-1) vertex to its child multiplies the count by
    s_k / (n - s_k), an exact integer step."""
    _check_hm(h, m)
    n = _geo(m, h + 1)
    hooks = 1
    for j in range(h + 1):
        hooks *= _geo(m, h + 1 - j) ** (m**j)
    t = exact_div(factorial(n), hooks, f"t({h}, {m}, 0)")
    total = t
    for k in range(1, h + 1):
        size = _geo(m, h + 1 - k)
        t = exact_div(t * size, n - size, f"t({h}, {m}, {k})")
        total += m**k * t
    return total


def oeis_tree_root_sequence(count: int) -> list[int]:
    """Root-started counts of perfect binary trees: t(h, 2, 0) for
    h = 0 .. count-1, the sequence exported for comparison against OEIS
    A056972 (offset: term h here is candidate A056972(h + 1))."""
    if count < 0:
        raise ValueError("parameter out of range: count must be >= 0")
    return list(_t0_table(count - 1, 2)) if count else []
