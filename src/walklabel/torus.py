"""Labeling counts for the prism of two n-cycles joined by a matching.

State quantities, both for the simple graph with rows of length n >= 2:

  a(n, k)     completions when one row already carries k labeled vertices
              in a contiguous arc and the other row carries none.
  b(n, s, t)  completions when the labeled set spans both rows: an arc of
              s + 1 vertices in one row and t + 1 in the other, overlapping
              in exactly one matched column (s, t >= 0, valid while
              s + t <= n - 1; the count is 0 once s + t >= n).

Each comes as a recurrence (a_rec, b_rec, mutually defined, memoized) and a
closed form (a_closed, b_closed). The closed forms are factorial quotients.
Those exact by structure, (2n-k)!/(n-k+1)! and the like, are falling
factorials computed directly as math.perm, with no big division; only the
small divisors 2 and 4 that remain, whose integrality rests on the formula,
divide through bigmath.exact_div, which raises on a remainder. The total is
count_torus(n) = 2n a(n, 1) for n >= 2, computed from its closed form as
C(2n-2, n) n!, so that no n runs into the recursion of a_rec; n = 1
degenerates to a single edge with exactly 2 labelings.

torus_state names the labeled vertices of the configuration each state
quantity describes by their (row, column) coordinates in graphs.torus(n),
so the brute-force oracle can check a and b directly as completions of
that labeled set.
"""

from __future__ import annotations

import math
from functools import cache

from .bigmath import binomial, exact_div, factorial

__all__ = [
    "a_closed",
    "a_rec",
    "b_closed",
    "b_rec",
    "count_torus",
    "torus_state",
]


def _check_a(n: int, k: int) -> None:
    if n < 1:
        raise ValueError(f"parameter out of range: n = {n} must be >= 1")
    if not 1 <= k <= n:
        raise ValueError(f"parameter out of range: k = {k} must be in [1, {n}]")


def _check_b(n: int, s: int, t: int) -> None:
    if n < 1:
        raise ValueError(f"parameter out of range: n = {n} must be >= 1")
    if s < 0 or t < 0:
        raise ValueError("parameter out of range: s and t must be >= 0")
    if s > n - 1 or t > n - 1:
        raise ValueError(f"parameter out of range: arcs of {s + 1} and {t + 1} vertices do not fit in a row of {n}")


@cache
def a_rec(n: int, k: int) -> int:
    _check_a(n, k)
    if n == 1:
        return 1  # a(1, 1): the other endpoint of the single edge
    if n == 2:
        return 4 if k == 1 else 2
    if k == n:
        return factorial(n)
    if k == 1:
        return 2 * a_rec(n, 2) + b_rec(n, 0, 0)
    if k <= n - 2:
        return 2 * a_rec(n, k + 1) + (k - 2) * a_rec(n - 1, k - 1) + 2 * b_rec(n, k - 1, 0)
    # k == n - 1
    return a_rec(n, n) + (n - 3) * a_rec(n - 1, n - 2) + 2 * b_rec(n, n - 2, 0)


@cache
def b_rec(n: int, s: int, t: int) -> int:
    _check_b(n, s, t)
    if s + t >= n:
        return 0
    if n == 1:
        return 0  # boundary convention; the n >= 2 recurrences never consume it
    if n == 2:
        return 2 if (s, t) == (0, 0) else 1  # (0,1) and (1,0); (1,1) fell in the zero branch
    # cases in fixed order, first match wins
    if s == 0 and t == 0:
        return 4 * b_rec(n, 1, 0)
    if s + t == n - 1:
        return factorial(n - 1)
    if t == 0:
        return b_rec(n, 0, s)  # mirror symmetry of the two rows
    # t >= 1 and s + t <= n - 2; with s == 0 the s-sum is empty, and
    # a(n - 1, t + 1) joins the head while t <= n - 3
    head = b_rec(n, s + 1, t) + b_rec(n, s, t + 1)
    if s == 0 and t <= n - 3:
        head += a_rec(n - 1, t + 1)
    tail = sum(
        binomial(2 * n - (s + t + 3), q - 1) * factorial(q - 1) * b_rec(n - q, s - q, t)
        for q in range(1, s + 1)
    ) + sum(
        binomial(2 * n - (s + t + 3), q - 1) * factorial(q - 1) * b_rec(n - q, s, t - q)
        for q in range(1, t + 1)
    )
    return head + tail


def a_closed(n: int, k: int) -> int:
    _check_a(n, k)
    if n == 1:
        return 1
    if k == n:
        return factorial(n)
    if k == 1:
        return exact_div((n + 2) * math.perm(2 * n - 2, n), 2, f"a_closed({n}, 1)")
    return exact_div(binomial(n - k + 2, 2) * math.perm(2 * n - k, n - 1), 2, f"a_closed({n}, {k})")


def b_closed(n: int, s: int, t: int) -> int:
    _check_b(n, s, t)
    if s + t >= n:
        return 0
    if n == 1:
        return 0
    if s == 0 or t == 0:
        w = max(s, t)
        if w == 0:
            return math.perm(2 * n - 2, n)
        if w == n - 1:
            return factorial(n - 1)
        return exact_div(math.perm(2 * n - 2 - w, n - 1) * (n - w), 2, f"b_closed({n}, {s}, {t})")
    if s + t == n - 1:
        return factorial(n - 1)
    u = n - s - t
    return exact_div(math.perm(2 * n - 2 - s - t, n - 2) * (u * (u + 1) + 2), 4, f"b_closed({n}, {s}, {t})")


def count_torus(n: int) -> int:
    """Total labelings: every vertex is an equivalent start, and a walk that
    has labeled only its start sits in state a(n, 1), so the total is
    2n a(n, 1) = n (n + 2) (2n - 2)! / (n - 2)! for n >= 2, computed as
    n (n + 2) C(2n - 2, n) n!. The closed form is what is computed;
    verify_torus checks it against 2n a_rec(n, 1)."""
    if n < 1:
        raise ValueError(f"parameter out of range: n = {n} must be >= 1")
    if n == 1:
        return 2
    return n * (n + 2) * binomial(2 * n - 2, n) * factorial(n)


def torus_state(n: int, shape) -> list[tuple[int, int]]:
    """The (row, column) coordinates of the labeled set of a state quantity.

    shape is ("a", k) for the single-row arc of k vertices, or ("b", s, t)
    for the two-row configuration with arcs of s + 1 and t + 1 vertices
    sharing the matched column 1. The labeled sets are arcs starting at
    column 1, which loses no generality: the graph's automorphisms act
    transitively on positions of an arc.
    """
    kind = shape[0]
    if kind == "a":
        _, k = shape
        _check_a(n, k)
        return [(1, c) for c in range(1, k + 1)]
    if kind == "b":
        _, s, t = shape
        if n < 2:
            raise ValueError("parameter out of range: the two-row state needs n >= 2")
        _check_b(n, s, t)
        if s + t > n - 1:
            raise ValueError(f"parameter out of range: arcs of {s + 1} and {t + 1} vertices cannot overlap in one column of a row of {n}")
        return [(1, c) for c in range(1, s + 2)] + [(2, c) for c in [1, *range(n, n - t, -1)]]
    raise ValueError(f"unknown state shape: {shape!r}")
