"""Labeling counts for combs: m copies of the path P_n, with consecutive
copies joined by an edge at position k.

t_spine(m, n, k) counts the labelings of the comb C(m, n, k) that start at
the spine vertex of the first tooth, position (1, k). It is computed once
per (m, n, k) and process (functools.cache, as trees.t_rec is), because
every per-start count and every term of lemma_pac_check takes two spine
factors and verify asks for the same few many times. count_from_vertex
gives the labelings from any start (j, s) as one product: two spine
factors, a multinomial and C(mn - 1, s - 1), the weighted sum of per-cut
blocks over the cuts collapsed by Vandermonde's identity (the tests keep
that block sum as a reference). count_comb is the fully summed closed
form and the fast path: a multinomial and a falling factorial first, then
a Horner sum of O(n) small terms and one bigmath.exact_div by
n^(m-1) perm(mn-1, Y-1) with Y = max(k, n-k+1), a divisor of at most
(m + Y) log2(mn) bits rather than a factorial denominator; the division
raises instead of flooring if the formula leaves a remainder.
count_from_vertex, t_spine and lemma_pac_check are the paths verify
checks it against; every quantity here stays an integer, and
lemma_pac_check states its identity of rationals multiplied through by
their common denominator.

Two compact product formulas for single columns are kept for reference:
corollary_double_comb agrees with count_comb, while corollary_comb does not
(already at m = 2 it yields 4 where the closed form and the brute-force
oracle both yield 8). Both return their value together with the comparison
so callers see the disagreement instead of inheriting it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache
from itertools import chain, repeat

from .bigmath import binomial, double_factorial, exact_div, factorial, multinomial

__all__ = [
    "CorollaryComparison",
    "corollary_comb",
    "corollary_double_comb",
    "count_comb",
    "count_from_vertex",
    "lemma_pac_check",
    "oeis_comb_row_sequence",
    "t_spine",
]


def _check_mnk(m: int, n: int, k: int, min_m: int = 1) -> None:
    if m < min_m:
        raise ValueError(f"parameter out of range: m = {m} must be >= {min_m}")
    if n < 2:
        raise ValueError(f"parameter out of range: n = {n} must be >= 2")
    if not 1 <= k <= n:
        raise ValueError(f"parameter out of range: k = {k} must be in [1, {n}]")


@cache
def t_spine(m: int, n: int, k: int) -> int:
    """Labelings of C(m, n, k) starting at spine vertex (1, k); the empty
    comb (m = 0) contributes the neutral factor 1."""
    _check_mnk(m, n, k, min_m=0)
    value = binomial(n - 1, k - 1) ** m
    for tooth in range(1, m):
        value *= binomial((tooth + 1) * n - 1, n - 1)
    return value


def count_from_vertex(m: int, n: int, k: int, j: int, s: int) -> int:
    """Labelings of C(m, n, k) whose first label lands on vertex (j, s), as
    one product: two spine factors, a multinomial and C(mn-1, s-1), on the
    mirrored tooth if s > k. The tests' reference sums the block count
    A_term(m, n, j, k, y) over the cuts y: y = 1 alone at s = k, else
    C(y-2, k-s-1) times it for y > k-s."""
    _check_mnk(m, n, k)
    if not 1 <= j <= m:
        raise ValueError(f"parameter out of range: j = {j} must be in [1, {m}]")
    if not 1 <= s <= n:
        raise ValueError(f"parameter out of range: s = {s} must be in [1, {n}]")
    if s > k:  # the mirrored tooth: spine position n - k + 1, start n - s + 1
        k, s = n - k + 1, n - s + 1
    # the cut sum, over y of C(y-2, k-s-1) C(mn-y, k-y), is C(mn-1, s-1) by
    # Vandermonde's identity sum_i C(i, a) C(M-i, b) = C(M+1, a+b+1)
    return (t_spine(j - 1, n, k) * t_spine(m - j, n, k)
            * multinomial([(j - 1) * n, (m - j) * n, n - k]) * math.comb(m * n - 1, s - 1))


def count_comb(m: int, n: int, k: int) -> int:
    """Total labelings of C(m, n, k), by the summed closed form

      (1/(m-1)!) (2 C(n-1, k-1) / n!)^(m-1) [ (mn-1)! / ((n-k)! (k-1)!)
        + sum_{y=2}^{k} 2^(y-2) (mn-y)! / ((n-k)! (k-y)!)
        + sum_{y=2}^{n-k+1} 2^(y-2) (mn-y)! / ((k-1)! (n-k+1-y)!) ].

    Over the common denominator (n-k)! (k-1)! the bracket is
    sum_{y=1}^{Y} c_y (mn-y)! with Y = max(k, n-k+1), c_1 = 1 and small
    integer weights c_y, which Horner's rule sums as (mn-Y)! times a small
    integer H; the prefactor cancels to
    2^(m-1) / ((m-1)! n^(m-1) ((k-1)! (n-k)!)^m). The parts m-1, m times
    k-1 and m times n-k sum to mn-1, so (mn-1)! over (m-1)! ((k-1)! (n-k)!)^m
    is a multinomial, and (mn-Y)! = (mn-1)! / perm(mn-1, Y-1): the total is
    multinomial 2^(m-1) H over the short n^(m-1) perm(mn-1, Y-1)."""
    _check_mnk(m, n, k)
    mn = m * n
    last = max(k, n - k + 1)
    # the multinomial and the perm come before the loop, which runs
    # max(k, n-k+1) times, so an n too large for math.comb raises
    # OverflowError at once; the parts are repeated lazily, so a huge m
    # raises in repeat() instead of allocating a list of 2m parts
    parts = chain(repeat(k - 1, m), repeat(n - k, m), [m - 1])
    scale = multinomial(parts) << (m - 1)
    denominator = n ** (m - 1) * math.perm(mn - 1, last - 1)
    # falling factorials (k-1)!/(k-y)! and (n-k)!/(n-k+1-y)!, which turn 0
    # once y passes the end of their sum
    left = right = 1
    horner = 1
    for y in range(2, last + 1):
        left *= k - y + 1
        right *= n - k - y + 2
        horner = horner * (mn - y + 1) + ((left + right) << (y - 2))
    return exact_div(scale * horner, denominator, f"count_comb({m}, {n}, {k})")


def lemma_pac_check(m: int, n: int, k: int) -> bool:
    """Exact identity between the spine-count convolution and its product
    form: sum over j of t_spine(j)/((jn)!) * t_spine(m-j)/(((m-j)n)!)
    against (1/m!) (2 C(n-1, k-1) / n!)^m, multiplied through by
    (mn)! m! (n!)^m into the integer identity
    m! (n!)^m sum_j C(mn, jn) t_spine(j) t_spine(m-j) = (mn)! (2 C(n-1, k-1))^m."""
    _check_mnk(m, n, k, min_m=0)
    lhs = sum(
        binomial(m * n, j * n) * t_spine(j, n, k) * t_spine(m - j, n, k)
        for j in range(m + 1)
    )
    rhs = factorial(m * n) * (2 * binomial(n - 1, k - 1)) ** m
    return factorial(m) * factorial(n) ** m * lhs == rhs


CorollaryComparison = namedtuple("CorollaryComparison", "value closed_form agrees")


def corollary_comb(m: int) -> CorollaryComparison:
    """Compact product claimed for C(m, 2, 1): 2^(m-1) m (m-1)!!, compared
    against count_comb(m, 2, 1). The two disagree for every m >= 2; the
    closed form is the one the oracle confirms, so treat this value as a
    historical reference only."""
    closed = count_comb(m, 2, 1)  # rejects m < 1
    value = 2 ** (m - 1) * m * double_factorial(m - 1)
    return CorollaryComparison(value, closed, value == closed)


def corollary_double_comb(m: int) -> CorollaryComparison:
    """Compact form for the double comb C(m, 3, 2):
    2^(m-1) (3m+1)! / (3^m (3m-1) m!), compared against count_comb."""
    closed = count_comb(m, 3, 2)  # rejects m < 1
    value = exact_div(2 ** (m - 1) * factorial(3 * m + 1), 3**m * (3 * m - 1) * factorial(m),
                      f"corollary_double_comb({m})")
    return CorollaryComparison(value, closed, value == closed)


def oeis_comb_row_sequence(count: int) -> list[int]:
    """count_comb(m, 2, 1) for m = 1 .. count, the sequence exported for
    manual comparison against OEIS A151817."""
    if count < 0:
        raise ValueError("parameter out of range: count must be >= 0")
    return [count_comb(m, 2, 1) for m in range(1, count + 1)]
