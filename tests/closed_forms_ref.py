"""Closed forms in the shape they were first written: the references the
fast evaluations in src/ are checked against.

- rows: a two-cycle row sum as the double sum over k and l, the labeled
  vertices of the two partial rows, that Vandermonde's identity collapses.
- rows_vandermonde: that collapsed sum as it was first evaluated, one term
  of whole factorials and math.comb binomials per diagonal.
- rows_horner: the same sum by Horner's rule in a + b + 1 small-factor
  steps.
- block_rows: twocycles._block as the three row sums it splits into,
  which twocycles._block adds up in closed form as three binomial tails.
- count_comb: the comb total through exact rationals, one Fraction per
  summand, that combs.count_comb evaluates over one common denominator.
- A_term: the comb block count per start tooth and cut, whose weighted sum
  over the cuts combs.count_from_vertex collapses into one product.
- a_closed, b_closed, count_torus: the torus closed forms as quotients of
  whole factorials, which torus.py evaluates as math.perm falling factorials.
- tree_total: a tree's labelings from every start as the sum of its n
  rerooted hook-length counts, each divided out of its parent's, which
  oracle.tree_count sums bottom-up as one fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from walklabel.bigmath import binomial, exact_div, factorial, multinomial
from walklabel.combs import _check_mnk, t_spine

__all__ = ["A_term", "a_closed", "b_closed", "block_rows", "count_comb", "count_torus", "rows",
           "rows_horner", "rows_vandermonde", "tree_total"]


def _ends(p: int) -> int:
    """Orders of a row stretch of p unlabeled vertices with labeled
    vertices at both ends: 2^(p - 1), and 1 for p = 0."""
    return 1 << (p - 1) if p else 1


def rows(full: int, a: int, b: int, a_cap: int, b_cap: int) -> int:
    """Completions in which, when the right junction is labeled, one row of
    `full` vertices is labeled and k < a_cap of row a and l < b_cap of row
    b are, each row from its left end; the rest of rows a and b then fill
    in from both ends. a_cap is a or a + 1, b_cap is b or b + 1."""
    return sum(
        multinomial((full, k, l)) * multinomial((a - k, b - l)) * _ends(a - k) * _ends(b - l)
        for k in range(a_cap)
        for l in range(b_cap)
    )


def rows_vandermonde(full: int, a: int, b: int, a_cap: int, b_cap: int) -> int:
    """rows by one sum of a + b + 1 integer terms over whole factorials and
    one division by 4 full! a! b!. Vandermonde's identity sums the double
    sum along each diagonal k + l = j to a bracket of three binomials;
    sa = 1 when the row k = a is in the sum and -1 when the cap leaves it
    out, sb likewise for the column l = b."""
    n = a + b
    sa, sb = 2 * (a_cap - a) - 1, 2 * (b_cap - b) - 1
    total = sa * sb * factorial(full + n)
    for j in range(n + 1):
        diagonal = binomial(n, j) + sa * binomial(b, j - a) + sb * binomial(a, j - b)
        total += (factorial(full + j) * factorial(n - j) * diagonal) << (n - j)
    return exact_div(total, 4 * factorial(full) * factorial(a) * factorial(b), "two-cycle row sum")


def rows_horner(full: int, a: int, b: int, a_cap: int, b_cap: int) -> int:
    """rows_vandermonde summed by Horner's rule. With n = a + b, the row
    sum is sum_j (full + 1)...(full + j) X_j over 4 a! b!, where X_j is
    diag_j D_j, plus sa sb at j = n, diag_j the diagonal bracket and
    D_j = (n - j)! 2^(n - j). H_j = X_j + (full + j + 1) H_(j+1), from
    j = n down, multiplies by one small factor per step, and diag_j's
    three binomials and D_j step by their ratios."""
    n = a + b
    sa, sb = 2 * (a_cap - a) - 1, 2 * (b_cap - b) - 1
    # at j = n the three binomials and D_n are 1, so X_n = (1 + sa)(1 + sb);
    # stepping down to j - 1, the three binomial ratios share the divisor
    # n - j + 1
    horner = (1 + sa) * (1 + sb)
    c_n = c_b = c_a = d = 1
    for j in range(n, 0, -1):
        step = n - j + 1
        c_n, c_b, c_a = c_n * j // step, c_b * (j - a) // step, c_a * (j - b) // step
        d *= 2 * step
        horner = (c_n + sa * c_b + sb * c_a) * d + (full + j) * horner
    return exact_div(horner, 4 * factorial(a) * factorial(b), "two-cycle row sum")


def block_rows(x: int, r: int, z: int, rows=rows) -> int:
    """twocycles._block split by the rows fully labeled when the right
    junction is: the middle row; else the bottom row; else only the top
    row. `rows` is any of the three row-sum forms above."""
    return rows(r, x, z, x + 1, z + 1) + rows(z, x, r, x + 1, r) + rows(x, z, r, z, r)


def count_comb(m: int, n: int, k: int) -> int:
    """combs.count_comb by the summed closed form in exact rationals."""
    prefactor = (
        Fraction(1, factorial(m - 1))
        * Fraction(2 * binomial(n - 1, k - 1), factorial(n)) ** (m - 1)
    )
    bracket = (
        Fraction(1, factorial(n - k))
        * sum(
            Fraction(2 ** (y - 2) * factorial(m * n - y), factorial(k - y))
            for y in range(2, k + 1)
        )
        + Fraction(1, factorial(k - 1))
        * sum(
            Fraction(2 ** (y - 2) * factorial(m * n - y), factorial(n - k + 1 - y))
            for y in range(2, n - k + 2)
        )
        + Fraction(factorial(m * n - 1), factorial(n - k) * factorial(k - 1))
    )
    value = prefactor * bracket
    return exact_div(value.numerator, value.denominator, f"count_comb({m}, {n}, {k})")


def A_term(m: int, n: int, j: int, kp: int, y: int) -> int:
    """Block count for a comb start on tooth j with effective spine
    position kp: the y-th cut of tooth j against the teeth on either side,
    times the spine counts of those teeth."""
    _check_mnk(m, n, kp)
    if not 1 <= j <= m:
        raise ValueError(f"parameter out of range: j = {j} must be in [1, {m}]")
    if not 1 <= y <= n:
        raise ValueError(f"parameter out of range: y = {y} must be in [1, {n}]")
    cut = multinomial([(j - 1) * n, n - y, (m - j) * n]) * binomial(n - y, n - kp)
    return cut * t_spine(j - 1, n, kp) * t_spine(m - j, n, kp)


def a_closed(n: int, k: int) -> int:
    """torus.a_closed for 1 <= k <= n by whole-factorial quotients."""
    if n == 1:
        return 1
    if k == n:
        return factorial(n)
    if k == 1:
        return exact_div((n + 2) * factorial(2 * n - 2), 2 * factorial(n - 2), f"a_closed({n}, 1)")
    return exact_div(binomial(n - k + 2, 2) * factorial(2 * n - k), 2 * factorial(n - k + 1),
                     f"a_closed({n}, {k})")


def b_closed(n: int, s: int, t: int) -> int:
    """torus.b_closed for 0 <= s, t <= n - 1 by whole-factorial quotients."""
    if s + t >= n or n == 1:
        return 0
    if s == 0 or t == 0:
        w = max(s, t)
        if w == 0:
            return factorial(2 * n - 2) // factorial(n - 2)
        if w == n - 1:
            return factorial(n - 1)
        return exact_div(factorial(2 * n - 2 - w) * (n - w), 2 * factorial(n - 1 - w),
                         f"b_closed({n}, {s}, {t})")
    if s + t == n - 1:
        return factorial(n - 1)
    u = n - s - t
    return exact_div(factorial(2 * n - 2 - s - t) * (u * (u + 1) + 2), 4 * factorial(u),
                     f"b_closed({n}, {s}, {t})")


def count_torus(n: int) -> int:
    """torus.count_torus for n >= 1 as n (n + 2) (2n - 2)! / (n - 2)!."""
    if n == 1:
        return 2
    return n * (n + 2) * factorial(2 * n - 2) // factorial(n - 2)


def tree_total(masks, n: int) -> int:
    """oracle.tree_count(masks, n) for a tree given by adjacency masks: the
    count from vertex 0, n! over the product of the subtree sizes, then
    the count from each other vertex c from its parent p's, count(p)
    size(c) / (n - size(c)), summed over every vertex."""
    parent, order = [-1] * n, [0]
    for v in order:
        for c in range(n):
            if masks[v] >> c & 1 and c != parent[v]:
                parent[c] = v
                order.append(c)
    size = [1] * n
    for c in reversed(order[1:]):
        size[parent[c]] += size[c]
    counts = [exact_div(factorial(n), prod(size), "tree hook-length count")] + [0] * (n - 1)
    for c in order[1:]:
        counts[c] = exact_div(counts[parent[c]] * size[c], n - size[c], "rerooted tree count")
    return sum(counts)
