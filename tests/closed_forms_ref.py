"""Closed forms in the shape they were first written: the references the
fast evaluations in src/ are checked against.

- rows: the two-cycle row sum as the double sum over k and l that
  twocycles._rows collapses by Vandermonde's identity.
- count_comb: the comb total through exact rationals, one Fraction per
  summand, that combs.count_comb evaluates over one common denominator.
"""

from __future__ import annotations

from fractions import Fraction

from walklabel.bigmath import binomial, exact_div, factorial, multinomial

__all__ = ["count_comb", "rows"]


def _ends(p: int) -> int:
    """Orders of a row stretch of p unlabeled vertices with labeled
    vertices at both ends: 2^(p - 1), and 1 for p = 0."""
    return 1 << (p - 1) if p else 1


def rows(full: int, a: int, b: int, a_cap: int, b_cap: int) -> int:
    """twocycles._rows by its double sum over k < a_cap and l < b_cap."""
    return sum(
        multinomial((full, k, l)) * multinomial((a - k, b - l)) * _ends(a - k) * _ends(b - l)
        for k in range(a_cap)
        for l in range(b_cap)
    )


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
