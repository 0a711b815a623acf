"""The series expansion in the shape it was first written: the reference
series.expand_rational is checked against.

- expand_rational: the truncated series as a sparse dict, each division
  one sweep over the exponent triples in lexicographic order, with one
  dict lookup per term and exponent and no bound on a coefficient;
  series.expand_rational divides in the same order on rows packed into
  fixed-width slots, one big-int operation per factor term and row.
"""

from __future__ import annotations

__all__ = ["expand_rational"]

_ZERO = (0, 0, 0)


def expand_rational(gf: tuple[dict, list[tuple[dict, int]]], degree: int) -> dict:
    """series.expand_rational by a sweep over a sparse dict.

    Each division by a factor 1 + sum over d of a_d x^d runs in place:
    visiting the exponents e in lexicographic order, r[e] becomes
    r[e] - sum over d of a_d r[e - d]. Every e - d comes before e in that
    order, so it already holds the quotient's coefficient. A coefficient
    that cancels to 0 is removed. The sweep starts at the numerator's
    least powers.
    """
    numerator, factors = gf
    for factor, _ in factors:
        if factor.get(_ZERO, 0) != 1:
            raise ValueError("denominator factor must have constant term 1")
    r = {e: c for e, c in numerator.items() if c and sum(e) <= degree}
    if not r:
        return r
    lo1, lo2, lo3 = (min(e[i] for e in r) for i in range(3))
    for factor, mult in factors:
        terms = [(d, a) for d, a in factor.items() if d != _ZERO]
        for _ in range(mult):
            for e1 in range(lo1, degree - lo2 - lo3 + 1):
                for e2 in range(lo2, degree - e1 - lo3 + 1):
                    for e3 in range(lo3, degree - e1 - e2 + 1):
                        acc = r.get((e1, e2, e3), 0)
                        for (d1, d2, d3), a in terms:
                            acc -= a * r.get((e1 - d1, e2 - d2, e3 - d3), 0)
                        if acc:
                            r[e1, e2, e3] = acc
                        else:
                            r.pop((e1, e2, e3), None)
    return r
