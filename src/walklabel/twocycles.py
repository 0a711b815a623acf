"""Labeling counts for the two-cycle graphs S(a1, a2, a3): three internally
disjoint paths of a1, a2, a3 vertices whose row-1 and row-3 endpoints attach
to the two endpoints (junctions) of the middle row.

The per-start quantities follow the junction-order decomposition:

  term_A(a1, a2, a3)     labelings started at the left junction (2, 1).
  term_B(a1, a2, a3, s)  labelings started at middle vertex (2, s),
                         2 <= s <= a2 - 1, in which the left junction is
                         labeled before the right one.
  term_C(a1, a2, a3, s)  labelings started at top vertex (1, s),
                         1 <= s <= a1, same junction order constraint.

Reflections reduce everything else to these three: starting at the right
junction mirrors A, the red-first complement of B(s) is B(a2 + 1 - s), of
C(s) is C(a1 + 1 - s), and bottom-row starts are C with a1 and a3 swapped.
Summing,

  count = 2 A + 2 sum_s B(s) + 2 sum_s C(s) + 2 sum_s C_swapped(s).

term_B is stated for every interior start 2 <= s <= a2 - 1, including
s = 2; the brute-force oracle confirms that boundary (see the tests), which
the total above needs.

Once the left junction is labeled, every term finishes alike: block(x, r, z)
counts the completions with x top-row, r middle-interior and z bottom-row
vertices unlabeled. term_A is block(a1, a2 - 2, a3); term_B and term_C sum
blocks over a cut q, the last position the walk labels in its own row
before it first descends to the left junction:

  term_B(s) = sum_{q=s}^{a2-1} C(q - 2, s - 2) block(a1, a2 - 1 - q, a3),
  term_C(s) = sum_{q=s}^{a1}   C(q - 1, s - 1) block(a1 - q, a2 - 2, a3).

The prefixes interleave the two stretches of that row labeled before the
descent: s - 2 vertices left of a middle start (s - 1 for a top start)
against q - s to the right, giving multinomial(q - s, s - 2) =
C(q - 2, s - 2) and multinomial(q - s, s - 1) = C(q - 1, s - 1). The
constrained brute-force oracle pins these down; the superficially plausible
alternatives multinomial(q - 2, s - 2) and multinomial(q - 1, s - 1) fail
it on every non-degenerate start (640 checks, see the tests).

A block depends on q but not on s, so count_two_cycles takes each block
once, times its prefixes summed over s: 2^(q - 2) for term_B and 2^(q - 1)
for term_C. That is O(a) blocks. Each block is computed once per process
(functools.cache on three small ints, as torus.a_rec and trees.t_rec are):
neighbouring terms, count_two_cycles and its mirror image share them, and
when a1 = a3 the term_C and swapped term_C blocks coincide.

Each block is three row sums, and a row sum is a double sum over k and l,
the labeled vertices of the two partial rows. Its summand is
W(j) C(a, k) C(b, l) e(a - k) e(b - l) with j = k + l,
W(j) = (full + j)! (a + b - j)! / (full! a! b!) and e(p) the orders of a
stretch of p vertices filled from both ends, 2 e(p) = 2^p + [p = 0].
Vandermonde's identity sums the part after W(j) along each diagonal j to
d(j) / 4 (binomials are 0 outside their range):

  d(j) = (C(a + b, j) + sa C(b, j - a) + sb C(a, j - b)) 2^(a + b - j)
         + [j = a + b] sa sb,

where sa = 1 when the row k = a is in the sum and sa = -1 when the cap
leaves it out (sb likewise for the column l = b). With n = a + b, each of
the three diagonal binomials turns the sum over j into one partial sum

  S(f, n) = sum_{j=0}^{n} C(f + j, j) 2^(n - j),

the coefficient of t^n in 1 / ((1 - t)^(f + 1) (1 - 2t)), and the row sum
is a quarter of

  C(n, a) S(full, n) + sa C(full + a, a) S(full + a, b)
    + sb C(full + b, b) S(full + b, a) + sa sb C(n, a) C(full + n, n).

Every S a block (x, r, z) asks for has f + n = x + r + z, and the block
after it in a q-sum, one vertex smaller, asks for partial sums one step
below those in f or in n:

  S(f, n) = (S(f + 1, n) + C(f + n + 1, n)) / 2
          = (S(f, n + 1) - C(f + n + 1, n + 1)) / 2.

So _partial_sum keeps every S for the process, as _block keeps its
blocks, and steps from a kept neighbour by one binomial and one shift.
With none kept it sums the shorter side: S(f, n) / 2^(f + n + 1) is the
chance that f + 1 heads come before n + 1 tails in fair coin tosses, so
S(f, n) + S(n, f) = 2^(f + n + 1), and min(f, n) small steps suffice.
That power of two comes first, so a single part past sys.maxsize raises
OverflowError at once. A row sum is four binomials, at most three
partial-sum steps and one division by 4 through bigmath.exact_div, which
raises if the identity ever leaves a remainder, and count_two_cycles
costs O(a) of them. The double sum, its Vandermonde collapse over whole
factorials and its Horner evaluation are kept in the tests as references.

Multinomials go through bigmath.multinomial, which raises on a negative
part rather than clamping to zero, and a row sum raises on a negative row
or a cap outside its two legal values, so a malformed term cannot
silently vanish. Empty sums are 0 (for a_i = 2 several inner ranges are
empty by design).
"""

from __future__ import annotations

import math
from functools import cache

from .bigmath import exact_div, multinomial

__all__ = ["count_two_cycles", "term_A", "term_B", "term_C"]


def _check(a1: int, a2: int, a3: int) -> None:
    if min(a1, a2, a3) < 2:
        raise ValueError("parameter out of range: path lengths must all be >= 2")


# S(f, n) by (f, n), every partial sum computed in this process
_SUMS: dict[tuple[int, int], int] = {}


def _partial_sum(f: int, n: int) -> int:
    """S(f, n) = sum_{j=0}^{n} C(f + j, j) 2^(n - j), stepped from a kept
    S(f + 1, n) or S(f, n + 1) when there is one."""
    s = _SUMS.get((f, n))
    if s is not None:
        return s
    if (f + 1, n) in _SUMS:
        s = (_SUMS[f + 1, n] + math.comb(f + n + 1, n)) >> 1
    elif (f, n + 1) in _SUMS:
        s = (_SUMS[f, n + 1] - math.comb(f + n + 1, f)) >> 1
    elif f < n:  # S(f, n) + S(n, f) = 2^(f + n + 1)
        s = (2 << (f + n)) - _partial_sum(n, f)
    else:
        s = c = 1
        for j in range(1, n + 1):  # S(f, j) from S(f, j - 1)
            c = c * (f + j) // j
            s = 2 * s + c
    _SUMS[f, n] = s
    return s


def _rows(full: int, a: int, b: int, a_cap: int, b_cap: int) -> int:
    """Completions in which, when the right junction is labeled, one row of
    `full` vertices is labeled and k < a_cap of row a and l < b_cap of row
    b are, each row from its left end; the rest of rows a and b then fill
    in from both ends. a_cap is a or a + 1, b_cap is b or b + 1."""
    if min(full, a, b) < 0 or a_cap - a not in (0, 1) or b_cap - b not in (0, 1):
        raise ValueError(f"malformed two-cycle term: rows({full}, {a}, {b}) with caps ({a_cap}, {b_cap})")
    n = a + b
    sa, sb = 2 * (a_cap - a) - 1, 2 * (b_cap - b) - 1
    total = math.comb(n, a) * (_partial_sum(full, n) + sa * sb * math.comb(full + n, n))
    total += sa * math.comb(full + a, a) * _partial_sum(full + a, b)
    total += sb * math.comb(full + b, b) * _partial_sum(full + b, a)
    return exact_div(total, 4, "two-cycle row sum")


@cache
def _block(x: int, r: int, z: int) -> int:
    """Ways to finish a labeling once the left junction is labeled and x
    top-row, r middle-interior and z bottom-row vertices are not, split by
    the rows that are fully labeled when the right junction is: the middle
    row; else the bottom row; else only the top row."""
    return _rows(r, x, z, x + 1, z + 1) + _rows(z, x, r, x + 1, r) + _rows(x, z, r, z, r)


def term_A(a1: int, a2: int, a3: int) -> int:
    """Labelings of S(a1, a2, a3) started at the left junction."""
    _check(a1, a2, a3)
    return _block(a1, a2 - 2, a3)


def term_B(a1: int, a2: int, a3: int, s: int) -> int:
    """Labelings started at middle vertex (2, s) with the left junction
    labeled before the right one."""
    _check(a1, a2, a3)
    if not 2 <= s <= a2 - 1:
        raise ValueError(f"parameter out of range: s = {s} must be in [2, {a2 - 1}]")
    return sum(multinomial((q - s, s - 2)) * _block(a1, a2 - 1 - q, a3) for q in range(s, a2))


def term_C(a1: int, a2: int, a3: int, s: int) -> int:
    """Labelings started at top vertex (1, s) with the left junction
    labeled before the right one. Bottom-row starts are the same function
    with a1 and a3 swapped."""
    _check(a1, a2, a3)
    if not 1 <= s <= a1:
        raise ValueError(f"parameter out of range: s = {s} must be in [1, {a1}]")
    return sum(multinomial((q - s, s - 1)) * _block(a1 - q, a2 - 2, a3) for q in range(s, a1 + 1))


def count_two_cycles(a1: int, a2: int, a3: int) -> int:
    """Total labelings of S(a1, a2, a3): 2 A + 2 sum_s B(s) + 2 sum_s C(s)
    + 2 sum_s C_swapped(s), with each term's prefixes summed over s."""
    _check(a1, a2, a3)
    total = _block(a1, a2 - 2, a3)
    total += sum(2 ** (q - 2) * _block(a1, a2 - 1 - q, a3) for q in range(2, a2))
    total += sum(2 ** (q - 1) * _block(a1 - q, a2 - 2, a3) for q in range(1, a1 + 1))
    total += sum(2 ** (q - 1) * _block(a3 - q, a2 - 2, a1) for q in range(1, a3 + 1))
    return 2 * total
