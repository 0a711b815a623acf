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

Each block is one identity in three tails of binomial row N = x + r + z,
U(n, f) = sum_{i >= f} C(n, i), so that U(n, 0) = 2^n and U(n, f) = 0 for
f > n:

  2 block(x, r, z) = C(x + z, x) U(N, r) + C(x + r, x) U(N, z + 1)
                       + C(z + r, z) U(N, x).

It comes from splitting the completions by the rows that are fully
labeled when the right junction is: the middle row; else the bottom row;
else only the top row. Each part is a double sum over the labeled
vertices of the two partial rows, and Vandermonde's identity collapses it
to binomials times partial sums S(f, n) = sum_{j=0}^{n} C(f + j, j)
2^(n - j). Added up, six of the nine partial sums cancel in pairs. The
other three have f + n = N, and S(f, n) = U(N + 1, f + 1), since f + 1
heads come before n + 1 tails in fair coin tosses exactly when N + 1
tosses show at least f + 1 heads; with the binomial C(N, f) each part
still carries, U(N + 1, f + 1) +- C(N, f) is twice a tail of row N. The
double sums, their collapse and its Horner evaluation are kept in the
tests as references, and the tests check the identity against them.

The block after it in a q-sum, one vertex smaller, asks for tails one row
up, at the same f or at f + 1:

  U(n, f) = (U(n + 1, f) - C(n, f - 1)) / 2 = (U(n + 1, f + 1) + C(n, f)) / 2

with C(n, -1) = 0. So _tail keeps every tail for the process, as _block
keeps its blocks, and steps from a kept neighbour by one binomial and one
shift. With none kept it sums the shorter side of the row, using
U(n, f) + U(n, n + 1 - f) = 2^n: 2^n less the binomials below f or below
n + 1 - f, whichever are fewer. The power of two comes first, so a row
past sys.maxsize raises OverflowError at once. A block is three
binomials, at most three tail steps and one division by 2 through
bigmath.exact_div, which raises if the identity ever leaves a remainder,
and count_two_cycles costs O(a) blocks.

The prefixes are math.comb binomials, which raise on a negative argument
rather than clamping to zero, and a block raises on a negative row, so a
malformed term cannot silently vanish. Empty sums are 0 (for a_i = 2
several inner ranges are empty by design).
"""

from __future__ import annotations

import math
from functools import cache

from .bigmath import exact_div

__all__ = ["count_two_cycles", "term_A", "term_B", "term_C"]


def _check(a1: int, a2: int, a3: int) -> None:
    if min(a1, a2, a3) < 2:
        raise ValueError("parameter out of range: path lengths must all be >= 2")


# U(n, f) by (n, f), every binomial tail computed in this process
_TAILS: dict[tuple[int, int], int] = {}


def _tail(n: int, f: int) -> int:
    """U(n, f) = sum_{i >= f} C(n, i) for 0 <= f <= n + 1, stepped from a
    kept U(n + 1, f) or U(n + 1, f + 1) when there is one."""
    s = _TAILS.get((n, f))
    if s is not None:
        return s
    if (n + 1, f) in _TAILS:
        s = (_TAILS[n + 1, f] - (math.comb(n, f - 1) if f else 0)) >> 1
    elif (n + 1, f + 1) in _TAILS:
        s = (_TAILS[n + 1, f + 1] + math.comb(n, f)) >> 1
    elif 2 * f > n + 1:  # U(n, f) + U(n, n + 1 - f) = 2^n
        s = (1 << n) - _tail(n, n + 1 - f)
    else:
        s, c = 1 << n, 1
        for i in range(f):  # c = C(n, i)
            s -= c
            c = c * (n - i) // (i + 1)
    _TAILS[n, f] = s
    return s


@cache
def _block(x: int, r: int, z: int) -> int:
    """Ways to finish a labeling once the left junction is labeled and x
    top-row, r middle-interior and z bottom-row vertices are not."""
    if min(x, r, z) < 0:
        raise ValueError(f"malformed two-cycle term: block({x}, {r}, {z})")
    n = x + r + z
    total = (math.comb(x + z, x) * _tail(n, r) + math.comb(x + r, x) * _tail(n, z + 1)
             + math.comb(z + r, z) * _tail(n, x))
    return exact_div(total, 2, "two-cycle block")


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
    return sum(math.comb(q - 2, s - 2) * _block(a1, a2 - 1 - q, a3) for q in range(s, a2))


def term_C(a1: int, a2: int, a3: int, s: int) -> int:
    """Labelings started at top vertex (1, s) with the left junction
    labeled before the right one. Bottom-row starts are the same function
    with a1 and a3 swapped."""
    _check(a1, a2, a3)
    if not 1 <= s <= a1:
        raise ValueError(f"parameter out of range: s = {s} must be in [1, {a1}]")
    return sum(math.comb(q - 1, s - 1) * _block(a1 - q, a2 - 2, a3) for q in range(s, a1 + 1))


def count_two_cycles(a1: int, a2: int, a3: int) -> int:
    """Total labelings of S(a1, a2, a3): 2 A + 2 sum_s B(s) + 2 sum_s C(s)
    + 2 sum_s C_swapped(s), with each term's prefixes summed over s."""
    _check(a1, a2, a3)
    total = _block(a1, a2 - 2, a3)
    total += sum(2 ** (q - 2) * _block(a1, a2 - 1 - q, a3) for q in range(2, a2))
    total += sum(2 ** (q - 1) * _block(a1 - q, a2 - 2, a3) for q in range(1, a1 + 1))
    total += sum(2 ** (q - 1) * _block(a3 - q, a2 - 2, a1) for q in range(1, a3 + 1))
    return 2 * total
