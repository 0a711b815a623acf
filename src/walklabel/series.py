"""Trivariate generating function machinery for the two-cycle counts.

F(x, y, z) = sum over a1, a2, a3 >= 2 of count_two_cycles(a1, a2, a3)
x^a1 y^a2 z^a3 is rational: 16 x^2 y^2 z^2 f(x, y, z) over
(1-2x)^3 (1-2y)^3 (1-2z)^3 (1-2x-2y)(1-2x-2z)(1-2y-2z)(1-x-y-z).

Polynomials and truncated series are sparse dicts mapping exponent triples
(e1, e2, e3) to nonzero int coefficients. A rational function is the pair
(numerator, [(factor, multiplicity), ...]), each factor with constant term
1 so that division is a well-defined series operation. expand_rational
works on packed rows instead (Kronecker substitution): one int for each
power of z and anti-diagonal x^i y^(s-i), each coefficient in a slot wide
enough for a univariate majorant of the series, so that the factor terms
of one row shift divide a whole row in one big-int operation. The rows are
decoded to a dict in export order, each freed once it is read.

The numerator data f_numerator() was entered by hand from a typeset source
whose display joins two blocks without an operator sign; recover_numerator
rebuilds f independently from the counting formulas (multiply the truncated
count series by the denominator, check everything above the numerator
degree vanishes, then strip the 16 x^2 y^2 z^2 shift) and
transcription_diff records how each hand reading compares. The recovery
fixes the ambiguous sign to '+'; with that reading the two agree exactly.
"""

from __future__ import annotations

from .twocycles import count_two_cycles

__all__ = [
    "expand_rational",
    "f_numerator",
    "poly_add",
    "poly_mul",
    "recover_numerator",
    "transcription_diff",
    "two_cycles_gf",
]

_ZERO = (0, 0, 0)


def _clean(p: dict) -> dict:
    return {e: c for e, c in p.items() if c}


def poly_add(*polys: dict) -> dict:
    out: dict = {}
    for p in polys:
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return _clean(out)


def poly_mul(a: dict, b: dict, max_degree: int | None = None) -> dict:
    out: dict = {}
    for (e1, e2, e3), ca in a.items():
        for (d1, d2, d3), cb in b.items():
            e = (e1 + d1, e2 + d2, e3 + d3)
            if max_degree is not None and e[0] + e[1] + e[2] > max_degree:
                continue
            out[e] = out.get(e, 0) + ca * cb
    return _clean(out)


def expand_rational(gf: tuple[dict, list[tuple[dict, int]]], degree: int) -> dict:
    """Truncated expansion of numerator / prod factor^multiplicity up to
    the given total degree, for gf = (numerator, [(factor, multiplicity)]).
    The dict holds the nonzero coefficients and iterates in export order:
    by total degree, then by the exponents (a1, a2, a3).

    The series starts at the numerator's least powers (lo1, lo2, lo3), as
    no quotient term has a lower one. Row (s, k), s + k <= top = degree -
    lo1 - lo2 - lo3, packs the coefficients c_i of x^(lo1+i) y^(lo2+s-i)
    z^(lo3+k), i = 0..s, as one int, sum of c_i 2^(iW). Dividing in place
    by 1 + sum over d of a_d x^d, row by row in lexicographic (s, k) order,
    row (s, k) loses the finished row (s - e, k - d3) times the merged
    multiplier sum of a_d 2^(d1 W) over the terms with d1 + d2 = e, one
    big-int step per (e, d3). Only the result must fit a slot: the
    coefficient of t^n in |N|(t) / prod (1 - sum |a_d| t^|d|)^mult bounds
    every |c| of degree n; W is one sign bit more than the largest one's
    length. Slots are read unsigned after adding 2^(W-1) to each, one
    diagonal s + k = d at a time, freed once read: slot i of rows (i, d - i)
    to (d, 0), for i = 0..d, gives the terms of degree d in export order.
    """
    numerator, factors = gf
    for factor, _ in factors:
        if factor.get(_ZERO, 0) != 1:
            raise ValueError("denominator factor must have constant term 1")
    terms = [(e, c) for e, c in numerator.items() if c and sum(e) <= degree]
    if not terms:
        return {}
    lo1, lo2, lo3 = (min(e[i] for e, _ in terms) for i in range(3))
    top = degree - lo1 - lo2 - lo3
    bound = [0] * (top + 1)
    for e, c in terms:
        bound[sum(e) - lo1 - lo2 - lo3] += abs(c)
    for factor, mult in factors:
        majorant = [(sum(d), abs(a)) for d, a in factor.items() if d != _ZERO]
        for _ in range(mult):
            for n in range(top + 1):
                bound[n] += sum(a * bound[n - d] for d, a in majorant if d <= n)
    width = max(bound).bit_length() + 1
    # per division, a factor mult times: ((d1 + d2, d3), sum of a 2^(d1 W))
    divisions = []
    for factor, mult in factors:
        steps = {}
        for (d1, d2, d3), a in factor.items():
            if d1 or d2 or d3:
                steps[d1 + d2, d3] = steps.get((d1 + d2, d3), 0) + (a << d1 * width)
        divisions += [list(steps.items())] * mult
    r = [[0] * (top - s + 1) for s in range(top + 1)]
    for (e1, e2, e3), c in terms:
        r[e1 - lo1 + e2 - lo2][e3 - lo3] += c << (e1 - lo1) * width
    for steps in divisions:
        for s, plane in enumerate(r):
            for k, row in enumerate(plane):
                for (ds, d3), a in steps:
                    if ds <= s and d3 <= k:
                        row -= a * r[s - ds][k - d3]
                plane[k] = row
    out = {}
    half, mask = 1 << width - 1, (1 << width) - 1
    bias = half * ((1 << (top + 1) * width) - 1) // mask  # half in each of top + 1 slots
    for d in range(top + 1):
        diagonal = [r[s].pop(0) + (bias >> (top - s) * width) for s in range(d + 1)]
        for i in range(d + 1):
            for s in range(i, d + 1):
                row = diagonal[s]
                if c := (row & mask) - half:
                    out[lo1 + i, lo2 + s - i, lo3 + d - s] = c
                diagonal[s] = row >> width
    return out


def _xz_sym(e1: int, e3: int) -> dict:
    """x^e1 z^e3 + x^e3 z^e1, one monomial (one key) when e1 == e3."""
    return {(e1, 0, e3): 1, (e3, 0, e1): 1}


def _ypoly(*pairs: tuple[int, int]) -> dict:
    """Polynomial in y from (degree, coefficient) pairs."""
    return {(0, d, 0): c for d, c in pairs}


# the hand-entered numerator, organized block by block as displayed; the
# block below marked "sign fixed by recovery" is the one whose leading
# operator the source display omits
_F_BLOCKS: tuple[tuple[int, dict, dict], ...] = (
    (1, _ypoly((0, 13), (4, 360), (1, -96), (2, 292), (3, -456), (5, -112)), {_ZERO: 1}),
    (8, _ypoly((3, 56), (2, -100), (1, 64), (0, -15)), _xz_sym(5, 0)),
    (-4, _ypoly((5, 480), (4, -2056), (3, 3336), (2, -2690), (1, 1103), (0, -185)), {(1, 0, 1): 1}),
    (4, _ypoly((5, 672), (4, -3544), (3, 6756), (2, -6238), (1, 2885), (0, -541)), _xz_sym(2, 1)),
    (-8, _ypoly((5, 160), (4, -1304), (3, 3204), (2, -3520), (1, 1864), (0, -393)), _xz_sym(3, 1)),
    (-8, _ypoly((5, 384), (4, -2592), (3, 5960), (2, -6436), (1, 3418), (0, -727)), {(2, 0, 2): 1}),
    (-8, _ypoly((4, 320), (3, -1320), (2, 1868), (1, -1168), (0, 281)), _xz_sym(4, 1)),
    (16, _ypoly((5, 64), (4, -752), (3, 2360), (2, -3140), (1, 1955), (0, -475)), _xz_sym(3, 2)),
    (-16, _ypoly((3, 80), (2, -176), (1, 138), (0, -39)), _xz_sym(5, 1)),
    (64, _ypoly((4, 32), (3, -190), (2, 345), (1, -262), (0, 74)), _xz_sym(4, 2)),
    (32, _ypoly((4, 128), (3, -696), (2, 1244), (1, -944), (0, 267)), {(3, 0, 3): 1}),
    (64, _ypoly((3, 16), (2, -50), (1, 50), (0, -17)), _xz_sym(5, 2)),
    (128, _ypoly((3, 32), (2, -99), (1, 98), (0, -33)), poly_mul({(3, 0, 3): 1}, _xz_sym(1, 0))),
    # sign fixed by recovery: displayed without a leading operator
    (128, _ypoly((2, 8), (1, -12), (0, 5)), poly_mul({(3, 0, 3): 1}, poly_mul(_xz_sym(1, 0), _xz_sym(1, 0)))),
    (1, _ypoly((5, 496), (4, -1824), (3, 2596), (2, -1852), (1, 675), (0, -101)), _xz_sym(1, 0)),
    (-4, _ypoly((5, 200), (4, -892), (3, 1470), (2, -1183), (1, 479), (0, -79)), _xz_sym(2, 0)),
    (4, _ypoly((5, 112), (4, -760), (3, 1584), (2, -1490), (1, 679), (0, -124)), _xz_sym(3, 0)),
    (4, _ypoly((4, 224), (3, -760), (2, 900), (1, -474), (0, 97)), _xz_sym(4, 0)),
)


def f_numerator() -> dict:
    """The degree-10 polynomial f in the closed form of the generating
    function, as a sparse dict."""
    return poly_add(*(
        poly_mul({_ZERO: c}, poly_mul(ypart, xzpart)) for c, ypart, xzpart in _F_BLOCKS
    ))


def two_cycles_gf() -> tuple[dict, list[tuple[dict, int]]]:
    """The closed form of F(x, y, z) as the pair (numerator, [(factor,
    multiplicity), ...]) that expand_rational takes."""
    shift = {(2, 2, 2): 16}
    x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    factors = [
        ({_ZERO: 1, x: -2}, 3),
        ({_ZERO: 1, y: -2}, 3),
        ({_ZERO: 1, z: -2}, 3),
        ({_ZERO: 1, x: -2, y: -2}, 1),
        ({_ZERO: 1, x: -2, z: -2}, 1),
        ({_ZERO: 1, y: -2, z: -2}, 1),
        ({_ZERO: 1, x: -1, y: -1, z: -1}, 1),
    ]
    return poly_mul(shift, f_numerator()), factors


_SHIFT_DEGREE = 6   # the 16 x^2 y^2 z^2 prefactor
_F_DEGREE_BOUND = 10
_RECOVERY_DEGREE = _SHIFT_DEGREE + _F_DEGREE_BOUND + 2


def recover_numerator() -> dict:
    """Rebuild f directly from the counting formulas.

    Multiplies the count series sum count_two_cycles(a) x^a1 y^a2 z^a3,
    exact up to total degree 18, by the full denominator polynomial; if F
    is the stated rational function, the product is the polynomial
    16 x^2 y^2 z^2 f plus nothing, so every term of degree 17 and 18 must
    vanish, and what remains must shift and scale down to f exactly.
    """
    degree = _RECOVERY_DEGREE
    counts: dict = {}
    for a1 in range(2, degree - 3):
        for a2 in range(2, degree - a1 - 1):
            for a3 in range(2, degree - a1 - a2 + 1):
                counts[(a1, a2, a3)] = count_two_cycles(a1, a2, a3)
    den = {_ZERO: 1}
    for factor, mult in two_cycles_gf()[1]:
        for _ in range(mult):
            den = poly_mul(den, factor)
    shifted = poly_mul(counts, den, max_degree=degree)
    high = {e: c for e, c in shifted.items() if sum(e) > _SHIFT_DEGREE + _F_DEGREE_BOUND}
    if high:
        sample = sorted(high)[:5]
        raise ValueError(f"numerator recovery failed: nonzero terms above degree "
                         f"{_SHIFT_DEGREE + _F_DEGREE_BOUND}: {sample}")
    out: dict = {}
    for (e1, e2, e3), c in shifted.items():
        if e1 < 2 or e2 < 2 or e3 < 2 or c % 16:
            raise ValueError(f"numerator recovery failed: term {(e1, e2, e3)}: {c} "
                             "is not divisible by 16 x^2 y^2 z^2")
        out[(e1 - 2, e2 - 2, e3 - 2)] = c // 16
    return out


def transcription_diff() -> dict:
    """Terms where the hand-entered numerator and the recovered one differ
    (exponent triple -> (hand-entered, recovered)); empty when they agree."""
    entered = f_numerator()
    recovered = recover_numerator()
    out = {}
    for e in sorted(set(entered) | set(recovered)):
        a, b = entered.get(e, 0), recovered.get(e, 0)
        if a != b:
            out[e] = (a, b)
    return out
