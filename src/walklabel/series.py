"""Trivariate generating function machinery for the two-cycle counts.

F(x, y, z) = sum over a1, a2, a3 >= 2 of count_two_cycles(a1, a2, a3)
x^a1 y^a2 z^a3 is rational: 16 x^2 y^2 z^2 f(x, y, z) over
(1-2x)^3 (1-2y)^3 (1-2z)^3 (1-2x-2y)(1-2x-2z)(1-2y-2z)(1-x-y-z).

Polynomials and truncated series are sparse dicts mapping exponent triples
(e1, e2, e3) to nonzero int coefficients. A rational function is the pair
(numerator, [(factor, multiplicity), ...]), each factor with constant term
1 so that division is a well-defined series operation. expand_rational
works on dense rows instead: one list of coefficients over the power of z
for each pair of powers of x and y, from the numerator's least powers up
to the truncation degree. It divides by each factor in place, row by row
in lexicographic order; a term with a power of x or y updates the whole
row from an earlier row that is already final, and one loop along the row
then applies the terms in z alone. Only the result goes back to a dict.

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
    "export_coefficients",
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


def export_coefficients(p: dict) -> list[tuple[int, int, int, int]]:
    """Rows (a1, a2, a3, coefficient) sorted by total degree, then
    lexicographically by exponents; zero coefficients are not stored."""
    # two sorts with no Python key function: the second is stable and keeps
    # the exponents' order within each total degree
    keys = sorted(p)
    keys.sort(key=sum)
    return [(a1, a2, a3, p[a1, a2, a3]) for a1, a2, a3 in keys]


def expand_rational(gf: tuple[dict, list[tuple[dict, int]]], degree: int) -> dict:
    """Truncated expansion of numerator / prod factor^multiplicity up to
    the given total degree, for gf = (numerator, [(factor, multiplicity)]).

    No quotient term has a lower power of a variable than every numerator
    term, so the series starts at those least powers (lo1, lo2, lo3) and,
    with top = degree - lo1 - lo2 - lo3, is held as rows: r[i][j][k] is
    the coefficient of x^(lo1+i) y^(lo2+j) z^(lo3+k), for
    i + j + k <= top. Each division by a factor 1 + sum over d of a_d x^d
    runs in place, visiting the rows in lexicographic (i, j) order: r[e]
    becomes r[e] - sum over d of a_d r[e - d]. A term with (d1, d2) other
    than (0, 0) reads an earlier row, which already holds the quotient, so
    it updates the whole row at once; the pure-z terms then run along the
    row in increasing k. Coefficients that end at 0 are left out of the
    returned dict.
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
    r = [[[0] * (top - i - j + 1) for j in range(top - i + 1)] for i in range(top + 1)]
    for (e1, e2, e3), c in terms:
        r[e1 - lo1][e2 - lo2][e3 - lo3] = c
    for factor, mult in factors:
        # terms that read an earlier row, and terms in z alone, by degree
        across = [(d1, d2, d3, a) for (d1, d2, d3), a in factor.items() if a and (d1 or d2)]
        along = sorted((d3, a) for (d1, d2, d3), a in factor.items() if a and not (d1 or d2) and d3)
        for _ in range(mult):
            for i, plane in enumerate(r):
                for j, row in enumerate(plane):
                    for d1, d2, d3, a in across:
                        if d1 <= i and d2 <= j:
                            src = r[i - d1][j - d2]
                            row[d3:] = [v - a * s for v, s in zip(row[d3:], src)]
                    if along:
                        for k in range(along[0][0], len(row)):
                            acc = row[k]
                            for d3, a in along:
                                if d3 > k:
                                    break
                                acc -= a * row[k - d3]
                            row[k] = acc
    return {
        (lo1 + i, lo2 + j, lo3 + k): c
        for i, plane in enumerate(r)
        for j, row in enumerate(plane)
        for k, c in enumerate(row)
        if c
    }


def _xz_sym(e1: int, e3: int) -> dict:
    """x^e1 z^e3 + x^e3 z^e1 (single monomial when e1 == e3)."""
    if e1 == e3:
        return {(e1, 0, e3): 1}
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
