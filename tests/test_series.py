import random

import pytest
from series_ref import expand_rational as expand_rational_ref

from walklabel import twocycles
from walklabel.series import (
    expand_rational,
    export_coefficients,
    f_numerator,
    poly_add,
    poly_mul,
    recover_numerator,
    transcription_diff,
    two_cycles_gf,
)
from walklabel.twocycles import count_two_cycles

X = {(1, 0, 0): 1}
Y = {(0, 1, 0): 1}
ONE = {(0, 0, 0): 1}


def test_poly_add_and_mul():
    assert poly_add({(0, 0, 0): 1}, {(0, 0, 0): -1}) == {}
    assert poly_mul(X, Y) == {(1, 1, 0): 1}
    square = poly_mul(poly_add(X, Y), poly_add(X, Y))
    assert square == {(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1}


def test_poly_mul_truncates_at_max_degree():
    cubic = poly_mul(poly_mul(X, X), X)
    assert poly_mul(cubic, cubic, max_degree=5) == {}


def test_export_ordering():
    p = {(0, 0, 2): 1, (1, 0, 0): 2, (0, 1, 1): 3}
    assert export_coefficients(p) == [(1, 0, 0, 2), (0, 0, 2, 1), (0, 1, 1, 3)]
    # the whole two-cycle series, against a sort on one (degree, exponents) key
    p = expand_rational(two_cycles_gf(), 30)
    keys = sorted(p, key=lambda e: (sum(e), e))
    assert export_coefficients(p) == [(*e, p[e]) for e in keys]


def test_geometric_series():
    expansion = expand_rational((ONE, [(poly_add(ONE, {(1, 0, 0): -1}), 1)]), 5)  # 1 / (1 - x)
    assert expansion == {(d, 0, 0): 1 for d in range(6)}


def test_two_variable_rational():
    # (1) / ((1 - x)(1 - y)) = sum x^i y^j
    factors = [(poly_add(ONE, {(1, 0, 0): -1}), 1), (poly_add(ONE, {(0, 1, 0): -1}), 1)]
    expansion = expand_rational((ONE, factors), 3)
    assert all(expansion.get((i, j, 0)) == 1 for i in range(3) for j in range(3 - i))


def test_expansion_drops_terms_that_cancel():
    # (1 - x) / (1 - x) = 1: every higher coefficient cancels to 0 in place
    one_minus_x = poly_add(ONE, {(1, 0, 0): -1})
    assert expand_rational((one_minus_x, [(one_minus_x, 1)]), 5) == {(0, 0, 0): 1}


# factor terms: pure x and y, mixed terms with z to the power 1 or 2, pure z
# of degrees 1-3
_FACTOR_TERMS = ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (2, 0, 1),
                 (1, 0, 2), (0, 1, 2), (0, 0, 1), (0, 0, 2), (0, 0, 3))


def test_expansion_matches_the_dict_sweep_on_random_rational_functions():
    rng = random.Random(14)
    seen = set()
    for case in range(300):
        factors = []
        for _ in range(rng.randint(1, 4)):
            factor = {(0, 0, 0): 1}
            for d in rng.sample(_FACTOR_TERMS, rng.randint(1, 3)):
                factor[d] = rng.choice((-3, -2, -1, 1, 2, 3))
            factors.append((factor, rng.randint(0, 3)))
            for d1, d2, d3 in factor:
                if d3:
                    seen.add("mixed" if d1 or d2 else f"z^{min(d3, 2)}")
        low = tuple(rng.randint(0, 2) for _ in range(3))
        numerator = {}
        for _ in range(rng.randint(1, 5)):
            e = tuple(lo + rng.randint(0, 3) for lo in low)
            numerator[e] = numerator.get(e, 0) + rng.choice((-2, -1, 1, 3))
        if case % 4 == 0:
            # a multiple of the first factor: the quotient is a polynomial,
            # so all but finitely many coefficients cancel to 0
            numerator = poly_mul(numerator, factors[0][0])
            factors[0] = (factors[0][0], max(factors[0][1], 1))
        if case % 5 == 0:
            numerator[(0, 0, 0)] = 0  # a stored zero sets no least power
        terms = [e for e, c in numerator.items() if c]
        least = min(map(sum, terms), default=0)
        seen.update(f"multiplicity {m}" for _, m in factors)
        if terms and all(min(e[i] for e in terms) for i in range(3)):
            seen.add("least powers above 0")
        degree = rng.randint(0, 12)
        gf = (numerator, factors)
        got = expand_rational(gf, degree)
        assert got == expand_rational_ref(gf, degree), (numerator, factors, degree)
        if degree < least:
            assert got == {}
            seen.add("below the numerator")
    assert seen >= {"z^1", "z^2", "mixed", "least powers above 0", "below the numerator",
                    *(f"multiplicity {m}" for m in range(4))}


def test_expansion_matches_the_dict_sweep_on_the_two_cycle_series():
    assert expand_rational(two_cycles_gf(), 24) == expand_rational_ref(two_cycles_gf(), 24)


@pytest.mark.parametrize("var", [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
@pytest.mark.parametrize("c, a, mult", [(-7, 3, 3), (5, -2, 4)])
def test_expansion_fills_its_slots_where_the_majorant_is_met(var, c, a, mult):
    # c / (1 + a v)^mult has one term per degree, whose |coefficient| is the
    # bound the slot width is taken from: signs alternate for a > 0
    gf = ({(0, 0, 0): c}, [({(0, 0, 0): 1, var: a}, mult)])
    got = expand_rational(gf, 40)
    assert got == expand_rational_ref(gf, 40)
    assert len(got) == 41
    assert {v > 0 for v in got.values()} == ({True, False} if a > 0 else {True})


def test_expansion_with_a_numerator_coefficient_above_2_to_the_200():
    numerator = {(0, 0, 0): 2**201 + 1, (1, 0, 1): -(3**130), (0, 2, 0): 5}
    factors = [({(0, 0, 0): 1, (1, 1, 0): -2, (0, 0, 1): 3}, 2), ({(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 1): -1}, 1)]
    gf = (numerator, factors)
    got = expand_rational(gf, 14)
    assert got == expand_rational_ref(gf, 14)
    assert max(map(abs, got.values())) > 2**210


def test_rational_gf_requires_unit_constant_terms():
    with pytest.raises(ValueError, match="constant term"):
        expand_rational((ONE, [(X, 1)]), 3)


def test_numerator_shape():
    f = f_numerator()
    assert f.get((0, 0, 0)) == 13
    assert max(sum(e) for e in f) == 10
    assert len(f) == 166
    # symmetric under swapping the two outer variables
    assert all(f[(a, b, c)] == f[(c, b, a)] for (a, b, c) in f)


def test_expansion_matches_counts():
    # totals up to 21 and corners of total 45, past the oracle's 24 vertices
    expansion = expand_rational(two_cycles_gf(), 45)
    triples = [(a1, a2, a3) for a1 in range(2, 18) for a2 in range(2, 18) for a3 in range(2, 18)
               if a1 + a2 + a3 <= 21]
    triples += [(2, 2, 41), (2, 41, 2), (41, 2, 2), (15, 15, 15)]
    for a1, a2, a3 in triples:
        assert expansion.get((a1, a2, a3)) == count_two_cycles(a1, a2, a3)


def test_expansion_has_no_low_degree_terms():
    expansion = expand_rational(two_cycles_gf(), 8)
    for (a1, a2, a3), value in expansion.items():
        assert min(a1, a2, a3) >= 2 and value > 0


def test_recovered_numerator_matches_transcription():
    assert transcription_diff() == {}


def test_recover_numerator_directly():
    assert recover_numerator() == f_numerator()


def test_smallest_coefficient():
    expansion = expand_rational(two_cycles_gf(), 6)
    assert expansion.get((2, 2, 2)) == 208


def test_expansion_matches_counts_on_every_triple_to_degree_40():
    # the generating function against the closed form at every triple it
    # reaches, once in increasing and once in decreasing order from empty
    # caches, so that each binomial tail is stepped from either neighbour
    expansion = expand_rational(two_cycles_gf(), 40)
    assert all(min(e) >= 2 for e in expansion)
    triples = [(a1, a2, a3) for a1 in range(2, 37) for a2 in range(2, 39 - a1) for a3 in range(2, 41 - a1 - a2)]
    assert len(triples) == 7770
    for order in (triples, triples[::-1]):
        twocycles._TAILS.clear()
        twocycles._block.cache_clear()
        assert [expansion.get(t) for t in order] == [count_two_cycles(*t) for t in order]
