import random
from itertools import product

import pytest

from closed_forms_ref import block_rows, rows as rows_ref, rows_horner, rows_vandermonde
from walklabel import oracle, twocycles
from walklabel.bigmath import binomial
from walklabel.graphs import two_cycles, vertex_at
from walklabel.twocycles import _block, count_two_cycles, term_A, term_B, term_C


def test_smallest_instance():
    assert count_two_cycles(2, 2, 2) == 208


def test_count_matches_oracle_on_small_grid():
    for a1 in range(2, 6):
        for a2 in range(2, 6):
            for a3 in range(2, 6):
                if a1 + a2 + a3 <= 13:
                    g = two_cycles(a1, a2, a3)
                    assert count_two_cycles(a1, a2, a3) == oracle.count_labelings(g)


def test_outer_row_symmetry():
    for a1 in range(2, 6):
        for a3 in range(2, 6):
            assert count_two_cycles(a1, 3, a3) == count_two_cycles(a3, 3, a1)


def test_term_A_matches_junction_started_oracle():
    for a1, a2, a3 in [(2, 2, 2), (2, 3, 2), (3, 2, 4), (2, 4, 3)]:
        g = two_cycles(a1, a2, a3)
        left = vertex_at(g, "left_junction")
        assert term_A(a1, a2, a3) == oracle.count_labelings_from(g, left)


def test_term_B_matches_order_constrained_oracle():
    for a1, a2, a3 in [(2, 4, 2), (3, 4, 2), (2, 5, 3)]:
        g = two_cycles(a1, a2, a3)
        left = vertex_at(g, "left_junction")
        right = vertex_at(g, "right_junction")
        for s in range(2, a2):
            start = vertex_at(g, (2, s))
            expected = oracle.count_labelings_from_before(g, start, left, right)
            assert term_B(a1, a2, a3, s) == expected


def test_term_C_matches_order_constrained_oracle():
    for a1, a2, a3 in [(2, 2, 2), (3, 3, 2), (4, 2, 3)]:
        g = two_cycles(a1, a2, a3)
        left = vertex_at(g, "left_junction")
        right = vertex_at(g, "right_junction")
        for s in range(1, a1 + 1):
            start = vertex_at(g, (1, s))
            expected = oracle.count_labelings_from_before(g, start, left, right)
            assert term_C(a1, a2, a3, s) == expected


def test_term_B_binomial_prefix_regression():
    # the q-sum prefix must be C(q-2, s-2): the stricter C(q-s, s-2) shape
    # fails the order-constrained oracle on every asymmetric instance.
    # (2, 4, 3) at s = 2 is the smallest case separating the two.
    g = two_cycles(2, 4, 3)
    left = vertex_at(g, "left_junction")
    right = vertex_at(g, "right_junction")
    start = vertex_at(g, (2, 2))
    assert term_B(2, 4, 3, 2) == oracle.count_labelings_from_before(g, start, left, right)


def test_term_B_boundary_s_equals_two_is_well_defined():
    # s = 2 exercises the C(q-2, 0) edge of the prefix; it must count, not
    # degenerate to zero
    assert term_B(2, 4, 2, 2) > 0
    assert binomial(0, 0) == 1


def test_totals_decompose_into_terms():
    for a1, a2, a3 in product(range(2, 7), repeat=3):
        total = 2 * term_A(a1, a2, a3)
        total += 2 * sum(term_B(a1, a2, a3, s) for s in range(2, a2))
        total += 2 * sum(term_C(a1, a2, a3, s) for s in range(1, a1 + 1))
        total += 2 * sum(term_C(a3, a2, a1, s) for s in range(1, a3 + 1))
        assert count_two_cycles(a1, a2, a3) == total


def test_order_constraint_complementarity_across_rows():
    # starting on the top row, the left junction comes first in term_C's
    # count and the right junction in the mirrored one; the two halves
    # partition all labelings from that start
    a1, a2, a3 = 3, 2, 2
    g = two_cycles(a1, a2, a3)
    for s in range(1, a1 + 1):
        start = vertex_at(g, (1, s))
        mirrored = term_C(a1, a2, a3, a1 - s + 1)  # row reversed, roles swap
        direct = term_C(a1, a2, a3, s)
        assert direct + mirrored == oracle.count_labelings_from(g, start)


def test_parameter_validation():
    with pytest.raises(ValueError):
        count_two_cycles(1, 2, 2)
    with pytest.raises(ValueError, match="parameter out of range"):
        term_B(2, 2, 2, 2)  # a2 = 2 leaves no interior start
    with pytest.raises(ValueError, match="parameter out of range"):
        term_C(2, 2, 2, 3)


def test_rows_match_the_double_sum():
    # the three cap pairs a block splits into: both partial rows may end
    # full, only row a may, neither may
    for full, a, b in product(range(9), repeat=3):
        for a_cap, b_cap in [(a + 1, b + 1), (a + 1, b), (a, b)]:
            assert rows_horner(full, a, b, a_cap, b_cap) == rows_ref(full, a, b, a_cap, b_cap)
        assert _block(full, a, b) == block_rows(full, a, b)


def test_horner_rows_match_the_vandermonde_sum():
    rng = random.Random(20)
    for _ in range(300):
        full, a, b = (rng.randint(0, 60) for _ in range(3))
        for a_cap, b_cap in [(a + 1, b + 1), (a + 1, b), (a, b)]:
            assert rows_horner(full, a, b, a_cap, b_cap) == rows_vandermonde(full, a, b, a_cap, b_cap)
        assert _block(full, a, b) == block_rows(full, a, b, rows_vandermonde)


def _tail_by_definition(n, f):
    return sum(binomial(n, i) for i in range(f, n + 1))


def test_tails_step_from_either_neighbour(monkeypatch):
    # summed directly on either side of U(n, f) + U(n, n + 1 - f) = 2^n,
    # then stepped from U(n + 1, f) alone and from U(n + 1, f + 1) alone;
    # the edges are f = 0 (no C(n, -1)), f = n + 1 (an empty tail) and
    # 2f = n + 1 (odd n), which the mirror maps to itself
    for n in range(14):
        for f in range(n + 2):
            expected = _tail_by_definition(n, f)
            for kept in [(), ((n + 1, f),), ((n + 1, f + 1),)]:
                monkeypatch.setattr(twocycles, "_TAILS", {key: _tail_by_definition(*key) for key in kept})
                assert twocycles._tail(n, f) == expected


@pytest.mark.parametrize("a1, a2, a3", [(40, 30, 20), (9, 2, 7), (80, 80, 80)])
def test_totals_from_stepped_partial_sums_match_the_reference_rows(monkeypatch, a1, a2, a3):
    # with no block and no tail kept, the first block sums its tails
    # directly and every later block steps them from the block before it
    with monkeypatch.context() as patch:
        patch.setattr(twocycles, "_block", lambda x, r, z: block_rows(x, r, z, rows_horner))
        expected = count_two_cycles(a1, a2, a3)
    twocycles._block.cache_clear()
    monkeypatch.setattr(twocycles, "_TAILS", {})
    assert count_two_cycles(a1, a2, a3) == expected


def test_a_left_junction_source_gets_its_unconstrained_count():
    # verify reads term_A off its before=(left, right) batch on this identity
    for a1, a2, a3 in product(range(2, 9), repeat=3):
        if a1 + a2 + a3 <= 12:
            g = two_cycles(a1, a2, a3)
            left, right = vertex_at(g, "left_junction"), vertex_at(g, "right_junction")
            assert oracle.count_completions_each(g, [[left]], before=(left, right)) == [
                oracle.count_labelings_from(g, left)]


def test_twice_the_left_first_starts_is_the_total():
    # verify takes a two-cycle total within max_lemma_total off its
    # before=(left, right) batch: reversing every row swaps the junctions,
    # and a right-junction start puts the left junction second
    for a1, a2, a3 in product(range(2, 11), repeat=3):
        if a1 + a2 + a3 <= 14:
            g = two_cycles(a1, a2, a3)
            left, right = vertex_at(g, "left_junction"), vertex_at(g, "right_junction")
            each = oracle.count_completions_each(g, [[v] for v in range(g.n)], before=(left, right))
            assert each[right] == 0
            assert 2 * sum(each) == oracle.count_labelings(g) == count_two_cycles(a1, a2, a3)


@pytest.mark.parametrize("args", [(-1, 2, 2), (2, -1, 2), (2, 2, -1)])
def test_rows_reject_malformed_terms(args):
    with pytest.raises(ValueError, match="malformed two-cycle term"):
        _block(*args)
