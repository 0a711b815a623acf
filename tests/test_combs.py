import pytest

from closed_forms_ref import A_term, count_comb as count_comb_ref
from walklabel import combs, oracle
from walklabel.bigmath import binomial, multinomial
from walklabel.graphs import comb, vertex_at


def test_count_matches_oracle_on_small_grid():
    for m in range(1, 5):
        for n in range(2, 13 // m + 1):
            for k in range(1, n + 1):
                g = comb(m, n, k)
                assert combs.count_comb(m, n, k) == oracle.count_labelings(g)


def test_single_tooth_is_a_path():
    for n in range(2, 8):
        for k in range(1, n + 1):
            assert combs.count_comb(1, n, k) == 2 ** (n - 1)


def test_mirror_symmetry():
    for m in range(1, 4):
        for n in range(2, 6):
            for k in range(1, n + 1):
                assert combs.count_comb(m, n, k) == combs.count_comb(m, n, n - k + 1)


def test_per_vertex_counts_sum_to_total():
    for m, n, k in [(2, 3, 1), (3, 3, 2), (2, 4, 2), (4, 2, 1)]:
        total = sum(
            combs.count_from_vertex(m, n, k, j, s)
            for j in range(1, m + 1)
            for s in range(1, n + 1)
        )
        assert total == combs.count_comb(m, n, k)


def test_per_vertex_counts_match_oracle():
    for m, n, k in [(2, 3, 2), (3, 2, 1), (2, 4, 1)]:
        g = comb(m, n, k)
        for j in range(1, m + 1):
            for s in range(1, n + 1):
                assert combs.count_from_vertex(m, n, k, j, s) == oracle.count_labelings_from(
                    g, vertex_at(g, (j, s))
                )


def _count_from_vertex_by_a_terms(m, n, k, j, s):
    # count_from_vertex as first written: one A_term, spine factors and
    # all, per cut y
    if s == k:
        return A_term(m, n, j, k, 1)
    if s > k:
        return _count_from_vertex_by_a_terms(m, n, n - k + 1, j, n - s + 1)
    return sum(binomial(y - 2, k - s - 1) * A_term(m, n, j, k, y) for y in range(k - s + 1, k + 1))


def test_per_vertex_counts_match_the_sum_of_a_terms():
    for m in range(1, 7):
        for n in range(2, 9):
            for k in range(1, n + 1):
                for j in range(1, m + 1):
                    for s in range(1, n + 1):
                        assert combs.count_from_vertex(m, n, k, j, s) == _count_from_vertex_by_a_terms(
                            m, n, k, j, s)


def test_memoized_t_spine_matches_the_plain_product():
    for m in range(0, 5):
        for n in range(2, 7):
            for k in range(1, n + 1):
                assert combs.t_spine(m, n, k) == combs.t_spine.__wrapped__(m, n, k)


def test_t_spine_matches_oracle():
    for m, n, k in [(2, 2, 1), (3, 3, 2), (2, 5, 3), (4, 3, 1)]:
        g = comb(m, n, k)
        assert combs.t_spine(m, n, k) == oracle.count_labelings_from(g, vertex_at(g, (1, k)))


def test_spine_convolution_identity():
    for m in range(0, 7):
        for n in range(2, 6):
            for k in range(1, n + 1):
                assert combs.lemma_pac_check(m, n, k)


def test_corollary_comb_disagrees_with_theorem():
    rec = combs.corollary_comb(2)
    assert rec == (4, 8, False)
    assert rec.closed_form == oracle.count_labelings(comb(2, 2, 1))
    rec3 = combs.corollary_comb(3)
    assert rec3 == (24, 72, False)
    assert rec3.closed_form == oracle.count_labelings(comb(3, 2, 1))


def test_corollary_double_comb_agrees():
    for m in range(1, 5):
        rec = combs.corollary_double_comb(m)
        assert rec.agrees and rec.value == rec.closed_form
    assert combs.corollary_double_comb(2).value == 112


def test_oeis_comb_row_sequence():
    assert combs.oeis_comb_row_sequence(4) == [2, 8, 72, 960]
    assert combs.oeis_comb_row_sequence(0) == []


def test_parameter_validation():
    with pytest.raises(ValueError):
        combs.count_comb(0, 2, 1)
    with pytest.raises(ValueError):
        combs.count_comb(2, 2, 3)
    with pytest.raises(ValueError):
        combs.count_from_vertex(2, 2, 1, 3, 1)
    with pytest.raises(ValueError):
        combs.corollary_comb(0)


@pytest.mark.parametrize("args", [
    pytest.param((2, 3, 0, 1, 1), id="A_term j"),
    pytest.param((2, 3, 1, 1, 4), id="A_term y"),
])
def test_a_term_rejects_out_of_range_parameters(args):
    with pytest.raises(ValueError, match="parameter out of range"):
        A_term(*args)


def test_a_term_block_positivity_boundary():
    for m, n, kp in [(2, 3, 2), (3, 4, 3), (1, 2, 1)]:
        for j in range(1, m + 1):
            for y in range(1, n + 1):
                block = A_term(m, n, j, kp, y)
                # a cut beyond the spine position is impossible
                assert (block >= 1) == (y <= kp)


def test_count_comb_matches_the_rational_reference():
    for m in range(1, 31):
        for n in range(2, 60 // m + 1):
            for k in range(1, n + 1):
                assert combs.count_comb(m, n, k) == count_comb_ref(m, n, k)
    for k in (1, 40, 80):
        assert combs.count_comb(80, 80, k) == count_comb_ref(80, 80, k)
    # one tooth, whose multinomial part m - 1 is empty, and so is k - 1 or
    # n - k at either end; then the shortest teeth with many copies
    for k in range(1, 201):
        assert combs.count_comb(1, 200, k) == count_comb_ref(1, 200, k)
    for m in (100, 200):
        for k in (1, 2):
            assert combs.count_comb(m, 2, k) == count_comb_ref(m, 2, k)


def test_count_comb_refuses_a_non_integral_value(monkeypatch):
    # a corrupted multinomial leaves a remainder, which must raise, not round
    monkeypatch.setattr(combs, "multinomial", lambda parts: multinomial(parts) + 1)
    with pytest.raises(ValueError, match=r"formula integrality violated: count_comb\(3, 4, 2\)"):
        combs.count_comb(3, 4, 2)
