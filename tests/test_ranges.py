import pytest

from walklabel import combs, torus, trees


@pytest.mark.parametrize("fn, args", [
    pytest.param(combs.count_from_vertex, (2, 3, 1, 1, 4), id="count_from_vertex s"),
    pytest.param(combs.count_comb, (1, 1, 1), id="comb n < 2"),
    pytest.param(combs.corollary_double_comb, (0,), id="corollary_double_comb m"),
    pytest.param(combs.oeis_comb_row_sequence, (-1,), id="oeis_comb_row_sequence count"),
    pytest.param(trees.beta, (2, 2, 2), id="beta k"),
    pytest.param(trees.gamma, (2, 2, 3), id="gamma k"),
    pytest.param(trees.s_closed, (2, 2, -1), id="s_closed k"),
    pytest.param(trees.t_closed, (2, 2, 3), id="t_closed k"),
    pytest.param(torus.a_rec, (0, 1), id="a_rec n"),
    pytest.param(torus.b_rec, (0, 0, 0), id="b_rec n"),
    pytest.param(torus.b_rec, (3, 0, 3), id="b_rec arc past the row"),
    pytest.param(torus.torus_state, (1, ("b", 0, 0)), id="two-row state n"),
])
def test_out_of_range_parameters_raise(fn, args):
    with pytest.raises(ValueError, match="parameter out of range"):
        fn(*args)
