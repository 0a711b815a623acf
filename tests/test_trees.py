import math

import pytest

from walklabel import oracle, trees
from walklabel.graphs import perfect_tree, tree_minus_child, vertex_at

# the first six values of the binary-tree sequence, frozen references
BINARY_TREE_VALUES = [
    1,
    4,
    240,
    82368000,
    315717859104620544000000,
    11684127387646867268494413939618462518646164707029811200000000000,
]


def test_binary_tree_reference_values():
    for h, expected in enumerate(BINARY_TREE_VALUES):
        assert trees.count_perfect_tree(h, 2) == expected


def test_sixth_value_has_65_digits():
    assert len(str(BINARY_TREE_VALUES[5])) == 65


def test_recurrence_equals_closed_form():
    for m in range(2, 5):
        for h in range(0, 4):
            for k in range(0, h + 1):
                assert trees.t_rec(h, m, k) == trees.t_closed(h, m, k)
            for k in range(0, h):
                assert trees.s_rec(h, m, k) == trees.s_closed(h, m, k)


def test_count_matches_oracle_on_small_trees():
    for h, m in [(0, 2), (1, 2), (1, 4), (2, 2), (2, 3), (3, 2)]:
        g = perfect_tree(h, m)
        assert trees.count_perfect_tree(h, m) == oracle.count_labelings(g)


def test_t_matches_oracle_per_start_depth():
    for h, m in [(2, 2), (2, 3), (3, 2)]:
        g = perfect_tree(h, m)
        for k in range(h + 1):
            # all depth-k starts are equivalent; check the leftmost
            start = vertex_at(g, (k, 0))
            assert trees.t_rec(h, m, k) == oracle.count_labelings_from(g, start)


def test_s_matches_oracle_from_bereaved_parent():
    for h, m in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        for k in range(h):
            g = tree_minus_child(h, m, k)
            start = vertex_at(g, "bereaved")
            assert trees.s_rec(h, m, k) == oracle.count_labelings_from(g, start)


def test_count_is_depth_weighted_sum_of_t():
    # count_perfect_tree reroots hook lengths; t_rec is the recurrence
    grid = [(h, m) for h in range(8) for m in range(2, 6)] + [(12, 2)]
    for h, m in grid:
        total = sum(m**k * trees.t_rec(h, m, k) for k in range(h + 1))
        assert trees.count_perfect_tree(h, m) == total


def test_alpha_beta_gamma_are_positive_integers():
    for m in range(2, 5):
        for h in range(1, 5):
            assert trees.alpha(h, m) >= 1
            for k in range(h):
                assert trees.beta(h, m, k) >= 1
            for k in range(h + 1):
                assert trees.gamma(h, m, k) >= 1


def test_parameter_validation():
    with pytest.raises(ValueError):
        trees.count_perfect_tree(-1, 2)
    with pytest.raises(ValueError):
        trees.count_perfect_tree(2, 1)
    with pytest.raises(ValueError, match="parameter out of range"):
        trees.t_rec(2, 2, 3)
    with pytest.raises(ValueError, match="parameter out of range"):
        trees.s_rec(2, 2, 2)


def test_oeis_tree_root_sequence():
    assert trees.oeis_tree_root_sequence(4) == [1, 2, 80, 21964800]
    assert trees.oeis_tree_root_sequence(0) == []
    with pytest.raises(ValueError):
        trees.oeis_tree_root_sequence(-1)


def test_root_sequence_matches_per_start_count():
    for h in range(3):
        g = perfect_tree(h, 2)
        root = vertex_at(g, "root")
        assert trees.oeis_tree_root_sequence(h + 1)[h] == oracle.count_labelings_from(g, root)


def test_count_raises_on_a_corrupted_factorial_instead_of_flooring(monkeypatch):
    # n! / hooks is exact only for the true n!; one off must not floor quietly
    monkeypatch.setattr(trees, "factorial", lambda n: math.factorial(n) + 1)
    with pytest.raises(ValueError, match=r"formula integrality violated: t\(2, 2, 0\) = 5041/63"):
        trees.count_perfect_tree(2, 2)
