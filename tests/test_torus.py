import math

import pytest

from closed_forms_ref import a_closed as a_closed_ref
from closed_forms_ref import b_closed as b_closed_ref
from closed_forms_ref import count_torus as count_torus_ref
from walklabel import oracle, torus as torus_mod
from walklabel.graphs import torus, vertex_at
from walklabel.torus import a_closed, a_rec, b_closed, b_rec, count_torus


def test_spot_values():
    assert count_torus(1) == 2
    assert count_torus(2) == 16
    assert count_torus(3) == 360


def test_spot_values_match_oracle():
    assert oracle.count_labelings(torus(2)) == 16
    assert oracle.count_labelings(torus(3)) == 360


def test_count_matches_oracle():
    for n in range(1, 8):
        assert count_torus(n) == oracle.count_labelings(torus(n))


def test_recurrence_equals_closed_form_a():
    for n in range(1, 11):
        for k in range(1, n + 1):
            assert a_rec(n, k) == a_closed(n, k)


def test_recurrence_equals_closed_form_b():
    for n in range(2, 11):
        for s in range(0, n):
            for t in range(0, n):
                assert b_rec(n, s, t) == b_closed(n, s, t)


def test_b_vanishes_once_rows_could_close():
    for n in range(2, 9):
        for s in range(n):
            for t in range(n):
                if s + t >= n:
                    assert b_rec(n, s, t) == 0


def test_b_is_symmetric_in_s_and_t():
    for n in range(2, 9):
        for s in range(n):
            for t in range(n):
                assert b_rec(n, s, t) == b_rec(n, t, s)


def test_total_is_2n_times_first_state():
    for n in range(2, 12):
        assert count_torus(n) == 2 * n * a_rec(n, 1)


def test_every_start_counts_a_n_1():
    # rotations and the row swap act transitively on the vertices, so each
    # start counts a(n, 1) and the total is 2n times it, as verify_torus
    # takes it from its per-start batch
    for n in range(2, 9):
        g = torus(n)
        from_each = oracle.count_completions_each(g, [[v] for v in range(2 * n)])
        assert from_each == [a_rec(n, 1)] * (2 * n)
        assert 2 * n * from_each[0] == oracle.count_labelings(g) == count_torus(n)


def test_a_full_row_is_factorial():
    for n in range(2, 9):
        assert a_rec(n, n) == math.factorial(n)


def test_a_states_match_completion_oracle():
    # a(n, k): one row's first k vertices labeled, the walk sitting anywhere
    # on that arc; counted as completions of that labeled set
    for n in range(3, 7):
        g = torus(n)
        for k in range(1, n + 1):
            labeled = [vertex_at(g, (1, c)) for c in range(1, k + 1)]
            assert a_rec(n, k) == oracle.count_completions(g, labeled)


def test_b_states_match_completion_oracle():
    # b(n, s, t): arcs of s+1 and t+1 vertices in the two rows, sharing
    # exactly one matched column, growing in opposite directions
    for n in range(3, 7):
        g = torus(n)
        for s in range(0, n - 1):
            for t in range(0, n - s - 1):
                labeled = [vertex_at(g, (1, c)) for c in range(1, s + 2)]
                labeled += [vertex_at(g, (2, 1))]
                labeled += [vertex_at(g, (2, c)) for c in range(n, n - t, -1)]
                assert b_rec(n, s, t) == oracle.count_completions(g, labeled)


def test_torus_state_matches_definitions():
    g = torus(5)
    labeled = [vertex_at(g, c) for c in torus_mod.torus_state(5, ("b", 2, 1))]
    assert b_rec(5, 2, 1) == oracle.count_completions(g, labeled)
    labeled = [vertex_at(g, c) for c in torus_mod.torus_state(5, ("a", 3))]
    assert a_rec(5, 3) == oracle.count_completions(g, labeled)
    with pytest.raises(ValueError, match="unknown state shape"):
        torus_mod.torus_state(5, ("c", 1))
    # arcs of s + 1 and t + 1 vertices meet in more than one column
    with pytest.raises(ValueError, match="cannot overlap in one column"):
        torus_mod.torus_state(5, ("b", 3, 2))


def test_parameter_validation():
    with pytest.raises(ValueError, match="parameter out of range"):
        a_rec(3, 0)
    with pytest.raises(ValueError, match="parameter out of range"):
        a_rec(3, 4)
    with pytest.raises(ValueError, match="parameter out of range"):
        b_rec(3, -1, 0)
    with pytest.raises(ValueError, match="parameter out of range"):
        count_torus(0)


def test_b_is_zero_at_n_1_by_convention():
    # the n >= 2 recurrences never consume it, but both forms agree on it
    assert b_rec(1, 0, 0) == b_closed(1, 0, 0) == 0


def test_closed_forms_are_integral_for_larger_n():
    # exact_div inside the closed forms raises if any division fails; the
    # falling factorials must equal the whole-factorial quotients they replace
    for n in range(1, 61):
        assert count_torus(n) == count_torus_ref(n)
        for k in range(1, n + 1):
            assert a_closed(n, k) == a_closed_ref(n, k) > 0
        for s in range(n):
            for t in range(n - s):
                assert b_closed(n, s, t) == b_closed_ref(n, s, t)
