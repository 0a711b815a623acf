"""verify's comb and two-cycle loops against their one-search-per-instance
references in verify_ref.py: the same checks, progress lines and failures,
from one oracle search per mirror pair, made at its canonical member, and
one evaluation per closed-form argument in each call; and the oracle
queries of its torus and tree loops."""

from collections import Counter

import verify_ref

from walklabel import combs, oracle, twocycles, verify
from walklabel.graphs import comb, perfect_tree, torus, tree_minus_child, two_cycles
from walklabel.verify import Check

# small grids that hold mirror pairs, self-mirrored instances (a1 == a3,
# k == n - k + 1) and, for the two-cycles, instances past max_lemma_total
TWOCYCLES_GRID = {"max_total": 10, "max_part": 8, "max_lemma_total": 9}
COMBS_GRID = {"max_mn": 8}


def _run(verify_family, grid):
    lines = []
    return verify_family(**grid, progress=lines.append), lines


def test_verify_matches_one_search_per_instance():
    for name, grid in (("verify_twocycles", TWOCYCLES_GRID), ("verify_combs", COMBS_GRID)):
        checks, lines = _run(getattr(verify, name), grid)
        assert (checks, lines) == _run(getattr(verify_ref, name), grid)
        assert checks and all(check.ok for check in checks)
    instances = {check.instance for check in _run(verify.verify_twocycles, TWOCYCLES_GRID)[0]}
    assert {"(3, 2, 3)", "(2, 3, 4) s=1", "(4, 3, 2) s=1", "(4, 2, 3)"} <= instances
    instances = {check.instance for check in _run(verify.verify_combs, COMBS_GRID)[0]}
    assert {"(m=1, n=5, k=3)", "(m=2, n=4, k=1)", "(m=2, n=4, k=4)"} <= instances


def test_a_formula_broken_at_a_mirrored_instance_fails_its_checks(monkeypatch):
    def broken_at(function, args):
        def broken(*called):
            value = function(*called)
            return value + 1 if called == args else value
        return broken

    # term_C(4, 3, 2, 2) is read by S(4, 3, 2), which takes its oracle
    # counts from S(2, 3, 4), and by S(2, 3, 4)'s swapped check
    true_c = twocycles.term_C(4, 3, 2, 2)
    monkeypatch.setattr(twocycles, "term_C", broken_at(twocycles.term_C, (4, 3, 2, 2)))
    checks, _ = _run(verify.verify_twocycles, TWOCYCLES_GRID)
    assert checks == _run(verify_ref.verify_twocycles, TWOCYCLES_GRID)[0]
    assert [check for check in checks if not check.ok] == [
        Check("twocycles", "(2, 3, 4) s=2", "swapped term_C == constrained oracle", true_c, true_c + 1, False),
        Check("twocycles", "(4, 3, 2) s=2", "term_C == constrained oracle", true_c, true_c + 1, False),
    ]

    # C(1, 7, 5) takes its oracle counts from C(1, 7, 3); no other check of
    # the grid reads t_spine(1, 7, 5)
    true_t = combs.t_spine(1, 7, 5)
    monkeypatch.setattr(combs, "t_spine", broken_at(combs.t_spine, (1, 7, 5)))
    checks, _ = _run(verify.verify_combs, COMBS_GRID)
    assert checks == _run(verify_ref.verify_combs, COMBS_GRID)[0]
    assert [check for check in checks if not check.ok] == [
        Check("comb", "(m=1, n=7, k=5)", "t_spine == oracle from (1, k)", true_t, true_t + 1, False),
    ]


def _searches(monkeypatch, verify_family, grid):
    """The oracle queries of one call, as (adjacency, whether the query is
    a total), in the order they were made."""
    searches = []
    count = oracle._count

    def recording(g, labeled_sets=None, before=None, name="labeled vertex"):
        searches.append((g.adj, labeled_sets is None))
        return count(g, labeled_sets, before, name)

    monkeypatch.setattr(oracle, "_count", recording)
    verify_family(**grid)
    monkeypatch.undo()
    return searches


def _per_kind(searches):
    """How many totals and how many per-start queries searches holds."""
    totals = sum(total for _, total in searches)
    return totals, len(searches) - totals


def _first_encounters(adjacencies):
    """The distinct adjacencies in the order they first occur."""
    return list(dict.fromkeys(adjacencies))


def test_verify_searches_each_mirror_class_once_per_call(monkeypatch):
    grid = TWOCYCLES_GRID
    instances = [(a1, a2, a3) for a1 in range(2, grid["max_part"] + 1) for a2 in range(2, grid["max_part"] + 1)
                 for a3 in range(2, grid["max_part"] + 1) if a1 + a2 + a3 <= grid["max_total"]]
    classes = {(min(a1, a3), a2, max(a1, a3)) for a1, a2, a3 in instances}
    lemma = [c for c in classes if sum(c) <= grid["max_lemma_total"]]
    first = _searches(monkeypatch, verify.verify_twocycles, grid)
    # a class within max_lemma_total takes its total from its batch
    assert _per_kind(first) == (len(classes) - len(lemma), len(lemma))
    # each class is searched at its canonical member, a1 <= a3
    assert _first_encounters(adj for adj, _ in first) == _first_encounters(
        two_cycles(*i).adj for i in instances if i[0] <= i[2])
    # a second call searches again: no answer outlives the call
    assert _searches(monkeypatch, verify.verify_twocycles, grid) == first

    instances = [(m, n, k) for m in range(1, COMBS_GRID["max_mn"] // 2 + 1)
                 for n in range(2, COMBS_GRID["max_mn"] // m + 1) for k in range(1, n + 1)]
    classes = {(m, n, min(k, n - k + 1)) for m, n, k in instances}
    first = _searches(monkeypatch, verify.verify_combs, COMBS_GRID)
    assert _per_kind(first) == (len(classes), len(classes))
    # k <= n - k + 1; a single tooth (m = 1) is the same path for every k
    assert _first_encounters(adj for adj, _ in first) == _first_encounters(
        comb(*i).adj for i in instances if i[2] <= i[1] - i[2] + 1)
    assert _searches(monkeypatch, verify.verify_combs, COMBS_GRID) == first


def test_verify_searches_each_torus_and_tree_once_per_call(monkeypatch):
    # a torus with n >= 2 takes its total from its per-start batch, and
    # only n = 1, which has no batch, runs a total
    grid = {"max_n": 3, "max_oracle_n": 6}
    first = _searches(monkeypatch, verify.verify_torus, grid)
    assert first == [(torus(1).adj, True)] + [(torus(n).adj, False) for n in range(2, 7)]
    assert _searches(monkeypatch, verify.verify_torus, grid) == first

    # a perfect tree takes its total from its per-start batch; each
    # bereaved parent keeps its own query, also where its perfect tree is
    # past max_vertices, as (h, m) = (3, 2) is
    grid = {"max_h": 3, "max_m": 3, "max_vertices": 13}
    expected = []
    for m in range(2, 4):
        for h in range(4):
            n = (m ** (h + 1) - 1) // (m - 1)
            if n <= 13:
                expected.append((perfect_tree(h, m).adj, False))
            expected += [(tree_minus_child(h, m, k).adj, False)
                         for k in range(h) if n - (m ** (h - k) - 1) // (m - 1) <= 13]
    first = _searches(monkeypatch, verify.verify_trees, grid)
    assert first == expected
    assert _searches(monkeypatch, verify.verify_trees, grid) == first


def test_each_closed_form_is_evaluated_once_per_argument(monkeypatch):
    def arguments(verify_family, grid, functions):
        calls = Counter()
        for module, name in functions:
            def recording(*args, _function=getattr(module, name), _name=name):
                calls[_name, args] += 1
                return _function(*args)
            monkeypatch.setattr(module, name, recording)
        # two calls under one recorder: a cache that outlives a call
        # would skip the second call's evaluations
        verify_family(**grid)
        verify_family(**grid)
        monkeypatch.undo()
        return calls

    grid = TWOCYCLES_GRID
    instances = [(a1, a2, a3) for a1 in range(2, grid["max_part"] + 1) for a2 in range(2, grid["max_part"] + 1)
                 for a3 in range(2, grid["max_part"] + 1) if a1 + a2 + a3 <= grid["max_total"]]
    expected = Counter(("count_two_cycles", i) for i in instances)
    expected += Counter(("term_C", (*i, s)) for i in instances if sum(i) <= grid["max_lemma_total"]
                        for s in range(1, i[0] + 1))
    calls = arguments(verify.verify_twocycles, grid,
                      [(twocycles, "count_two_cycles"), (twocycles, "term_C")])
    assert calls == expected + expected

    instances = [(m, n, k) for m in range(1, COMBS_GRID["max_mn"] // 2 + 1)
                 for n in range(2, COMBS_GRID["max_mn"] // m + 1) for k in range(1, n + 1)]
    # corollary_comb(2) and corollary_double_comb(2) evaluate count_comb
    # at (2, 2, 1) and (2, 3, 2) inside their own checks
    expected = Counter(("count_comb", i) for i in instances) + Counter(
        {("count_comb", (2, 2, 1)): 1, ("count_comb", (2, 3, 2)): 1})
    assert arguments(verify.verify_combs, COMBS_GRID, [(combs, "count_comb")]) == expected + expected
