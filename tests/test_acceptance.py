"""Acceptance gate: one test per published guarantee, one summary line each.

Every criterion asserts (a red test means the guarantee is broken) and
registers a PASS/FAIL line printed in the terminal summary. The tracked
artifacts in artifacts/ (b-files, the numerator diff, the corollary
comparison) are compared with the text the criteria compute, never
written, so a run leaves the tree untouched and a drifted artifact fails.
"""

import json
import pathlib
import random
import time

from conftest import random_connected_graph, record_acceptance

from walklabel import combs, oracle, series, trees, twocycles, verify
from walklabel.cli import run
from walklabel.graphs import (
    comb,
    cycle,
    path,
    perfect_tree,
    torus as torus_graph,
    two_cycles,
)

ARTIFACTS = pathlib.Path(__file__).resolve().parent.parent / "artifacts"

# the six published binary-tree totals, h = 0..5
TREE_VALUES = [
    1,
    4,
    240,
    82368000,
    315717859104620544000000,
    11684127387646867268494413939618462518646164707029811200000000000,
]

# the published expansion of F(x, y, z): every term of total degree <= 11,
# keyed by (a1, a2, a3)
PRINTED_F_TERMS = {
    (2, 2, 2): 208,
    (2, 2, 3): 672, (2, 3, 2): 752, (3, 2, 2): 672,
    (2, 2, 4): 2048, (2, 3, 3): 2336, (2, 4, 2): 2544,
    (3, 2, 3): 2496, (3, 3, 2): 2336, (4, 2, 2): 2048,
    (2, 2, 5): 5952, (2, 3, 4): 6848, (2, 4, 3): 8048, (2, 5, 2): 8048,
    (3, 2, 4): 8640, (3, 3, 3): 8064, (3, 4, 2): 8048,
    (4, 2, 3): 8640, (4, 3, 2): 6848, (5, 2, 2): 5952,
    (2, 2, 6): 16640, (2, 3, 5): 19200, (2, 4, 4): 24048,
    (2, 5, 3): 26720, (2, 6, 2): 24048,
    (3, 2, 5): 28160, (3, 3, 4): 26368, (3, 4, 3): 26720, (3, 5, 2): 26720,
    (4, 2, 4): 33536, (4, 3, 3): 26368, (4, 4, 2): 24048,
    (5, 2, 3): 28160, (5, 3, 2): 19200, (6, 2, 2): 16640,
    (2, 2, 7): 45056, (2, 3, 6): 51968, (2, 4, 5): 68592,
    (2, 5, 4): 84816, (2, 6, 3): 84816, (2, 7, 2): 68592,
    (3, 2, 6): 87296, (3, 3, 5): 82176, (3, 4, 4): 84816,
    (3, 5, 3): 87840, (3, 6, 2): 84816,
    (4, 2, 5): 121088, (4, 3, 4): 96512, (4, 4, 3): 84816, (4, 5, 2): 84816,
    (5, 2, 4): 121088, (5, 3, 3): 82176, (5, 4, 2): 68592,
    (6, 2, 3): 87296, (6, 3, 2): 51968, (7, 2, 2): 45056,
}


def _matches_artifact(name, text):
    return (ARTIFACTS / name).read_text() == text


def _tree_instances_up_to(vertex_limit):
    for m in range(2, vertex_limit):
        h = 0
        while (m ** (h + 1) - 1) // (m - 1) <= vertex_limit:
            yield h, m
            h += 1


def test_acceptance_1_tree_reference_values():
    trees._t0_table.cache_clear()
    trees.s_rec.cache_clear()
    trees.t_rec.cache_clear()
    started = time.perf_counter()
    values = [trees.count_perfect_tree(h, 2) for h in range(6)]
    elapsed = time.perf_counter() - started
    ok = values == TREE_VALUES and len(str(values[5])) == 65 and elapsed < 5.0
    assert record_acceptance(1, ok, f"six values in {elapsed:.2f}s")


def test_acceptance_2_tree_dual_path_and_oracle():
    report = verify.report(verify.verify_trees(max_h=4, max_m=4, max_vertices=22))
    extra_ok = True
    for h, m in _tree_instances_up_to(22):
        if m <= 4 and h <= 4:
            continue  # already inside the harness grid
        g = perfect_tree(h, m)
        extra_ok = extra_ok and (
            trees.count_perfect_tree(h, m) == oracle.count_labelings(g)
        )
    ok = report["ok"] and extra_ok
    assert record_acceptance(2, ok, f"{report['total']} grid checks plus wide-star sweep")


def test_acceptance_3_combs():
    report = verify.report(verify.verify_combs(max_mn=20))
    single = combs.corollary_comb(2)
    double = combs.corollary_double_comb(2)
    comparison = {
        "single_comb_m2": {
            "compact_product": single.value,
            "closed_form": single.closed_form,
            "agrees": single.agrees,
        },
        "double_comb_m2": {
            "compact_product": double.value,
            "closed_form": double.closed_form,
            "agrees": double.agrees,
        },
    }
    artifact_ok = _matches_artifact("corollary_comparison.json", json.dumps(comparison, indent=2) + "\n")
    discrepancy_recorded = (single.value, single.closed_form, single.agrees) == (4, 8, False)
    agreement_shown = double.agrees and double.value == 112
    theorem_confirmed = single.closed_form == oracle.count_labelings(comb(2, 2, 1))
    ok = report["ok"] and discrepancy_recorded and agreement_shown and theorem_confirmed and artifact_ok
    assert record_acceptance(
        3, ok, f"{report['total']} checks; corollary discrepancy 4 vs 8 recorded"
    )


def test_acceptance_4_torus():
    started = time.perf_counter()
    report = verify.report(verify.verify_torus(max_n=12, max_oracle_n=9))
    elapsed = time.perf_counter() - started
    ok = report["ok"] and elapsed < 120.0
    assert record_acceptance(4, ok, f"{report['total']} checks in {elapsed:.1f}s")


def test_acceptance_5_twocycles():
    report = verify.report(
        verify.verify_twocycles(max_total=20, max_part=16, max_lemma_total=12)
    )
    ok = report["ok"]
    assert record_acceptance(5, ok, f"{report['total']} checks, totals up to a1+a2+a3 = 20")


def test_acceptance_6_generating_function():
    expansion = series.expand_rational(series.two_cycles_gf(), 12)
    printed_match = {e: c for e, c in expansion.items() if sum(e) <= 11} == PRINTED_F_TERMS
    counts_match = all(
        expansion.get((a1, a2, a3)) == twocycles.count_two_cycles(a1, a2, a3)
        for a1 in range(2, 9)
        for a2 in range(2, 9)
        for a3 in range(2, 9)
        if a1 + a2 + a3 <= 12
    )
    # recovery raises if any term above the numerator degree survives
    try:
        diff = series.transcription_diff()
        recovery_ok = True
    except ValueError:
        diff, recovery_ok = None, False
    artifact_ok = recovery_ok and _matches_artifact(
        "numerator_transcription_diff.json",
        json.dumps({f"{e}": list(v) for e, v in sorted(diff.items())}, indent=2) + "\n",
    )
    ok = printed_match and counts_match and recovery_ok and diff == {} and artifact_ok
    assert record_acceptance(
        6, ok, f"56 printed terms match; transcription diff has {len(diff or {})} entries"
    )


def test_acceptance_7_oracle_self_consistency():
    rng = random.Random(56972)
    random_ok = True
    complementarity_ok = True
    per_start_ok = True
    for _ in range(200):
        g = random_connected_graph(rng, rng.randrange(2, 9))
        total = oracle.count_labelings(g)
        random_ok = random_ok and total == oracle.count_labelings_perm(g)
        per_start_ok = per_start_ok and total == sum(
            oracle.count_labelings_from(g, v) for v in range(g.n)
        )
        if g.n >= 3:
            start = rng.randrange(g.n)
            u, v = rng.sample([w for w in range(g.n) if w != start], 2)
            complementarity_ok = complementarity_ok and (
                oracle.count_labelings_from_before(g, start, u, v)
                + oracle.count_labelings_from_before(g, start, v, u)
                == oracle.count_labelings_from(g, start)
            )
    family_instances = [perfect_tree(h, m) for h, m in _tree_instances_up_to(8)]
    family_instances += [
        comb(m, n, k)
        for m in range(1, 5)
        for n in range(2, 9)
        for k in range(1, n + 1)
        if m * n <= 8
    ]
    family_instances += [torus_graph(n) for n in range(1, 5)]
    family_instances += [
        two_cycles(a1, a2, a3)
        for a1 in range(2, 5)
        for a2 in range(2, 5)
        for a3 in range(2, 5)
        if a1 + a2 + a3 <= 8
    ]
    family_instances += [path(n) for n in range(1, 9)]
    family_instances += [cycle(n) for n in range(3, 9)]
    family_ok = all(
        oracle.count_labelings(g) == oracle.count_labelings_perm(g)
        for g in family_instances
    )
    ok = random_ok and per_start_ok and complementarity_ok and family_ok
    assert record_acceptance(
        7, ok, f"200 random graphs plus {len(family_instances)} family instances"
    )


def test_acceptance_8_oeis_exports():
    tree_bfile = run(["oeis", "tree-root", "--count", "8"])
    comb_bfile = run(["oeis", "comb-row", "--count", "8"])
    artifact_ok = (
        _matches_artifact("b056972_candidate.txt", tree_bfile.stdout)
        and _matches_artifact("b151817_candidate.txt", comb_bfile.stdout)
    )
    format_ok = (
        tree_bfile.exit_code == 0
        and comb_bfile.exit_code == 0
        and all(
            len(line.split()) == 2 and line.split()[0] == str(i + 1)
            for i, line in enumerate(tree_bfile.stdout.splitlines())
        )
        and len(tree_bfile.stdout.splitlines()) == 8
        and len(comb_bfile.stdout.splitlines()) == 8
    )
    head_ok = (
        tree_bfile.stdout.startswith("1 1\n2 2\n3 80\n4 21964800\n")
        and comb_bfile.stdout.startswith("1 2\n2 8\n3 72\n4 960\n")
    )
    # the sequences restate dual-path-verified quantities: re-check the
    # exported prefixes against a second derivation and the oracle
    dual_ok = all(
        trees.t_rec(h, 2, 0) == trees.t_closed(h, 2, 0) for h in range(8)
    ) and all(
        combs.count_comb(m, 2, 1)
        == sum(
            combs.count_from_vertex(m, 2, 1, j, s)
            for j in range(1, m + 1)
            for s in (1, 2)
        )
        for m in range(1, 9)
    )
    oracle_ok = all(
        combs.count_comb(m, 2, 1) == oracle.count_labelings(comb(m, 2, 1))
        for m in range(1, 5)
    )
    ok = format_ok and head_ok and dual_ok and oracle_ok and artifact_ok
    assert record_acceptance(8, ok, "b-files match artifacts/; prefixes re-verified internally")
