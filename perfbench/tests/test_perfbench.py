"""Tests of the benchmark itself: seeded inputs, exact counts, span nesting.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import pytest  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from walklabel import cli, graphs, oracle, trees  # noqa: E402


def _job(workload: str, seed: int) -> dict:
    return workloads.make_job(workload, seed, graphs)


def _small_jobs(seed: int) -> list[dict]:
    """Cheap slices of two workloads: the tree's oracle ops, and the
    smallest verify grid (which runs per-start and constrained queries)."""
    sparse = _job("dp-sparse", seed)
    tree = next(i for i, g in enumerate(sparse["graphs"]) if g["family"] == "tree")
    sparse["ops"] = [op for op in sparse["ops"] if op["graph"] == tree]
    verify = _job("verify", seed)
    verify["ops"] = [op for op in verify["ops"] if op["grid"] == list(workloads.VERIFY_GRIDS[0])]
    return [sparse, verify]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops_other_seed_other_ops(workload):
    assert _job(workload, 7) == _job(workload, 7)
    if workload != "verify":  # fixed grids, see workloads.VERIFY_GRIDS
        assert _job(workload, 7) != _job(workload, 8)


def test_same_seed_same_computed_counts():
    counts = []
    for _ in range(2):
        row = {}
        for job in _small_jobs(3):
            p = run.run_pass(job, True, time.monotonic())
            layers = run._pass_layers(p, job["ops"])
            for name in ("oracle.dp_subsets", "oracle.connected_states", "verify.checks", "oracle.calls"):
                row[name] = row.get(name, 0) + layers[name][0]
        counts.append(row)
    assert counts[0] == counts[1]
    assert counts[0]["oracle.dp_subsets"] > counts[0]["oracle.connected_states"] > 0
    assert counts[0]["verify.checks"] == reference.verify_check_count(*workloads.VERIFY_GRIDS[0])


def test_spans_nest_inside_their_parents():
    for job in _small_jobs(5):
        spans = run.run_pass(job, True, time.monotonic())["spans"]
        own = tracing.self_times(spans)
        for span, self_s in zip(spans, own):
            assert self_s >= -1e-9, span
            if span[tracing.PARENT] >= 0:
                parent = spans[span[tracing.PARENT]]
                assert parent[tracing.FIRST] <= span[tracing.FIRST] <= span[tracing.LAST] <= parent[tracing.LAST]
                assert span[tracing.TOTAL] <= parent[tracing.TOTAL]
                assert span[tracing.LAYER] != parent[tracing.LAYER]


def test_wrappers_reach_from_imported_names():
    verify = _job("verify", 1)
    verify["ops"] = verify["ops"][:1]
    count = {"graphs": [], "ops": [{"kind": "cli", "argv": ["count", "torus", "--n", "12"]}]}
    named = {}  # span name -> names of its parent spans
    for group in (run.run_pass(verify, True, time.monotonic())["spans"],
                  run.run_pass(count, True, time.monotonic())["spans"]):
        for s in group:
            if s[tracing.PARENT] >= 0:
                named.setdefault(s[tracing.NAME], set()).add(group[s[tracing.PARENT]][tracing.NAME])
    # verify and cli bind these with `from ... import`
    assert "verify_twocycles" in named["two_cycles"]
    assert "run" in named["to_decimal"]
    # torus recursion stays inside the outermost torus span
    assert named["a_rec"] <= {"verify_torus"} and "count_torus" in named["factorial"]


def test_references_agree_with_walklabel():
    rng = random.Random(0)
    for n in (5, 7, 9):
        g = graphs.parse_edge_list(workloads.dense_edge_list(rng, n))
        assert reference.forward_count(list(g.masks), n)[0] == oracle.count_labelings(g)
        assert reference.forward_count(list(g.masks), n, 1 << 2)[0] == oracle.count_labelings_from(g, 2)
        assert reference.forward_count(list(g.masks), n, 1 << 1, 0, 3)[0] == oracle.count_labelings_from_before(g, 1, 0, 3)
    assert reference.tree_total(reference.perfect_tree_adj(3, 3)) == trees.count_perfect_tree(3, 3)
    assert f"{reference.torus_total(9)}\n" == cli.run(["count", "torus", "--n", "9"]).stdout
