"""Seeded op lists for the benchmark's workloads.

A job is plain JSON: the graphs a worker builds during set-up, then the ops
it times. Each op is one call of a public walklabel function:

  {"kind": "total" | "from" | "completions", "graph": i, ...}  oracle calls
  {"kind": "cli", "argv": [...]}                                cli.run

Costs must not depend on the seed, or runs with different seeds would not
be comparable: the seed picks shapes, starts, labeled sets, edges and the
op order, while vertex counts and grid sizes stay fixed. Each op list has
10 or 20 ops, so the pooled 50th and 90th percentiles fall at the same
place between the same two ops whatever the number of passes.
"""

from __future__ import annotations

import random

WORKLOADS = ("dp-sparse", "dp-dense", "closed-forms", "verify")

# dp-sparse: one graph per family. The pure-Python subset DP costs about
# 0.7 s at 18 vertices and quadruples every two vertices, so the sizes stay
# at 15-18 to fit several passes in a run. The only perfect tree with 16-22
# vertices has 21 (4-ary, height 2); the binary tree of height 3 stands in.
SPARSE_TWOCYCLES_VERTICES = 17
SPARSE_TORUS_N = 8
SPARSE_COMB_SHAPES = ((2, 9), (3, 6), (6, 3), (9, 2))
SPARSE_TREE = (3, 2)

# dp-dense: connected graphs with half of all vertex pairs as edges. A fixed
# edge count keeps the kernel's cost from varying with the seed; the two
# largest sizes repeat so that the 90th percentile does not rest on one graph.
DENSE_SIZES = (14, 15, 15, 16, 16, 16, 17, 17, 18, 18)

# closed-forms: fixed size ladders, one interpreter per op. The torus ladder
# stops at n = 50: cold count_torus(60) and (70) take 1-2 s each, which left
# too few passes in a run for steady figures on a shared 2-core machine.
# torus n = 400 is a probe: it raises RecursionError today, so it runs every
# pass but stays out of the timed ops.
TORUS_LADDER = (20, 35, 50)
TWOCYCLES_LADDER = ((10, 10, 10), (20, 20, 20))
COMB_LADDER = ((50, 50), (80, 80))
TREE_LADDER = ((12, 2), (5, 5))
SERIES_DEGREE = 30
PROBES = (("count", "torus", "--n", "400"),)

# verify: ten `verify --family all` calls in one interpreter, on grids cut
# down from the CLI defaults (86 s with the pure-Python kernel on 2 cores). Later calls reuse
# the memo tables of earlier ones, so each call's cost depends on the order:
# the order is fixed and the seed changes nothing here. Columns: --max-h
# --max-m --max-vertices --max-mn --max-n --max-oracle-n --max-total
# --max-lemma-total.
VERIFY_FLAGS = ("--max-h", "--max-m", "--max-vertices", "--max-mn",
                "--max-n", "--max-oracle-n", "--max-total", "--max-lemma-total")
VERIFY_GRIDS = (
    (2, 2, 7, 6, 4, 4, 8, 8),
    (2, 3, 13, 7, 5, 4, 9, 8),
    (3, 2, 15, 8, 5, 5, 9, 9),
    (2, 4, 13, 8, 6, 5, 10, 9),
    (3, 3, 13, 9, 6, 5, 10, 10),
    (2, 2, 7, 9, 7, 6, 11, 9),
    (3, 2, 7, 10, 7, 6, 10, 10),
    (2, 3, 13, 10, 8, 6, 11, 10),
    (3, 2, 13, 8, 8, 6, 11, 11),
    (2, 2, 7, 10, 8, 6, 12, 10),
)


def make_job(workload: str, seed: int, graphs=None) -> dict:
    """The job for one pass. dp-sparse needs the walklabel.graphs module to
    pick starts and labeled sets on the graphs it names."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dp-sparse":
        return _dp_sparse(rng, graphs)
    if workload == "dp-dense":
        return _dp_dense(rng)
    if workload == "closed-forms":
        return _closed_forms(rng)
    if workload == "verify":
        return _verify()
    raise ValueError(f"unknown workload {workload!r}")


def build_graph(graphs, spec: dict):
    """The walklabel Graph a job's graph spec names."""
    if "edges" in spec:
        return graphs.parse_edge_list(spec["edges"])
    make = {"twocycles": graphs.two_cycles, "torus": graphs.torus,
            "comb": graphs.comb, "tree": graphs.perfect_tree}[spec["family"]]
    return make(*spec["params"])


def _dp_sparse(rng: random.Random, graphs) -> dict:
    total = SPARSE_TWOCYCLES_VERTICES
    a2 = rng.randint(3, total - 6)
    a1 = rng.randint(3, total - a2 - 3)
    m, n = rng.choice(SPARSE_COMB_SHAPES)
    specs = [
        {"family": "twocycles", "params": [a1, a2, total - a1 - a2]},
        {"family": "torus", "params": [SPARSE_TORUS_N]},
        {"family": "comb", "params": [m, n, rng.randint(1, n)]},
        {"family": "tree", "params": list(SPARSE_TREE)},
    ]
    rng.shuffle(specs)
    ops = []
    for i, spec in enumerate(specs):
        g = build_graph(graphs, spec)
        ops.append({"kind": "total", "graph": i})
        for start in rng.sample(range(g.n), 2):
            ops.append({"kind": "from", "graph": i, "start": start})
        for size in (2, 3):
            ops.append({"kind": "completions", "graph": i, "labeled": _connected_set(rng, g.adj, size)})
    return {"graphs": specs, "ops": ops}


def _connected_set(rng: random.Random, adj, size: int) -> list[int]:
    out = [rng.randrange(len(adj))]
    while len(out) < size:
        frontier = sorted({u for v in out for u in adj[v]} - set(out))
        out.append(rng.choice(frontier))
    return sorted(out)


def _dp_dense(rng: random.Random) -> dict:
    sizes = list(DENSE_SIZES)
    rng.shuffle(sizes)
    graphs = [{"edges": dense_edge_list(rng, n)} for n in sizes]
    return {"graphs": graphs, "ops": [{"kind": "total", "graph": i} for i in range(len(graphs))]}


def dense_edge_list(rng: random.Random, n: int) -> str:
    """Edge-list text of a connected random graph on n vertices with half
    of the n(n-1)/2 possible edges."""
    pairs = [(u, v) for v in range(n) for u in range(v)]
    while True:
        edges = sorted(rng.sample(pairs, len(pairs) // 2))
        reach = {0}
        grew = True
        while grew:
            grew = False
            for u, v in edges:
                if (u in reach) != (v in reach):
                    reach |= {u, v}
                    grew = True
        if len(reach) == n:
            return f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def _closed_forms(rng: random.Random) -> dict:
    argvs = [["count", "torus", "--n", str(n)] for n in TORUS_LADDER]
    for a1, a2, a3 in TWOCYCLES_LADDER:
        argvs.append(["count", "twocycles", "--a1", str(a1), "--a2", str(a2), "--a3", str(a3)])
    for m, n in COMB_LADDER:
        argvs.append(["count", "comb", "--m", str(m), "--n", str(n), "--k", str(rng.randint(1, n))])
    for h, m in TREE_LADDER:
        argvs.append(["count", "tree", "--h", str(h), "--m", str(m)])
    argvs.append(["series", "--degree", str(SERIES_DEGREE)])
    rng.shuffle(argvs)
    return {
        "graphs": [],
        "ops": [{"kind": "cli", "argv": a} for a in argvs],
        "probes": [{"kind": "cli", "argv": list(p)} for p in PROBES],
        "series_sample": rng.randrange(1 << 30),
    }


def _verify() -> dict:
    ops = []
    for grid in VERIFY_GRIDS:
        argv = ["--quiet", "verify", "--family", "all"]
        for flag, value in zip(VERIFY_FLAGS, grid):
            argv += [flag, str(value)]
        ops.append({"kind": "cli", "argv": argv, "grid": list(grid)})
    return {"graphs": [], "ops": ops}
