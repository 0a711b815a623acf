"""Time the oracle on 24-vertex graphs, one fresh interpreter per graph.

    python scripts/sweep24.py [--out PATH] [--repeat N] [NAME ...]

The graphs are seeded random connected graphs of average degree d = 3, 4,
5, 6, 8 and 12 (a random spanning tree plus random edges up to 12d
edges), torus(12), the 4x6 grid, the star K1,23, a hub joined to every
vertex of K1,21 and to one more vertex, the comb(4, 6, 3), a seeded
random tree (each vertex joined to a random earlier one), the 24-cycle
with the chords 0-12 and 6-18, the theta graph of four paths between two
poles, the 2x12 ladder and the star K1,22 with three chords between
leaves and a vertex hung off a leaf (n + 2 edges); the star, the comb
and the random tree are trees. For each graph the script prints
one JSON line: the engine oracle.engine picks, the seconds
oracle.count_labelings takes, the child's peak RSS (ru_maxrss) in MB, and
the count or the error; then the seconds oracle.count_completions_each
takes over every start, and whether that batch sums to the count or the
batch's error. Graphs run one after another, so at most one count holds
memory at a time. --out PATH also writes one JSON file: the environment
(as scripts/ladder.py records it) and the records of every graph.
--repeat N runs each graph in N fresh interpreters, as scripts/ladder.py
does, and records the median of seconds and of batch_seconds.
"""

from __future__ import annotations

import random
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ladder import main  # noqa: E402
from walklabel import oracle  # noqa: E402
from walklabel.graphs import Graph, comb, perfect_tree, torus  # noqa: E402

N = 24
DEGREES = (3, 4, 5, 6, 8, 12)


def random_graph(d: int) -> Graph:
    rng = random.Random(d)
    edges = {(rng.randrange(v), v) for v in range(1, N)}
    rest = [(u, v) for v in range(N) for u in range(v) if (u, v) not in edges]
    edges.update(rng.sample(rest, N * d // 2 - len(edges)))
    return Graph(N, sorted(edges))


def random_tree() -> Graph:
    rng = random.Random(N)
    return Graph(N, [(rng.randrange(v), v) for v in range(1, N)])


def theta(paths: int) -> Graph:
    """The poles 0 and 1 joined by internally disjoint paths that share
    the other vertices out as evenly as they can."""
    edges = []
    for i in range(paths):
        inner = list(range(2 + i, N, paths))
        edges += zip([0, *inner], [*inner, 1])
    return Graph(N, edges)


def grid(rows: int, cols: int) -> Graph:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, edges)


GRAPHS = {
    **{f"random-d{d}": (lambda d=d: random_graph(d)) for d in DEGREES},
    "torus12": lambda: torus(12),
    "grid4x6": lambda: grid(4, 6),
    "star23": lambda: perfect_tree(1, 23),
    # vertex 0 is the hub, 1 the star's center, 2-22 its leaves
    "hub21": lambda: Graph(N, [(0, v) for v in range(1, N)] + [(1, v) for v in range(2, N - 1)]),
    "comb4x6": lambda: comb(4, 6, 3),
    "random-tree": random_tree,
    "cycle-chords": lambda: Graph(N, [(v, (v + 1) % N) for v in range(N)] + [(0, 12), (6, 18)]),
    "theta4": lambda: theta(4),
    "ladder2x12": lambda: grid(2, 12),
    # the star K1,22 with three chords between leaves and one more vertex
    # hung off a leaf: n + 2 edges, and a layer of C(21, 10) connected sets
    "star-chords": lambda: Graph(N, [(0, v) for v in range(1, N - 1)] + [(1, 2), (3, 4), (5, 6), (N - 2, N - 1)]),
}


def count_one(name: str) -> dict:
    g = GRAPHS[name]()
    record = {"graph": name, "edges": g.edge_count(), "engine": oracle.engine(g)}
    started = time.perf_counter()
    try:
        record["count"] = str(oracle.count_labelings(g))
    except (ValueError, MemoryError) as exc:
        record["error"] = str(exc) or type(exc).__name__
    record["seconds"] = round(time.perf_counter() - started, 3)
    record["maxrss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    started = time.perf_counter()
    try:
        each = oracle.count_completions_each(g, [[v] for v in range(g.n)])
    except (ValueError, MemoryError) as exc:
        record["batch_error"] = str(exc) or type(exc).__name__
    else:
        record["batch_sum_equals_count"] = str(sum(each)) == record.get("count")
    record["batch_seconds"] = round(time.perf_counter() - started, 3)
    return record


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], GRAPHS, count_one, "graph"))
