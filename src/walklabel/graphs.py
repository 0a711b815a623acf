"""Concrete graph construction for every family the counting modules handle.

Vertices are 0-based ints internally. Each family builder also attaches
1-based coordinate labels matching the conventions of the closed-form
modules (depth/position for trees, tooth/position for combs, row/column for
tori and two-cycle graphs), so tests can address "the" vertex a formula
talks about without knowing the numbering. Each builder checks its own
parameters and raises ValueError("invalid family parameters: ...") on a
bad one. Graphs are immutable after construction by convention; nothing
mutates them in this package.
"""

from __future__ import annotations

from collections import deque

__all__ = [
    "Graph",
    "comb",
    "cycle",
    "is_connected",
    "parse_edge_list",
    "path",
    "perfect_tree",
    "torus",
    "tree_minus_child",
    "two_cycles",
    "vertex_at",
]


class Graph:
    """Undirected simple graph: n vertices, sorted adjacency, coordinates.

    adj[v] is the sorted tuple of neighbors, masks[v] the same set as a
    bitmask (bit u set iff u adjacent to v). coords maps vertex index to a
    family coordinate label; extra lookup aliases (like "root") resolve via
    vertex_at but have no coords entry.
    """

    __slots__ = ("n", "adj", "masks", "coords", "_lookup")

    def __init__(self, n, edges, coords=None, aliases=None):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        neighbor_sets = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                continue
            seen.add(key)
            neighbor_sets[u].add(v)
            neighbor_sets[v].add(u)
        self.n = n
        self.adj = tuple(tuple(sorted(s)) for s in neighbor_sets)
        masks = []
        for s in neighbor_sets:
            m = 0
            for u in s:
                m |= 1 << u
            masks.append(m)
        self.masks = tuple(masks)
        self.coords = dict(coords) if coords else {}
        lookup = {label: v for v, label in self.coords.items()}
        if aliases:
            lookup.update(aliases)
        self._lookup = lookup

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count()})"


def vertex_at(g: Graph, coordinate) -> int:
    """Resolve a coordinate label (or alias) to its vertex index."""
    try:
        return g._lookup[coordinate]
    except KeyError:
        raise ValueError(f"unknown coordinate: {coordinate!r}") from None


def is_connected(g: Graph) -> bool:
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for u in g.adj[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == g.n


def perfect_tree(h: int, m: int) -> Graph:
    """Rooted tree of height h where every internal vertex has m children."""
    if h < 0 or m < 2:
        raise ValueError("invalid family parameters: PerfectTree needs h >= 0, m >= 2")
    # BFS numbering: depth d occupies a contiguous block of m^d indices
    offsets = [0]
    for d in range(h + 1):
        offsets.append(offsets[-1] + m**d)
    n = offsets[-1]
    edges = []
    coords = {}
    for d in range(h + 1):
        for j in range(m**d):
            v = offsets[d] + j
            coords[v] = (d, j)
            if d > 0:
                edges.append((offsets[d - 1] + j // m, v))
    return Graph(n, edges, coords, {"root": 0})


def tree_minus_child(h: int, m: int, k: int) -> Graph:
    """Perfect tree with one depth-(k+1) subtree removed.

    The surviving parent at depth k is addressable via the "bereaved" alias.
    """
    if h < 1 or m < 2 or not 0 <= k <= h - 1:
        raise ValueError("invalid family parameters: TreeMinusChild needs h >= 1, m >= 2, 0 <= k <= h-1")
    # drop the last child of the last depth-k vertex, i.e. the subtree rooted
    # at the last vertex of depth k+1; survivors at depth d > k are the first
    # m^d - m^(d-k-1) of that depth
    survivors_at = [m**d if d <= k else m**d - m ** (d - k - 1) for d in range(h + 1)]
    new_index = {}
    coords = {}
    nxt = 0
    for d in range(h + 1):
        for j in range(survivors_at[d]):
            new_index[(d, j)] = nxt
            coords[nxt] = (d, j)
            nxt += 1
    edges = []
    for d in range(1, h + 1):
        for j in range(survivors_at[d]):
            edges.append((new_index[(d - 1, j // m)], new_index[(d, j)]))
    bereaved = new_index[(k, m**k - 1)]
    return Graph(nxt, edges, coords, {"root": 0, "bereaved": bereaved})


def comb(m: int, n: int, k: int) -> Graph:
    """m teeth of n vertices each, adjacent teeth joined at position k."""
    if m < 1 or n < 2 or not 1 <= k <= n:
        raise ValueError("invalid family parameters: Comb needs m >= 1, n >= 2, 1 <= k <= n")
    def idx(i, j):  # 1-based tooth i, position j
        return (i - 1) * n + (j - 1)
    edges = []
    coords = {}
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            coords[idx(i, j)] = (i, j)
            if j < n:
                edges.append((idx(i, j), idx(i, j + 1)))
        if i < m:
            edges.append((idx(i, k), idx(i + 1, k)))
    return Graph(m * n, edges, coords)


def torus(n: int) -> Graph:
    """Two n-cycles joined by a perfect matching, as a simple graph.

    n = 2 collapses the doubled row edges to a 4-cycle; n = 1 collapses to a
    single edge.
    """
    if n < 1:
        raise ValueError("invalid family parameters: Torus needs n >= 1")
    def idx(r, c):  # 1-based row r in {1, 2}, column c
        return (r - 1) * n + (c - 1)
    edges = set()
    coords = {}
    for r in (1, 2):
        for c in range(1, n + 1):
            coords[idx(r, c)] = (r, c)
            nxt = c % n + 1
            if nxt != c:
                edges.add((idx(r, c), idx(r, nxt)))
    for c in range(1, n + 1):
        edges.add((idx(1, c), idx(2, c)))
    return Graph(2 * n, sorted(edges), coords)


def two_cycles(a1: int, a2: int, a3: int) -> Graph:
    """Three internally disjoint paths of a1, a2, a3 vertices sharing two
    junction columns; rows 1 and 3 attach to the ends of row 2."""
    if min(a1, a2, a3) < 2:
        raise ValueError("invalid family parameters: TwoCycles needs a1, a2, a3 >= 2")
    starts = {1: 0, 2: a1, 3: a1 + a2}
    lengths = {1: a1, 2: a2, 3: a3}
    def idx(row, pos):  # 1-based position along the row
        return starts[row] + pos - 1
    edges = []
    coords = {}
    for row in (1, 2, 3):
        for pos in range(1, lengths[row] + 1):
            coords[idx(row, pos)] = (row, pos)
            if pos < lengths[row]:
                edges.append((idx(row, pos), idx(row, pos + 1)))
    # junction columns: rows 1 and 3 hang off both ends of the middle row
    edges += [
        (idx(1, 1), idx(2, 1)),
        (idx(3, 1), idx(2, 1)),
        (idx(1, a1), idx(2, a2)),
        (idx(3, a3), idx(2, a2)),
    ]
    return Graph(
        a1 + a2 + a3,
        edges,
        coords,
        {"left_junction": idx(2, 1), "right_junction": idx(2, a2)},
    )


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("invalid family parameters: Path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)], {i: i + 1 for i in range(n)})


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("invalid family parameters: Cycle needs n >= 3")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph(n, edges, {i: i + 1 for i in range(n)})


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    First data line is the vertex count; every following line is one edge
    "u v" with 0-based endpoints. Lines whose first non-blank character is
    '#' are comments. The parsed graph must be connected because every
    consumer here counts walk labelings, which only exist on connected
    graphs.
    """
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise ValueError(f"line {lineno}: expected the vertex count, got {raw!r}")
            try:
                n = int(fields[0])
            except ValueError:
                raise ValueError(f"line {lineno}: vertex count is not an integer") from None
            if n < 1:
                raise ValueError(f"line {lineno}: vertex count must be positive")
            continue
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"line {lineno}: edge endpoints must be integers") from None
        if u == v:
            raise ValueError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {lineno}: edge ({u}, {v}) out of range for n={n}")
        edges.append((u, v))
    if n is None:
        raise ValueError("empty edge list: no vertex count found")
    g = Graph(n, edges)
    if not is_connected(g):
        raise ValueError("graph not connected")
    return g
