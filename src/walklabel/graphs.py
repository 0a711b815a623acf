"""Concrete graph construction for every family the counting modules handle.

Vertices are 0-based ints internally. Each family builder declares its
vertices by 1-based coordinate labels matching the conventions of the
closed-form modules (depth/position for trees, tooth/position for combs,
row/column for tori and two-cycle graphs), and its edges and aliases by
those labels, so tests can address "the" vertex a formula talks about
without knowing the numbering. One rule numbers every family: the builder
lists its labels in index order, and vertex v is the v-th label. Each
builder checks its own parameters and raises
ValueError("invalid family parameters: ...") on a bad one. Graphs are
immutable after construction by convention; nothing mutates them in this
package.
"""

from __future__ import annotations

import re

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

    Built from masks: masks[v] has bit u set iff u is adjacent to v, and
    adj[v], derived from masks on each read, lists those bits in order.
    coords maps vertex index to a family coordinate label; aliases (like
    "root") resolve via vertex_at but have no coords entry.
    Connectivity is decided by one search when the graph is built, and
    is_connected(g) reads that answer instead of searching.
    """

    __slots__ = ("n", "masks", "coords", "_lookup", "_connected")

    def __init__(self, n, edges, coords=None, aliases=None):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self.masks = tuple(masks)
        self.coords = dict(coords) if coords else {}
        lookup = {label: v for v, label in self.coords.items()}
        if aliases:
            lookup.update(aliases)
        self._lookup = lookup
        self._connected = is_connected(self, (1 << n) - 1)

    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        adj = []
        for m in self.masks:
            row = []
            while m:
                row.append((low := m & -m).bit_length() - 1)
                m ^= low
            adj.append(tuple(row))
        return tuple(adj)

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.masks) // 2

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count()})"


def vertex_at(g: Graph, coordinate) -> int:
    """Resolve a coordinate label (or alias) to its vertex index."""
    try:
        return g._lookup[coordinate]
    except KeyError:
        raise ValueError(f"unknown coordinate: {coordinate!r}") from None


def is_connected(g: Graph, within: int | None = None) -> bool:
    """Whether g is connected, as decided when g was built; with within, a
    vertex bitmask, whether the vertices of within induce a connected
    subgraph (an empty set does not), by one search of its masks."""
    if within is None:
        return g._connected
    masks = g.masks
    seen = frontier = within & -within
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grow |= masks[low.bit_length() - 1]
        frontier = grow & within & ~seen
        seen |= frontier
    return seen == within and within != 0


def _numbered(labels, edges, aliases=None) -> Graph:
    """The graph whose vertex v is named labels[v], the one numbering rule
    of every family builder; edges and aliases name vertices by label."""
    index = {label: v for v, label in enumerate(labels)}
    return Graph(
        len(labels),
        [(index[a], index[b]) for a, b in edges],
        dict(enumerate(labels)),
        {name: index[label] for name, label in (aliases or {}).items()},
    )


def _tree(h: int, m: int, k: int, aliases) -> Graph:
    """Perfect tree of height h and arity m without the subtree of the last
    vertex of depth k + 1, which holds the last m^(d-k-1) vertices of each
    depth d > k; k = h drops nothing. Vertex (d, j) is the j-th of depth d."""
    labels = [(d, j) for d in range(h + 1) for j in range(m**d - (m ** (d - k - 1) if d > k else 0))]
    return _numbered(labels, [((d - 1, j // m), (d, j)) for d, j in labels if d], aliases)


def perfect_tree(h: int, m: int) -> Graph:
    """Rooted tree of height h where every internal vertex has m children."""
    if h < 0 or m < 2:
        raise ValueError("invalid family parameters: PerfectTree needs h >= 0, m >= 2")
    return _tree(h, m, h, {"root": (0, 0)})


def tree_minus_child(h: int, m: int, k: int) -> Graph:
    """Perfect tree with one depth-(k+1) subtree removed: the last child of
    the last vertex of depth k, which the "bereaved" alias names."""
    if h < 1 or m < 2 or not 0 <= k <= h - 1:
        raise ValueError("invalid family parameters: TreeMinusChild needs h >= 1, m >= 2, 0 <= k <= h-1")
    return _tree(h, m, k, {"root": (0, 0), "bereaved": (k, m**k - 1)})


def comb(m: int, n: int, k: int) -> Graph:
    """m teeth of n vertices each, adjacent teeth joined at position k."""
    if m < 1 or n < 2 or not 1 <= k <= n:
        raise ValueError("invalid family parameters: Comb needs m >= 1, n >= 2, 1 <= k <= n")
    labels = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    edges = [((i, j), (i, j + 1)) for i, j in labels if j < n]
    edges += [((i, k), (i + 1, k)) for i in range(1, m)]
    return _numbered(labels, edges)


def torus(n: int) -> Graph:
    """Two n-cycles joined by a perfect matching, as a simple graph.

    n = 2 collapses the doubled row edges to a 4-cycle; n = 1 collapses to a
    single edge.
    """
    if n < 1:
        raise ValueError("invalid family parameters: Torus needs n >= 1")
    labels = [(r, c) for r in (1, 2) for c in range(1, n + 1)]
    edges = [((r, c), (r, c % n + 1)) for r, c in labels if n > 1]
    edges += [((1, c), (2, c)) for c in range(1, n + 1)]
    return _numbered(labels, edges)


def two_cycles(a1: int, a2: int, a3: int) -> Graph:
    """Three internally disjoint paths of a1, a2, a3 vertices sharing two
    junction columns; rows 1 and 3 attach to the ends of row 2."""
    if min(a1, a2, a3) < 2:
        raise ValueError("invalid family parameters: TwoCycles needs a1, a2, a3 >= 2")
    lengths = {1: a1, 2: a2, 3: a3}
    labels = [(row, pos) for row in (1, 2, 3) for pos in range(1, lengths[row] + 1)]
    edges = [((row, pos), (row, pos + 1)) for row, pos in labels if pos < lengths[row]]
    # junction columns: rows 1 and 3 hang off both ends of the middle row
    edges += [((1, 1), (2, 1)), ((3, 1), (2, 1)), ((1, a1), (2, a2)), ((3, a3), (2, a2))]
    return _numbered(labels, edges, {"left_junction": (2, 1), "right_junction": (2, a2)})


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("invalid family parameters: Path needs n >= 1")
    return _numbered(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("invalid family parameters: Cycle needs n >= 3")
    return _numbered(range(1, n + 1), [(i, i % n + 1) for i in range(1, n + 1)])


def _quote(line: str, limit: int = 60) -> str:
    """repr of an input line for an error message, cut to its first limit
    characters so that a huge malformed line makes a short message."""
    return repr(line) if len(line) <= limit else repr(line[:limit]) + "..."


def _natural(field: str) -> int:
    """A field of ASCII digits as an int. int() alone would also take a
    sign, underscores between digits and digits of other scripts."""
    if not (field.isascii() and field.isdigit()):
        raise ValueError(field)
    return int(field)


_MAX_LINE = 1 << 16  # characters in one input line


def _lines(source):
    """The str.splitlines() lines of source, a string or an open text file,
    read one line at a time; a line longer than _MAX_LINE characters raises.
    One pattern cuts a string into pieces of up to _MAX_LINE + 1 characters
    and the line end after them, as readline(_MAX_LINE + 1) cuts a file
    opened with universal newlines, so memory follows the longest line, not
    the text. The pattern's last match is empty and yields no line."""
    if isinstance(source, str):
        pattern = rf"[^\r\n]{{0,{_MAX_LINE + 1}}}(?:\r\n|\r|\n)?"
        chunks = (match.group() for match in re.finditer(pattern, source))
    else:
        readline = source.readline
        chunks = iter(lambda: readline(_MAX_LINE + 1), "")
    count = 0
    for chunk in chunks:
        if len(chunk.rstrip("\r\n")) > _MAX_LINE:
            raise ValueError(f"line {count + 1}: longer than {_MAX_LINE} characters")
        # a file line may hold several str.splitlines() lines (form feeds and
        # the like); splitting it again numbers lines as for the whole text
        pieces = chunk.splitlines()
        count += len(pieces)
        yield from pieces


def parse_edge_list(source, check_n=None) -> Graph:
    """Parse the plain edge-list format from a string or an open text file.

    First data line is the vertex count; every following line is one edge
    "u v" with 0-based endpoints, all written in ASCII digits alone. Lines
    whose first non-blank character is '#' are comments. The parsed graph
    must be connected because every consumer here counts walk labelings,
    which only exist on connected graphs. check_n, if given, is called
    with the vertex count as soon as it is read, so that a size limit
    raises before the graph is built.
    Input is read one line at a time, and a line longer than 65,536
    characters is an error. Repeated edges are kept once, so memory
    follows the graph plus one line of bounded length, for a string as for
    a file.
    """
    n = None
    edges = set()
    for lineno, raw in enumerate(_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(None, 2)  # a third field is already an error
        if n is None:
            if len(fields) != 1:
                raise ValueError(f"line {lineno}: expected the vertex count, got {_quote(raw)}")
            try:
                n = _natural(fields[0])
            except ValueError:
                raise ValueError(f"line {lineno}: vertex count is not an integer") from None
            if n < 1:
                raise ValueError(f"line {lineno}: vertex count must be positive")
            if check_n:
                check_n(n)
            continue
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {_quote(raw)}")
        try:
            u, v = _natural(fields[0]), _natural(fields[1])
        except ValueError:
            raise ValueError(f"line {lineno}: edge endpoints must be integers") from None
        if u == v:
            raise ValueError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {lineno}: edge ({u}, {v}) out of range for n={n}")
        edges.add((u, v) if u < v else (v, u))
    if n is None:
        raise ValueError("empty edge list: no vertex count found")
    g = Graph(n, edges)
    if not is_connected(g):
        raise ValueError("graph not connected")
    return g
