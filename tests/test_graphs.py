import hashlib
import random
import re
import tracemalloc

import pytest

from walklabel import graphs, oracle
from walklabel.graphs import (
    Graph,
    comb,
    cycle,
    is_connected,
    parse_edge_list,
    path,
    perfect_tree,
    torus,
    tree_minus_child,
    two_cycles,
    vertex_at,
)


def test_graph_dedupes_and_sorts_edges():
    g = Graph(3, [(0, 1), (1, 0), (2, 1)])
    assert g.adj == ((1,), (0, 2), (1,))
    assert g.masks == (0b010, 0b101, 0b010)
    assert g.edge_count() == 2
    with pytest.raises(AttributeError):
        g.adj = ()


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, [(1, 1)])
    with pytest.raises(ValueError, match="at least one vertex"):
        Graph(0, [])


def test_perfect_tree_shape():
    g = perfect_tree(2, 3)
    assert g.n == 1 + 3 + 9
    assert vertex_at(g, "root") == vertex_at(g, (0, 0))
    # root has m children, internal vertices m+1 neighbors, leaves 1
    degrees = sorted(len(a) for a in g.adj)
    assert degrees.count(1) == 9 and degrees.count(3) == 1 and degrees.count(4) == 3
    assert is_connected(g)


def test_perfect_tree_height_zero_is_single_vertex():
    g = perfect_tree(0, 5)
    assert g.n == 1 and g.adj == ((),)


def test_tree_minus_child_drops_one_full_subtree():
    full = perfect_tree(3, 2)
    pruned = tree_minus_child(3, 2, 1)
    # removing a depth-2 child subtree of height 1 deletes 3 vertices
    assert pruned.n == full.n - 3
    bereaved = vertex_at(pruned, "bereaved")
    assert pruned.coords[bereaved][0] == 1  # at depth k = 1
    assert len(pruned.adj[bereaved]) == 2  # parent plus the surviving child
    assert is_connected(pruned)


def test_comb_shape():
    g = comb(3, 4, 2)
    assert g.n == 12
    assert is_connected(g)
    # spine vertices are column k: middle tooth's spine vertex touches both
    # neighbors along the spine plus its two path neighbors
    assert len(g.adj[vertex_at(g, (2, 2))]) == 4
    assert len(g.adj[vertex_at(g, (1, 2))]) == 3
    assert len(g.adj[vertex_at(g, (1, 1))]) == 1


def test_comb_single_tooth_is_path():
    g = comb(1, 5, 3)
    degrees = sorted(len(a) for a in g.adj)
    assert degrees == [1, 1, 2, 2, 2]


def test_torus_shape():
    g = torus(5)
    assert g.n == 10
    assert all(len(a) == 3 for a in g.adj)
    assert is_connected(g)


def test_torus_small_collapse():
    assert torus(1).n == 2 and torus(1).edge_count() == 1
    g2 = torus(2)
    assert g2.n == 4 and g2.edge_count() == 4
    assert all(len(a) == 2 for a in g2.adj)


def test_two_cycles_shape():
    g = two_cycles(2, 3, 4)
    assert g.n == 9
    assert is_connected(g)
    left, right = vertex_at(g, "left_junction"), vertex_at(g, "right_junction")
    assert left == vertex_at(g, (2, 1)) and right == vertex_at(g, (2, 3))
    assert len(g.adj[left]) == 3 and len(g.adj[right]) == 3
    assert g.edge_count() == (1 + 2 + 3) + 4


def _labeled_edges(g, relabel=lambda label: label):
    """g's edges as sets of two coordinate labels, each passed through relabel."""
    return {frozenset((relabel(g.coords[u]), relabel(g.coords[v]))) for u in range(g.n) for v in g.adj[u]}


def test_row_swap_carries_two_cycles_onto_their_mirror():
    # verify reads the oracle answers of S(a3, a2, a1) off S(a1, a2, a3)
    def swap(label):
        row, pos = label
        return 4 - row, pos

    for a1 in range(2, 7):
        for a2 in range(2, 6):
            for a3 in range(2, 7):
                g, mirror = two_cycles(a1, a2, a3), two_cycles(a3, a2, a1)
                assert {swap(label) for label in g.coords.values()} == set(mirror.coords.values())
                assert _labeled_edges(g, swap) == _labeled_edges(mirror)
                for alias in ("left_junction", "right_junction"):
                    junction = g.coords[vertex_at(g, alias)]
                    assert swap(junction) == junction
                    assert vertex_at(mirror, alias) == vertex_at(mirror, junction)


def test_row_reversal_is_an_automorphism_that_swaps_the_junctions():
    # the reflection behind twice the left-first count in verify's totals
    for a1 in range(2, 7):
        for a2 in range(2, 6):
            for a3 in range(2, 7):
                lengths = {1: a1, 2: a2, 3: a3}

                def sigma(label):
                    row, pos = label
                    return row, lengths[row] + 1 - pos

                g = two_cycles(a1, a2, a3)
                assert {sigma(label) for label in g.coords.values()} == set(g.coords.values())
                assert _labeled_edges(g, sigma) == _labeled_edges(g)
                left, right = (g.coords[vertex_at(g, alias)] for alias in ("left_junction", "right_junction"))
                assert (sigma(left), sigma(right)) == (right, left)


def test_tooth_reversal_carries_combs_onto_their_mirror():
    # verify reads the oracle answers of C(m, n, n - k + 1) off C(m, n, k)
    for m in range(1, 5):
        for n in range(2, 7):
            def reverse(label, n=n):
                tooth, pos = label
                return tooth, n - pos + 1

            for k in range(1, n + 1):
                g, mirror = comb(m, n, k), comb(m, n, n - k + 1)
                assert {reverse(label) for label in g.coords.values()} == set(mirror.coords.values())
                assert _labeled_edges(g, reverse) == _labeled_edges(mirror)
                assert reverse((1, k)) == (1, n - k + 1)


def test_path_and_cycle():
    assert path(4).edge_count() == 3
    assert cycle(4).edge_count() == 4
    assert all(len(a) == 2 for a in cycle(5).adj)


def test_vertex_at_unknown_coordinate():
    with pytest.raises(ValueError, match="unknown coordinate"):
        vertex_at(path(3), (9, 9))


def test_family_spec_validation_messages():
    cases = [
        (lambda: perfect_tree(-1, 2), "PerfectTree"),
        (lambda: perfect_tree(0, 1), "PerfectTree"),
        (lambda: tree_minus_child(2, 2, 2), "TreeMinusChild"),
        (lambda: comb(0, 2, 1), "Comb"),
        (lambda: comb(2, 2, 3), "Comb"),
        (lambda: torus(0), "Torus"),
        (lambda: two_cycles(1, 2, 2), "TwoCycles"),
        (lambda: path(0), "Path"),
        (lambda: cycle(2), "Cycle"),
    ]
    for make, name in cases:
        with pytest.raises(ValueError, match=f"invalid family parameters: {name}"):
            make()


def test_parse_edge_list_round_trip():
    g = parse_edge_list("# square\n4\n0 1\n1 2\n2 3\n # closing edge\n3 0\n")
    assert g.n == 4 and g.edge_count() == 4


def test_parse_edge_list_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 1"):
        parse_edge_list("four\n0 1\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_edge_list("3\n0 1\n1 2 3\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_edge_list("2\n0 5\n")


def _parsed(source):
    try:
        return parse_edge_list(source).masks
    except ValueError as exc:
        return str(exc)


def test_parse_edge_list_reads_a_file_as_its_text(tmp_path, monkeypatch):
    # a file is read a line at a time, yet str.splitlines() also breaks
    # lines at form feeds and the like, which file iteration does not
    f = tmp_path / "g.txt"
    for text in ("3\r\n0 1\r\n\x0c1 2\n", "3\n0 1\x0c1 2 3\n", "3\r0 1\r\r\n1 1\n", "3\n0 1\n1 2\n0 1\n"):
        f.write_text(text, newline="")
        with open(f, encoding="utf-8") as fh:
            assert _parsed(fh) == _parsed(f.read_text(encoding="utf-8"))
    # random texts at a line cap of 1-8 characters: a string and a file give
    # the same graph, or the same error with the same line number
    rng = random.Random(13)
    lines = ("3", "0 1", "1 2", "2 0", "# c", "", "  ", "1\x0c2", "0 1 2", "a b", "0  1")
    ends = ("\n", "\r", "\r\n", "\x0c", "\x85")
    for _ in range(500):
        monkeypatch.setattr(graphs, "_MAX_LINE", rng.randint(1, 8))
        if rng.random() < 0.5:
            text = "".join(rng.choice(lines) + rng.choice(ends) for _ in range(rng.randint(0, 8)))
            text = rng.choice(("3\n", "3\r\n", "")) + text
        else:
            text = "".join(rng.choice(("0", "1", " ", "#", *ends)) for _ in range(rng.randint(0, 24)))
        f.write_text(text, encoding="utf-8", newline="")
        with open(f, encoding="utf-8") as fh:
            assert _parsed(fh) == _parsed(text), (graphs._MAX_LINE, text)


def test_parse_edge_list_memory_does_not_follow_a_string():
    # path(24), then 8 MB of comment lines of 64,001 characters and copies
    # of one of its edges: read a bounded block at a time, with the repeated
    # edge kept once (a parse of 2,000,000 short lines under tracemalloc
    # takes about a minute; long lines show the same memory in a second)
    head = "24\n" + "".join(f"{i} {i + 1}\n" for i in range(23))
    text = head + ("#" + " 0 1" * 16_000 + "\n" + "0 1\n" * 100) * 125
    assert len(text) > 8_000_000
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.masks == path(24).masks == parse_edge_list(head).masks
    assert peak < 2 * 2**20


def test_parse_edge_list_rejects_disconnected():
    with pytest.raises(ValueError, match="graph not connected"):
        parse_edge_list("4\n0 1\n2 3\n")


def test_parse_edge_list_rejects_empty():
    with pytest.raises(ValueError, match="vertex count"):
        parse_edge_list("# nothing but comments\n")


def test_is_connected():
    assert is_connected(cycle(6))
    assert not is_connected(Graph(3, [(0, 1)]))
    assert is_connected(Graph(1, []))
    # restricted to a vertex mask: the induced subgraph on those vertices
    assert is_connected(path(5), 0b01110)
    assert not is_connected(path(5), 0b10101)
    assert is_connected(path(5), 0b00100)
    assert not is_connected(path(5), 0)


def _set_based(n, edges, coords=None, aliases=None):
    """The fields Graph(n, edges, coords, aliases) had when it was built
    from neighbor sets: (adj, masks, coords, lookup, connected), with the
    same errors raised in the same order."""
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    neighbor_sets = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    adj = tuple(tuple(sorted(s)) for s in neighbor_sets)
    masks = tuple(sum(1 << u for u in s) for s in neighbor_sets)
    lookup = {label: v for v, label in (coords or {}).items()}
    lookup.update(aliases or {})
    return adj, masks, dict(coords or {}), lookup, _dfs_connected(adj, (1 << n) - 1)


def _dfs_connected(adj, within):
    """Whether the vertices of the mask within induce a connected subgraph,
    by a depth-first search over sets; the empty set is not connected."""
    if not within:
        return False
    start = (within & -within).bit_length() - 1
    seen, stack = {start}, [start]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen and within >> u & 1:
                seen.add(u)
                stack.append(u)
    return len(seen) == within.bit_count()


def _seeded_edge_lists(rng):
    """(n, edges) with repeated edges, both orders of an edge and graphs in
    several components, from one vertex up."""
    for n in range(1, 11):
        for density in (0.0, 0.15, 0.35, 0.7):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
            edges += [(v, u) for u, v in rng.sample(pairs, len(pairs) // 2)]
            rng.shuffle(edges)
            yield n, edges


def test_mask_built_graph_matches_the_set_based_construction():
    rng = random.Random(2401)
    for n, edges in _seeded_edge_lists(rng):
        coords = {v: ("v", v) for v in range(n)}
        aliases = {"last": n - 1}
        g = Graph(n, edges, coords, aliases)
        assert (g.adj, g.masks, g.coords, g._lookup, is_connected(g)) == _set_based(n, edges, coords, aliases)
        assert vertex_at(g, "last") == n - 1 and vertex_at(g, ("v", 0)) == 0
        # out of range, a self-loop, or both: the range check comes first
        bad = [(rng.randrange(n), n + rng.randrange(3)), (-1, rng.randrange(n)), (rng.randrange(n),) * 2, (n, n)]
        for _ in range(4):
            wrong = list(edges)
            for edge in rng.sample(bad, rng.randint(1, 4)):
                wrong.insert(rng.randint(0, len(wrong)), edge if rng.random() < 0.5 else edge[::-1])
            with pytest.raises(ValueError) as expected:
                _set_based(n, wrong)
            with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
                Graph(n, wrong)
    with pytest.raises(ValueError) as expected:
        _set_based(0, [])
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        Graph(0, [])


def test_mask_search_matches_a_set_search_on_every_vertex_set():
    rng = random.Random(2402)
    for n, edges in _seeded_edge_lists(rng):
        if n <= 8:
            g = Graph(n, edges)
            assert [is_connected(g, within) for within in range(1 << n)] == [
                _dfs_connected(g.adj, within) for within in range(1 << n)]
            assert not is_connected(g, 0)


def _check_against_set_based(g, args, reads):
    """The adj derived from masks and edge_count() of g equal the set-based
    reference built from Graph's arguments args, and neither building g
    nor oracle queries on it read adj (reads lists the graphs read)."""
    if g.n <= 10:
        oracle.count_labelings(g)
        oracle.count_completions_each(g, [[v] for v in range(g.n)])
    assert g not in reads
    adj = _set_based(*args)[0]
    assert g.adj == adj and reads[-1] is g
    assert g.edge_count() == sum(len(a) for a in adj) // 2


def test_adjacency_from_masks_matches_the_set_based_construction(monkeypatch):
    reads = []
    derive = Graph.adj.fget

    def recorded(g):
        reads.append(g)
        return derive(g)

    monkeypatch.setattr(Graph, "adj", property(recorded))
    arguments = []

    def recording(*args):
        arguments.append(args)
        return Graph(*args)

    cases = [(name, args) for name, args in _numbering_cases() if max(args) <= 6]
    with monkeypatch.context() as patch:
        patch.setattr(graphs, "Graph", recording)
        graphs_built = [getattr(graphs, name)(*args) for name, args in cases]
    assert len(arguments) == len(graphs_built) > 100
    assert {name for name, _ in cases} == set(_NUMBERING_DIGESTS)
    for g, args in zip(graphs_built, arguments):
        _check_against_set_based(g, args, reads)

    rng = random.Random(2501)
    parsed = 0
    for n, edges in _seeded_edge_lists(rng):
        if _set_based(n, edges)[4]:
            text = f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)
            _check_against_set_based(parse_edge_list(text), (n, edges), reads)
            parsed += 1
    assert parsed > 10


def test_graphs_module_exports_exist():
    for name in graphs.__all__:
        assert hasattr(graphs, name)


def _numbering_cases():
    for m in range(2, 5):
        for h in range(6):
            if m**h < 2000:
                yield "perfect_tree", (h, m)
                for k in range(h):
                    yield "tree_minus_child", (h, m, k)
    for m in range(1, 7):
        for n in range(2, 8):
            for k in range(1, n + 1):
                yield "comb", (m, n, k)
    for n in range(1, 15):
        yield "torus", (n,)
    for a1 in range(2, 7):
        for a2 in range(2, 7):
            for a3 in range(2, 7):
                yield "two_cycles", (a1, a2, a3)
    for n in range(1, 12):
        yield "path", (n,)
    for n in range(3, 12):
        yield "cycle", (n,)


# sha256 over each builder's grid of (args, adj, sorted coords, sorted
# aliases); a digest that changes means the builder renumbered its vertices
_NUMBERING_DIGESTS = {
    "perfect_tree": "dc28e723eee72707b1aedec61cf88082e763ba5b0384388ac07e3fb237cfb0f0",
    "tree_minus_child": "fcdbf0b6d10371987514d8284f2827b201946f5adfffba606b9132a601dfde40",
    "comb": "ae152ab6dd92e6a2f8cf7e1b4ec330bf83ef118e3f185c5d63c5ff5b526ee47a",
    "torus": "910badeb83466e63548a59f9bb30375370b17c4d4d89d6418b1f593599664ade",
    "two_cycles": "80383f2bb6442344c805a4faed4f6de2b157e01953f8eee46ebb387e1790d388",
    "path": "6838cc51c5c917bb7f564b96cf25dd1019d29533ca88c642c60c722bfd2db487",
    "cycle": "abf053f39c2982d25e1431dfa1570e9bc406589edce96b317a05d77658df1cea",
}


def test_family_vertex_numbering_is_pinned():
    # counts do not depend on the numbering, but per-vertex queries that
    # pick vertices by index (perfbench's dp-sparse starts) do
    digests = {}
    for name, args in _numbering_cases():
        g = getattr(graphs, name)(*args)
        labels = set(g.coords.values())
        aliases = sorted((k, v) for k, v in g._lookup.items() if k not in labels)
        digests.setdefault(name, hashlib.sha256()).update(
            repr((args, g.adj, sorted(g.coords.items()), aliases)).encode())
    assert {name: h.hexdigest() for name, h in digests.items()} == _NUMBERING_DIGESTS
