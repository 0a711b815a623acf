import pytest

from walklabel import graphs
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


def test_graphs_module_exports_exist():
    for name in graphs.__all__:
        assert hasattr(graphs, name)
