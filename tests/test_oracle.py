import math
import random
from itertools import permutations

import pytest
from closed_forms_ref import tree_total
from conftest import random_connected_graph
from hypothesis import given, settings
from hypothesis import strategies as st
from subset_dp import dp_completion_table, dp_resume, dp_total

from walklabel import oracle
from walklabel.combs import count_comb
from walklabel.oracle import dp_completions, dp_first_gap, tree_count
from walklabel.graphs import Graph, comb, cycle, is_connected, path, perfect_tree, torus, two_cycles
from walklabel.trees import count_perfect_tree


@st.composite
def connected_graphs(draw, max_n=7):
    n = draw(st.integers(2, max_n))
    edges = {
        (draw(st.integers(0, v - 1)), v) for v in range(1, n)
    }
    extras = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=n * (n - 1) // 2,
        )
    )
    edges.update((min(u, v), max(u, v)) for u, v in extras if u != v)
    return Graph(n, sorted(edges))


@st.composite
def graphs_at_any_density(draw, max_n=9):
    """Connected graphs: a random spanning tree plus a uniformly drawn
    number of further edges, from none to all of them."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    extra = draw(st.integers(0, len(pairs)))
    edges.update(draw(st.permutations(pairs))[:extra])
    return Graph(n, sorted(edges))


def _filtered_orderings(g, labeled, before=None):
    """Orderings of the vertices outside the labeled mask in which each is
    adjacent to the labeled set or an earlier one, and with before=(u, v)
    u is labeled or placed ahead of v: a filter over all permutations."""
    if before and labeled >> before[1] & 1 and not labeled >> before[0] & 1:
        return 0  # v is labeled already and u is not
    free = [w for w in range(g.n) if not labeled >> w & 1]
    count = 0
    for order in permutations(free):
        seen = labeled
        for w in order:
            if not g.masks[w] & seen:
                break
            if before and w == before[1] and not seen >> before[0] & 1:
                break
            seen |= 1 << w
        else:
            count += 1
    return count


def _grow_connected(g, rng, size):
    """A connected vertex set of the given size grown from a random vertex."""
    labeled = 1 << rng.randrange(g.n)
    for _ in range(size - 1):
        labeled |= 1 << rng.choice([w for w in range(g.n) if not labeled >> w & 1 and g.masks[w] & labeled])
    return labeled


@settings(max_examples=40, derandomize=True, deadline=None)
@given(graphs_at_any_density(), st.randoms(use_true_random=False))
def test_connected_set_kernel_matches_subset_kernel_and_permutations(g, rng):
    masks, n = g.masks, g.n
    labeled = _grow_connected(g, rng, rng.randrange(1, n + 1))
    # one table for every start and the labeled set, whatever its size
    each = dp_completions(masks, n, [1 << v for v in range(n)] + [labeled])
    total = sum(each[:n])
    assert total == dp_first_gap(masks, n) == dp_total(masks, n) == oracle.count_labelings_perm(g)
    for v in range(n):
        assert (
            dp_first_gap(masks, n, 1 << v)
            == dp_resume(masks, n, 1 << v)
            == _filtered_orderings(g, 1 << v)
            == each[v]
        )
    assert (
        dp_first_gap(masks, n, labeled)
        == dp_resume(masks, n, labeled)
        == _filtered_orderings(g, labeled)
        == each[n]
    )
    if n >= 3:
        start, u, v = rng.sample(range(n), 3)
        assert (
            dp_completions(masks, n, [1 << start], u, v)
            == [dp_resume(masks, n, 1 << start, u, v)]
            == [_filtered_orderings(g, 1 << start, (u, v))]
        )
        # every start except v itself, which the constraint rules out
        others = [s for s in range(n) if s != v]
        assert dp_completions(masks, n, [1 << s for s in others], u, v) == [
            dp_resume(masks, n, 1 << s, u, v) if s != u else dp_resume(masks, n, 1 << s) for s in others
        ]


def test_connected_set_kernel_matches_subset_kernel_on_family_graphs():
    rng = random.Random(11)
    for g in (torus(8), two_cycles(5, 6, 5), comb(3, 5, 2)):
        masks, n = g.masks, g.n
        starts = [1 << s for s in range(n)]
        assert sum(dp_completions(masks, n, starts)) == dp_first_gap(masks, n) == dp_total(masks, n)
        start, u, v = rng.sample(range(n), 3)
        for labeled, before in ((1 << start, ()), (1 << start, (u, v)), (_grow_connected(g, rng, n // 2), ())):
            expected = dp_resume(masks, n, labeled, *before)
            assert dp_completions(masks, n, [labeled], *before) == [expected]
            if not before:
                assert dp_first_gap(masks, n, labeled) == expected
        # every start: u before v and v before u split each per-start count
        pairs = zip(dp_completions(masks, n, starts, u, v), dp_completions(masks, n, starts, v, u))
        assert [a + b for a, b in pairs] == [dp_first_gap(masks, n, s) for s in starts]


def _split_graphs():
    """Graphs whose gap regions fall apart into components: K3,k, a hub
    joined to the path 1-...-k, and two triangles joined by a path of k
    vertices."""
    for k in (2, 4, 6):
        yield Graph(3 + k, [(u, v) for u in range(3) for v in range(3, 3 + k)])
    for k in (3, 6, 9):
        yield Graph(k + 1, [(0, v) for v in range(1, k + 1)] + [(v, v + 1) for v in range(1, k)])
    for k in (0, 2, 4):
        n = 6 + k
        yield Graph(n, [(0, 1), (1, 2), (0, 2), *((v, v + 1) for v in range(2, n - 1)), (n - 3, n - 1)])


def test_first_gap_recursion_matches_subset_dp_and_permutations():
    rng = random.Random(22)
    graphs = list(_split_graphs())
    for density in (0.05, 0.25, 0.5, 0.75, 0.95):
        for _ in range(8):
            n = rng.randint(2, 10)
            edges = {(rng.randrange(v), v) for v in range(1, n)}
            edges |= {(u, v) for v in range(n) for u in range(v) if rng.random() < density}
            graphs.append(Graph(n, sorted(edges)))
    for g in graphs:
        masks, n = g.masks, g.n
        total = dp_first_gap(masks, n)
        assert total == dp_total(masks, n)
        if n <= 8:
            assert total == oracle.count_labelings_perm(g)
        for size in range(1, min(4, n) + 1):
            labeled = _grow_connected(g, rng, size)
            expected = dp_resume(masks, n, labeled)
            assert dp_first_gap(masks, n, labeled) == expected
            if n - size <= 7:
                assert expected == _filtered_orderings(g, labeled)
        # a labeled set of every vertex leaves one (empty) completion
        assert dp_first_gap(masks, n, (1 << n) - 1) == 1
    assert dp_first_gap((0,), 1) == dp_first_gap((0,), 1, 1) == 1


def test_completion_table_matches_single_queries_on_family_graphs():
    rng = random.Random(5)
    for g in (torus(8), two_cycles(5, 6, 5), comb(3, 5, 2)):
        starts = [[s] for s in range(g.n)]
        u, v = rng.sample(range(g.n), 2)
        masks = [_grow_connected(g, rng, size) for size in (2, g.n // 2, g.n)]
        sets = [[w for w in range(g.n) if mask >> w & 1] for mask in masks]
        assert oracle.count_completions_each(g, starts) == [oracle.count_labelings_from(g, s) for s in range(g.n)]
        assert oracle.count_completions_each(g, starts, before=(u, v)) == [
            oracle.count_labelings_from_before(g, s, u, v) for s in range(g.n)
        ]
        assert oracle.count_completions_each(g, sets) == [oracle.count_completions(g, vs) for vs in sets]
        assert oracle.count_completions_each(g, []) == []


def test_completion_table_validates_its_input():
    g = path(5)
    with pytest.raises(ValueError, match="labeled set not connected"):
        oracle.count_completions_each(g, [[1], [0, 2]])
    with pytest.raises(ValueError, match="labeled set not connected"):
        oracle.count_completions_each(g, [[]])
    with pytest.raises(ValueError, match="out of range"):
        oracle.count_completions_each(g, [[4, 5]])
    with pytest.raises(ValueError, match="out of range"):
        oracle.count_completions_each(g, [[0]], before=(0, 5))
    with pytest.raises(ValueError, match="two distinct vertices"):
        oracle.count_completions_each(g, [[0]], before=(2, 2))
    with pytest.raises(ValueError, match="graph not connected"):
        oracle.count_completions_each(Graph(4, [(0, 1), (2, 3)]), [[0]])


def _resumed(masks, n, labeled, before):
    """dp_resume of labeled under before=(u, v) or (): a labeled u drops the
    constraint, and a labeled v ahead of an unlabeled u leaves nothing."""
    if before and labeled >> before[0] & 1:
        before = ()
    if before and labeled >> before[1] & 1:
        return 0
    return dp_resume(masks, n, labeled, *before)


def test_completion_memo_serves_one_batch_and_ends_with_the_call():
    # Each batch mixes overlapping sources of mixed sizes, duplicates,
    # sources that hold v but not u and dominating ones. The two graphs of
    # a round share their vertex numbers and are queried back to back, with
    # and without the constraint, so a memo kept past one call would hand
    # a later call counts of the wrong graph or the wrong constraint. On the
    # second graph a hub outside u and v dominates, so every set that gains
    # it lacking u must finish in half of the orders.
    rng = random.Random(1717)
    for _ in range(12):
        n = rng.randint(5, 9)
        first = random_connected_graph(rng, n)
        hub = rng.randrange(n)
        edges = {(a, b) for a in range(n) for b in first.adj[a] if a < b}
        edges |= {(min(hub, w), max(hub, w)) for w in range(n) if w != hub}
        second = Graph(n, sorted(edges))
        u, v = rng.sample([w for w in range(n) if w != hub], 2)
        for g in (first, second):
            masks = g.masks
            sources = [_grow_connected(g, rng, rng.randint(1, n)) for _ in range(5)]
            late = 1 << v  # grown from v without u, so it counts 0 under the constraint
            for _ in range(rng.randrange(n - 1)):
                grow = [w for w in range(n) if w != u and not late >> w & 1 and masks[w] & late]
                if grow:
                    late |= 1 << rng.choice(grow)
            sources += [late, 1 << hub, _grow_connected(g, rng, n - 1)]
            sources += rng.sample(sources, 3)
            rng.shuffle(sources)
            for before in ((), (u, v)):
                assert dp_completions(masks, n, sources, *before) == [
                    _resumed(masks, n, s, before) for s in sources]


def _prufer_tree(rng, n):
    """A uniformly random tree on n vertices, decoded from a random Prüfer
    sequence: each entry joins the smallest remaining leaf to it."""
    if n == 1:
        return Graph(1, [])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = degree.index(1)
        edges.append((leaf, v))
        degree[leaf] = 0
        degree[v] -= 1
    edges.append(tuple(u for u in range(n) if degree[u] == 1))
    return Graph(n, edges)


def test_tree_formula_matches_the_dps_and_permutations():
    rng = random.Random(16)
    trees = [_prufer_tree(rng, n) for n in range(1, 19)]
    trees += [path(12), perfect_tree(1, 12), comb(3, 5, 2), perfect_tree(3, 2)]
    for g in trees:
        masks, n = g.masks, g.n
        assert oracle.engine(g) == "tree"
        table = dp_completion_table(masks, n)
        from_each = [table[1 << v] for v in range(n)]
        total = tree_count(masks, n)
        assert total == dp_first_gap(masks, n) == sum(from_each) == oracle.count_labelings(g)
        if n <= 8:
            assert total == oracle.count_labelings_perm(g)
        assert [tree_count(masks, n, 1 << v) for v in range(n)] == [
            dp_first_gap(masks, n, 1 << v) for v in range(n)] == from_each
        labeled = [_grow_connected(g, rng, rng.randint(1, min(4, n))) for _ in range(4)]
        for s in labeled:
            assert tree_count(masks, n, s) == dp_first_gap(masks, n, s) == table[s]
        sets = [[w for w in range(n) if s >> w & 1] for s in labeled]
        starts = [[v] for v in range(n)]
        assert oracle.count_completions_each(g, sets) == dp_completions(masks, n, labeled) == [
            table[s] for s in labeled]
        assert oracle.count_completions_each(g, starts) == from_each


def test_tree_total_matches_the_rerooted_counts():
    rng = random.Random(40)
    for n in range(1, 41):
        for _ in range(25):
            g = _prufer_tree(rng, n)
            assert tree_count(g.masks, n) == tree_total(g.masks, n)


def test_tree_total_matches_the_closed_forms_past_the_size_limit():
    # called directly, so DP_LIMIT does not apply: 8,191 and 6,400 vertices
    g = perfect_tree(12, 2)
    assert tree_count(g.masks, g.n) == count_perfect_tree(12, 2)
    g = comb(80, 80, 40)
    assert tree_count(g.masks, g.n) == count_comb(80, 80, 40)


def test_engine_follows_density():
    n = 12
    complete = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    rng = random.Random(3)
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    half = Graph(n, sorted({(rng.randrange(v), v) for v in range(1, n)} | set(rng.sample(pairs, len(pairs) // 2))))
    star = perfect_tree(1, 11)
    for g in (comb(3, 5, 2), perfect_tree(3, 2), path(6), star):
        assert oracle.engine(g) == "tree"
    # at most n + 2 edges and no leaf: a two-cycle graph, a cycle, a cycle
    # with two chords
    ring = [(v, (v + 1) % 8) for v in range(8)]
    for g in (two_cycles(5, 6, 5), cycle(7), Graph(8, ring + [(0, 4), (2, 6)])):
        assert oracle.engine(g) == "connected-set"
    # the cycle with three chords, the torus (2n edges), denser graphs, a
    # star with one chord, and n - 1 edges in two components (a triangle
    # and an edge): not trees, and each has more edges or a leaf
    chorded_star = Graph(8, [(0, v) for v in range(1, 8)] + [(1, 2)])
    disconnected = Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    for g in (Graph(8, ring + [(0, 4), (2, 6), (1, 5)]), torus(8), complete, half, chorded_star, disconnected):
        assert oracle.engine(g) == "first-gap"


def test_pure_kernel_counts_the_widest_stars():
    # a set holding the center covers every vertex, so the completion
    # search over every start of K1,k stores only the k leaves
    for k in (21, 22, 23):
        star = perfect_tree(1, k)
        assert sum(dp_completions(star.masks, star.n, [1 << v for v in range(star.n)])) == 2 * math.factorial(k)


def test_search_counts_the_widest_connected_set_graphs_at_the_size_limit():
    # K4 with its six edges subdivided by 4, 4, 3, 3, 3 and 3 vertices, and
    # scripts/sweep24.py's theta4 (the poles 0 and 1 joined by four paths)
    # and cycle-chords (the 24-cycle with the chords 0-12 and 6-18): 24
    # vertices and n + 2 = 26 edges each. Their totals store 12,767, 23,650
    # and 18,554 connected sets, far below LAYER_LIMIT, and the first-gap
    # recursion they are checked against shares no code with the search.
    n = oracle.DP_LIMIT
    k4, top = [], 4
    for (a, b), k in zip(((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), (4, 4, 3, 3, 3, 3)):
        inner = list(range(top, top + k))
        top += k
        k4 += zip([a, *inner], [*inner, b])
    theta = [e for i in range(4) for e in zip([0, *range(2 + i, n, 4)], [*range(2 + i, n, 4), 1])]
    chords = [(v, (v + 1) % n) for v in range(n)] + [(0, 12), (6, 18)]
    for edges in (k4, theta, chords):
        g = Graph(n, edges)
        assert g.edge_count() == n + 2 and oracle.engine(g) == "connected-set"
        assert oracle.count_labelings(g) == dp_first_gap(g.masks, n)


def test_every_start_batch_of_a_first_gap_graph_takes_the_recursion_at_the_size_limit():
    # scripts/sweep24.py's hub21 (a hub joined to every vertex of K1,21 and
    # to one more vertex) and star-chords (K1,22 with three chords between
    # leaves and a vertex hung off a leaf): a hub grows more connected sets
    # than LAYER_LIMIT, so a completion search over every start gives up,
    # while the first-gap recursion counts each start at once
    n = oracle.DP_LIMIT
    hub = [(0, v) for v in range(1, n)] + [(1, v) for v in range(2, n - 1)]
    star = [(0, v) for v in range(1, n - 1)] + [(1, 2), (3, 4), (5, 6), (n - 2, n - 1)]
    for edges in (hub, star):
        g = Graph(n, edges)
        assert oracle.engine(g) == "first-gap"
        each = oracle.count_completions_each(g, [[v] for v in range(n)])
        assert each == [dp_first_gap(g.masks, n, 1 << v) for v in range(n)]
        assert sum(each) == oracle.count_labelings(g)


def test_kernels_drop_a_constraint_whose_vertex_is_labeled():
    # a labeled u already precedes v, so the count is the unconstrained
    # one; a labeled v has come before an unlabeled u, so the count is 0
    for g in (path(3), cycle(5), perfect_tree(2, 2)):
        masks, n = g.masks, g.n
        for u, v in permutations(range(n), 2):
            assert dp_completions(masks, n, [1 << u, 1 << v], u, v) == [
                dp_resume(masks, n, 1 << u), 0
            ] == [_filtered_orderings(g, 1 << u, (u, v)), _filtered_orderings(g, 1 << v, (u, v))]


def test_backend_reports_selected_kernel():
    assert oracle.backend() == "pure-python"


def test_known_small_counts():
    # paths: the labeled set is an interval; each step extends an end
    for n in range(1, 8):
        assert oracle.count_labelings(path(n)) == 2 ** (n - 1)
    # cycles: n starts, then the labeled arc grows at either end
    for n in range(3, 8):
        assert oracle.count_labelings(cycle(n)) == n * 2 ** (n - 2)
    # complete graph: every permutation works
    for n in range(2, 7):
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        assert oracle.count_labelings(g) == math.factorial(n)
    # star: center first or one leaf first
    for m in range(2, 7):
        assert oracle.count_labelings(perfect_tree(1, m)) == 2 * math.factorial(m)


def test_dp_equals_permutation_enumeration_on_random_graphs():
    rng = random.Random(20260822)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randrange(2, 9))
        assert oracle.count_labelings(g) == oracle.count_labelings_perm(g)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(connected_graphs())
def test_dp_equals_permutation_enumeration_property(g):
    total = oracle.count_labelings(g)
    assert total == oracle.count_labelings_perm(g)
    assert total == sum(oracle.count_labelings_from(g, v) for v in range(g.n))


def test_per_start_counts_sum_to_total():
    rng = random.Random(7)
    for _ in range(12):
        g = random_connected_graph(rng, rng.randrange(2, 9))
        total = oracle.count_labelings(g)
        assert sum(oracle.count_labelings_from(g, v) for v in range(g.n)) == total


def test_completions_of_singleton_match_per_start():
    g = two_cycles(2, 2, 2)
    for v in range(g.n):
        assert oracle.count_completions(g, [v]) == oracle.count_labelings_from(g, v)


def test_completions_of_full_set_is_one():
    g = torus(3)
    assert oracle.count_completions(g, list(range(g.n))) == 1


def test_completions_requires_connected_labeled_set():
    g = path(5)
    with pytest.raises(ValueError, match="labeled set not connected"):
        oracle.count_completions(g, [0, 2])
    with pytest.raises(ValueError, match="labeled set not connected"):
        oracle.count_completions(g, [])


def test_order_constraint_complementarity():
    rng = random.Random(99)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randrange(3, 9))
        start = rng.randrange(g.n)
        others = [v for v in range(g.n) if v != start]
        u, v = rng.sample(others, 2)
        before = oracle.count_labelings_from_before(g, start, u, v)
        after = oracle.count_labelings_from_before(g, start, v, u)
        assert before + after == oracle.count_labelings_from(g, start)


def test_order_constraint_boundary_cases():
    g = cycle(5)
    # the start is labeled first, so it precedes everything and follows nothing
    assert oracle.count_labelings_from_before(g, 0, 0, 3) == oracle.count_labelings_from(g, 0)
    assert oracle.count_labelings_from_before(g, 0, 3, 0) == 0
    with pytest.raises(ValueError, match="two distinct vertices"):
        oracle.count_labelings_from_before(g, 0, 2, 2)


def test_size_limits(monkeypatch):
    with pytest.raises(ValueError, match="instance too large"):
        oracle.count_labelings(path(oracle.DP_LIMIT + 1))
    with pytest.raises(ValueError, match="instance too large"):
        oracle.count_labelings_perm(path(oracle.PERM_LIMIT + 1))
    # the total of the 8-cycle is one search over every start, whose memo
    # stores the 8 arcs of each length 1 to 5, 40 sets in all; an arc of 6
    # dominates the cycle, so it is never stored
    ring = cycle(8)
    assert oracle.engine(ring) == "connected-set"
    monkeypatch.setattr(oracle, "LAYER_LIMIT", 39)
    with pytest.raises(ValueError, match="instance too large: more than 39 connected vertex sets"):
        oracle.count_labelings(ring)
    # the limits themselves are inclusive
    assert oracle.count_labelings_perm(path(oracle.PERM_LIMIT)) > 0
    monkeypatch.setattr(oracle, "LAYER_LIMIT", 40)
    assert oracle.count_labelings(ring) == dp_total(ring.masks, ring.n)
    # a set holding the center of K1,6 covers every vertex, so the search
    # over every start stores only the 6 leaves, where the subset DP holds
    # C(6, 3) = 20 sets of one size
    star = perfect_tree(1, 6)
    starts = [1 << v for v in range(star.n)]
    monkeypatch.setattr(oracle, "LAYER_LIMIT", 5)
    with pytest.raises(ValueError, match="instance too large"):
        dp_completions(star.masks, star.n, starts)
    monkeypatch.setattr(oracle, "LAYER_LIMIT", 6)
    assert sum(dp_completions(star.masks, star.n, starts)) == dp_total(star.masks, star.n)
    # the first-gap recursion caps its memo of regions: on a hub joined to
    # the path 1-...-7 it stores the whole graph, the empty region, 16
    # intervals of the path and 5 unions of two, 23 regions in all
    hub = Graph(8, [(0, v) for v in range(1, 8)] + [(v, v + 1) for v in range(1, 7)])
    assert oracle.engine(hub) == "first-gap"
    monkeypatch.setattr(oracle, "LAYER_LIMIT", 22)
    with pytest.raises(ValueError, match="instance too large: more than 22 gap regions"):
        oracle.count_labelings(hub)
    monkeypatch.setattr(oracle, "LAYER_LIMIT", 23)
    assert oracle.count_labelings(hub) == dp_total(hub.masks, hub.n) == 12416
    # the per-start table of the 8-cycle stores the total's 40 arcs, and
    # with 0 before 4 it leaves out the 13 arcs that hold 4 but not 0
    starts = [[v] for v in range(ring.n)]
    monkeypatch.setattr(oracle, "LAYER_LIMIT", 39)
    with pytest.raises(ValueError, match="instance too large"):
        oracle.count_completions_each(ring, starts)
    monkeypatch.setattr(oracle, "LAYER_LIMIT", 40)
    assert oracle.count_completions_each(ring, starts) == [dp_resume(ring.masks, ring.n, 1 << v) for v in range(8)]
    monkeypatch.setattr(oracle, "LAYER_LIMIT", 26)
    with pytest.raises(ValueError, match="instance too large"):
        oracle.count_completions_each(ring, starts, before=(0, 4))
    monkeypatch.setattr(oracle, "LAYER_LIMIT", 27)
    assert oracle.count_completions_each(ring, starts, before=(0, 4)) == [
        _filtered_orderings(ring, 1 << v, (0, 4)) for v in range(8)
    ]


def test_oracle_rejects_disconnected_graphs():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="graph not connected"):
        oracle.count_labelings(g)
    with pytest.raises(ValueError, match="graph not connected"):
        oracle.count_labelings_perm(g)


def test_vertex_arguments_are_range_checked():
    g = path(4)
    with pytest.raises(ValueError, match="out of range"):
        oracle.count_labelings_from(g, 4)
    with pytest.raises(ValueError, match="out of range"):
        oracle.count_completions(g, [0, 9])


def test_single_vertex_graph():
    g = Graph(1, [])
    assert oracle.count_labelings(g) == 1
    assert oracle.count_labelings_from(g, 0) == 1
    assert oracle.count_labelings_perm(g) == 1


def test_pure_kernel_handles_values_beyond_64_bits():
    n = 21
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    assert oracle.count_labelings(Graph(n, pairs)) == math.factorial(n)  # 21! > 2^64
    # without a matching of m edges the only possible gap is the partner of
    # the first vertex, in second place: 2m first pairs, 19! orders after them
    for m in (1, 5, 10):
        matching = {(2 * i, 2 * i + 1) for i in range(m)}
        g = Graph(n, [e for e in pairs if e not in matching])
        assert oracle.count_labelings(g) == math.factorial(n) - 2 * m * math.factorial(n - 2)



# a tree, a sparse graph and a dense one (the complement of an 8-cycle),
# each under the kernel engine(g) names for it
ROUTED_GRAPHS = {
    "tree": comb(2, 4, 2),
    "connected-set": two_cycles(3, 3, 2),
    "first-gap": Graph(8, [(u, v) for v in range(8) for u in range(v) if v - u not in (1, 7)]),
}


@pytest.mark.parametrize("kind", ROUTED_GRAPHS)
def test_every_query_reaches_the_kernel_the_routing_rule_names(monkeypatch, kind):
    g = ROUTED_GRAPHS[kind]
    assert oracle.engine(g) == kind
    masks, n = g.masks, g.n
    w = g.adj[0][0]
    u, v = 1, n - 1
    calls = []

    def recorded(name, kernel):
        def run(*args):
            calls.append(name)
            return kernel(*args)
        return run

    monkeypatch.setattr(oracle, "_KERNELS", {k: recorded(k, f) for k, f in oracle._KERNELS.items()})
    monkeypatch.setattr(oracle, "dp_completions", recorded("search", dp_completions))
    from_0, from_0w = dp_resume(masks, n, 1), dp_resume(masks, n, 1 | 1 << w)
    constrained = dp_resume(masks, n, 1, u, v)
    # the rule: an unconstrained query on a tree or a first-gap graph takes
    # that graph's kernel set by set; a connected-set graph, or before,
    # takes one search
    single = ["search"] if kind == "connected-set" else [kind]
    queries = [
        (lambda: [oracle.count_labelings(g)], single, [dp_total(masks, n)]),
        (lambda: [oracle.count_labelings_from(g, 0)], single, [from_0]),
        (lambda: [oracle.count_completions(g, [0, w])], single, [from_0w]),
        (lambda: oracle.count_completions_each(g, [[0]]), single, [from_0]),
        (lambda: oracle.count_completions_each(g, [[0], [0, w]]),
         ["search"] if kind == "connected-set" else [kind, kind], [from_0, from_0w]),
        (lambda: oracle.count_completions_each(g, [[0]], before=(u, v)), ["search"], [constrained]),
        (lambda: [oracle.count_labelings_from_before(g, 0, u, v)], ["search"], [constrained]),
    ]
    for query, route, expected in queries:
        calls.clear()
        assert query() == expected
        assert calls == route


def test_no_query_searches_the_whole_graph_once_it_is_built(monkeypatch):
    # g is connected, and that was decided when it was built; a query may
    # ask for that flag (within None) and search its own labeled sets, to
    # check that each is connected, but no other vertex set
    searched = []

    def recording(g, within=None):
        searched.append(within)
        return is_connected(g, within)

    monkeypatch.setattr(oracle, "is_connected", recording)
    for g in ROUTED_GRAPHS.values():
        w = g.adj[0][0]
        u, v = 1, g.n - 1
        queries = [
            (lambda: oracle.count_labelings(g), []),
            (lambda: oracle.count_labelings_perm(g), []),
            (lambda: oracle.count_labelings_from(g, 0), [1]),
            (lambda: oracle.count_completions(g, [0, w]), [1 | 1 << w]),
            (lambda: oracle.count_completions_each(g, [[0], [0, w]]), [1, 1 | 1 << w]),
            (lambda: oracle.count_completions_each(g, [[0]], before=(u, v)), [1]),
            (lambda: oracle.count_labelings_from_before(g, 0, u, v), [1]),
        ]
        for query, labeled in queries:
            searched.clear()
            query()
            assert searched and set(searched) <= {None, *labeled}
        searched.clear()
        oracle.engine(g)
        assert set(searched) <= {None}
