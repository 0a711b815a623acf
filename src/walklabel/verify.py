"""Cross-verification harness: every closed form against its recurrence,
and every formula against the brute-force oracle, over configurable grids.

Each family function returns a list of Check records; report() folds them
into a JSON-friendly dict. The CLI exposes these through the verify
subcommand, whose grid flags name the keywords here (--max-vertices is
max_vertices) and whose grid defaults are the signature defaults, and the
acceptance tests run them with the grids pinned to the
package's guarantees. Progress (one line per instance group) goes through
an optional callback so the CLI can stream it to stderr and tests can keep
it silent.

Two families come in mirror pairs, and the oracle searches one graph of
each pair, its canonical member. Swapping rows 1 and 3 carries
S(a1, a2, a3) onto S(a3, a2, a1) and fixes both junctions, so S(a1, a2, a3)
reads its total and its constrained counts from S(min(a1, a3), a2,
max(a1, a3)), with rows 1 and 3 swapped when a1 > a3. Reversing every tooth
carries C(m, n, k) onto C(m, n, n - k + 1) and (1, k) onto (1, n - k + 1),
so a comb reads both its oracle counts from C(m, n, min(k, n - k + 1)).
The search is a function defined in each call and wrapped in
functools.cache, so its answers live until the call returns.
count_two_cycles, term_C and count_comb go through functools.cache
wrappers of the module functions, made at the start of each call, so each
is evaluated once per argument in a call and a monkeypatch is still seen.
Counts are invariant under isomorphism, so every check keeps its expected
and actual values, and the checks, their order and the report are those
of one search per instance.

A two-cycle graph within max_lemma_total is searched once, not twice: its
total comes from its before=(left, right) batch. Let C(s) count the
labelings from s that label the left junction first. Reversing all three
rows, sigma: (r, p) -> (r, a_r + 1 - p), is an automorphism that swaps the
junctions, so the labelings from s number C(s) + C(sigma(s)) and the
total is twice the sum of C over every start. C(right junction) is 0, and
the batch holds every other start. The total is the same integer as a
search of its own gives, so every check keeps its values.

A torus and a perfect tree take their oracle totals from their per-start
batches too. Rotations and the row swap act transitively on the vertices
of the torus C2 x Cn, so for n >= 2 its total is 2n times the count from
(1, 1), the batch's a(n, 1); n = 1 has no batch and keeps its own search.
A perfect tree's batch holds every start, and every labeling has exactly
one start, so its total is the sum of the batch.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from . import combs, oracle, torus, trees, twocycles
from .bigmath import to_decimal
from .graphs import comb, perfect_tree, torus as torus_graph, tree_minus_child, two_cycles, vertex_at

__all__ = [
    "Check",
    "report",
    "verify_combs",
    "verify_torus",
    "verify_trees",
    "verify_twocycles",
]


# One comparison; expected and actual keep the values compared (ints,
# tuples, bools), which report() prints only for failures.
Check = namedtuple("Check", "family instance kind expected actual ok")


def _text(value) -> str:
    return to_decimal(value) if isinstance(value, int) else str(value)


def _check(out: list[Check], family: str, instance: str, kind: str, expected, actual) -> None:
    out.append(Check(family, instance, kind, expected, actual, expected == actual))


def verify_trees(max_h: int = 4, max_m: int = 4, max_vertices: int = 22, progress=None) -> list[Check]:
    out: list[Check] = []
    for m in range(2, max_m + 1):
        for h in range(max_h + 1):
            inst = f"(h={h}, m={m})"
            if progress:
                progress(f"trees {inst}")
            for k in range(h + 1):
                _check(out, "tree", f"{inst} k={k}", "t_rec == t_closed",
                       trees.t_rec(h, m, k), trees.t_closed(h, m, k))
            for k in range(h):
                _check(out, "tree", f"{inst} k={k}", "s_rec == s_closed",
                       trees.s_rec(h, m, k), trees.s_closed(h, m, k))
            n = (m ** (h + 1) - 1) // (m - 1)
            if n <= max_vertices:
                g = perfect_tree(h, m)
                from_each = oracle.count_completions_each(g, [[v] for v in range(g.n)])
                # every labeling has one start
                _check(out, "tree", inst, "count_perfect_tree == oracle",
                       sum(from_each), trees.count_perfect_tree(h, m))
                by_depth: dict[int, list[int]] = {}
                for v, (d, _) in g.coords.items():
                    by_depth.setdefault(d, []).append(v)
                for d, vs in sorted(by_depth.items()):
                    counts = {from_each[v] for v in vs}
                    _check(out, "tree", f"{inst} depth={d}", "per-start counts equal across a depth",
                           1, len(counts))
                    _check(out, "tree", f"{inst} k={d}", "t_rec == oracle per-start",
                           counts.pop(), trees.t_rec(h, m, d))
            for k in range(h):
                # the subtree tree_minus_child drops has height h - k - 1
                if n - (m ** (h - k) - 1) // (m - 1) <= max_vertices:
                    g = tree_minus_child(h, m, k)
                    _check(out, "tree", f"{inst} k={k}", "s_rec == oracle from bereaved parent",
                           oracle.count_labelings_from(g, vertex_at(g, "bereaved")),
                           trees.s_rec(h, m, k))
    return out


# The spine convolution identity is checked on one fixed grid whatever
# max_mn is: m = 0..8, n = 2..6 and every k, a constant 180 checks and
# about 1.3 ms (2-core x86) on every verify_combs call.
_LEMMA_MAX_M, _LEMMA_MAX_N = 8, 6


def verify_combs(max_mn: int = 16, progress=None) -> list[Check]:
    out: list[Check] = []
    count_comb = cache(combs.count_comb)

    @cache
    def searched(m, n, k):
        g = comb(m, n, k)
        return oracle.count_labelings(g), oracle.count_labelings_from(g, vertex_at(g, (1, k)))

    for m in range(1, max_mn // 2 + 1):
        for n in range(2, max_mn // m + 1):
            if progress:
                progress(f"combs (m={m}, n={n})")
            for k in range(1, n + 1):
                inst = f"(m={m}, n={n}, k={k})"
                labelings, from_spine = searched(m, n, min(k, n - k + 1))
                closed = count_comb(m, n, k)
                _check(out, "comb", inst, "count_comb == oracle", labelings, closed)
                _check(out, "comb", inst, "count_comb == sum of count_from_vertex",
                       sum(combs.count_from_vertex(m, n, k, j, s)
                           for j in range(1, m + 1) for s in range(1, n + 1)),
                       closed)
                _check(out, "comb", inst, "count_comb mirror symmetry", count_comb(m, n, n - k + 1), closed)
                _check(out, "comb", inst, "t_spine == oracle from (1, k)",
                       from_spine, combs.t_spine(m, n, k))
    for m in range(0, _LEMMA_MAX_M + 1):
        for n in range(2, _LEMMA_MAX_N + 1):
            for k in range(1, n + 1):
                _check(out, "comb", f"(m={m}, n={n}, k={k})", "spine convolution identity",
                       True, combs.lemma_pac_check(m, n, k))
    single = combs.corollary_comb(2)
    _check(out, "comb", "(m=2)", "single-column corollary disagreement recorded (4 != 8)",
           (4, 8, False), tuple(single))
    double = combs.corollary_double_comb(2)
    _check(out, "comb", "(m=2)", "double comb corollary agreement (112)",
           (112, 112, True), tuple(double))
    return out


def verify_torus(max_n: int = 12, max_oracle_n: int = 8, progress=None) -> list[Check]:
    out: list[Check] = []
    for n in range(2, max_n + 1):
        inst = f"(n={n})"
        if progress:
            progress(f"torus {inst} exact")
        for k in range(1, n + 1):
            _check(out, "torus", f"{inst} k={k}", "a_rec == a_closed",
                   torus.a_rec(n, k), torus.a_closed(n, k))
        for s in range(n):
            for t in range(n):
                _check(out, "torus", f"{inst} s={s} t={t}", "b_rec == b_closed",
                       torus.b_rec(n, s, t), torus.b_closed(n, s, t))
                if s + t >= n:
                    _check(out, "torus", f"{inst} s={s} t={t}", "b zero beyond one row",
                           0, torus.b_rec(n, s, t))
        _check(out, "torus", inst, "count_torus == 2n a(n, 1)",
               2 * n * torus.a_rec(n, 1), torus.count_torus(n))
    for n in range(1, max_oracle_n + 1):
        inst = f"(n={n})"
        if progress:
            progress(f"torus {inst} oracle")
        g = torus_graph(n)
        if n < 2:
            _check(out, "torus", inst, "count_torus == oracle",
                   oracle.count_labelings(g), torus.count_torus(n))
            continue
        states = [("a", k) for k in range(1, n + 1)] + [("b", s, t) for s in range(n) for t in range(n - s)]
        labeled = [[vertex_at(g, c) for c in torus.torus_state(n, state)] for state in states]
        completions = dict(zip(states, oracle.count_completions_each(g, labeled)))
        # ("a", 1) labels the start (1, 1) alone, and every vertex is a start like it
        _check(out, "torus", inst, "count_torus == oracle",
               2 * n * completions["a", 1], torus.count_torus(n))
        for k in range(1, n + 1):
            _check(out, "torus", f"{inst} k={k}", "a_rec == oracle completions",
                   completions["a", k], torus.a_rec(n, k))
        for s in range(n):
            for t in range(n - s):
                _check(out, "torus", f"{inst} s={s} t={t}", "b_rec == oracle completions",
                       completions["b", s, t], torus.b_rec(n, s, t))
    _check(out, "torus", "(n=2)", "reference value", 16, torus.count_torus(2))
    _check(out, "torus", "(n=3)", "reference value", 360, torus.count_torus(3))
    return out


def verify_twocycles(max_total: int = 16, max_part: int = 8, max_lemma_total: int = 12, progress=None) -> list[Check]:
    out: list[Check] = []
    count_two_cycles = cache(twocycles.count_two_cycles)
    term_c = cache(twocycles.term_C)

    @cache
    def searched(a1, a2, a3):
        # the total and the left-first batch of S(a1, a2, a3), a1 <= a3
        g = two_cycles(a1, a2, a3)
        if a1 + a2 + a3 > max_lemma_total:
            return oracle.count_labelings(g), None
        left = vertex_at(g, "left_junction")
        right = vertex_at(g, "right_junction")
        # (2, 1) is the left junction, and a source holding it gets its plain count: term_A
        starts = [(2, s) for s in range(1, a2)]
        starts += [(row, s) for row, a in ((1, a1), (3, a3)) for s in range(1, a + 1)]
        constrained = dict(zip(starts, oracle.count_completions_each(
            g, [[vertex_at(g, start)] for start in starts], before=(left, right))))
        # every start but the right junction, whose count is 0;
        # the reflection that swaps the junctions doubles the sum
        return 2 * sum(constrained.values()), constrained

    for a1 in range(2, max_part + 1):
        for a2 in range(2, max_part + 1):
            for a3 in range(2, max_part + 1):
                total = a1 + a2 + a3
                if total > max_total:
                    continue
                inst = f"({a1}, {a2}, {a3})"
                if progress and a3 == 2:
                    progress(f"twocycles ({a1}, {a2}, *)")
                labelings, constrained = searched(min(a1, a3), a2, max(a1, a3))
                count = count_two_cycles(a1, a2, a3)
                _check(out, "twocycles", inst, "count_two_cycles == oracle", labelings, count)
                _check(out, "twocycles", inst, "a1 <-> a3 symmetry", count_two_cycles(a3, a2, a1), count)
                if total > max_lemma_total:
                    continue
                if a1 > a3:
                    # the row swap (1, s) <-> (3, s) carries S(a3, a2, a1)
                    # onto S(a1, a2, a3) and fixes both junctions
                    constrained = {(4 - row, s): c for (row, s), c in constrained.items()}
                _check(out, "twocycles", inst, "term_A == oracle from left junction",
                       constrained[2, 1], twocycles.term_A(a1, a2, a3))
                for s in range(2, a2):
                    _check(out, "twocycles", f"{inst} s={s}", "term_B == constrained oracle",
                           constrained[2, s], twocycles.term_B(a1, a2, a3, s))
                for s in range(1, a1 + 1):
                    _check(out, "twocycles", f"{inst} s={s}", "term_C == constrained oracle",
                           constrained[1, s], term_c(a1, a2, a3, s))
                for s in range(1, a3 + 1):
                    _check(out, "twocycles", f"{inst} s={s}", "swapped term_C == constrained oracle",
                           constrained[3, s], term_c(a3, a2, a1, s))
    return out


def report(checks: list[Check]) -> dict:
    """Fold check records into the JSON report the CLI prints."""
    failed = [c for c in checks if not c.ok]
    return {
        "total": len(checks),
        "failed": len(failed),
        "ok": not failed,
        "failures": [{**c._asdict(), "expected": _text(c.expected), "actual": _text(c.actual)} for c in failed],
    }
