"""Cross-verification harness: every closed form against its recurrence,
and every formula against the brute-force oracle, over configurable grids.

Each family function returns a list of Check records; report() folds them
into a JSON-friendly dict. The CLI exposes these through the verify
subcommand, whose grid defaults are the signature defaults here, and the
acceptance tests run them with the grids pinned to the
package's guarantees. Progress (one line per instance group) goes through
an optional callback so the CLI can stream it to stderr and tests can keep
it silent.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

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


@dataclass(frozen=True)
class Check:
    family: str
    instance: str
    kind: str
    expected: str
    actual: str
    ok: bool


def _text(value) -> str:
    return to_decimal(value) if isinstance(value, int) else str(value)


def _check(out: list[Check], family: str, instance: str, kind: str, expected, actual) -> None:
    out.append(Check(family, instance, kind, _text(expected), _text(actual), expected == actual))


def verify_trees(max_h: int = 4, max_m: int = 4, oracle_vertex_limit: int = 22, progress=None) -> list[Check]:
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
            if n <= oracle_vertex_limit:
                g = perfect_tree(h, m)
                _check(out, "tree", inst, "count_perfect_tree == oracle",
                       oracle.count_labelings(g), trees.count_perfect_tree(h, m))
                by_depth: dict[int, list[int]] = {}
                for v, (d, _) in g.coords.items():
                    by_depth.setdefault(d, []).append(v)
                for d, vs in sorted(by_depth.items()):
                    counts = {oracle.count_labelings_from(g, v) for v in vs}
                    _check(out, "tree", f"{inst} depth={d}", "per-start counts equal across a depth",
                           1, len(counts))
                    _check(out, "tree", f"{inst} k={d}", "t_rec == oracle per-start",
                           counts.pop(), trees.t_rec(h, m, d))
            for k in range(h):
                g = tree_minus_child(h, m, k)
                if g.n <= oracle_vertex_limit:
                    _check(out, "tree", f"{inst} k={k}", "s_rec == oracle from bereaved parent",
                           oracle.count_labelings_from(g, vertex_at(g, "bereaved")),
                           trees.s_rec(h, m, k))
    return out


def verify_combs(max_mn: int = 16, lemma_max_m: int = 8, lemma_max_n: int = 6, progress=None) -> list[Check]:
    out: list[Check] = []
    for m in range(1, max_mn // 2 + 1):
        for n in range(2, max_mn // m + 1):
            if progress:
                progress(f"combs (m={m}, n={n})")
            for k in range(1, n + 1):
                inst = f"(m={m}, n={n}, k={k})"
                g = comb(m, n, k)
                closed = combs.count_comb(m, n, k)
                _check(out, "comb", inst, "count_comb == oracle",
                       oracle.count_labelings(g), closed)
                _check(out, "comb", inst, "count_comb == sum of count_from_vertex",
                       sum(combs.count_from_vertex(m, n, k, j, s)
                           for j in range(1, m + 1) for s in range(1, n + 1)),
                       closed)
                _check(out, "comb", inst, "count_comb mirror symmetry",
                       combs.count_comb(m, n, n - k + 1), closed)
                _check(out, "comb", inst, "t_spine == oracle from (1, k)",
                       oracle.count_labelings_from(g, vertex_at(g, (1, k))),
                       combs.t_spine(m, n, k))
    for m in range(0, lemma_max_m + 1):
        for n in range(2, lemma_max_n + 1):
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


def verify_torus(max_exact_n: int = 12, max_oracle_n: int = 8, progress=None) -> list[Check]:
    out: list[Check] = []
    for n in range(2, max_exact_n + 1):
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
        _check(out, "torus", inst, "count_torus == oracle",
               oracle.count_labelings(torus_graph(n)), torus.count_torus(n))
        if n < 2:
            continue
        for k in range(1, n + 1):
            g, labeled = torus.torus_partial_state_graph(n, ("a", k))
            _check(out, "torus", f"{inst} k={k}", "a_rec == oracle completions",
                   oracle.count_completions(g, labeled), torus.a_rec(n, k))
        for s in range(n):
            for t in range(n - s):
                if s + t > n - 1:
                    continue
                g, labeled = torus.torus_partial_state_graph(n, ("b", s, t))
                _check(out, "torus", f"{inst} s={s} t={t}", "b_rec == oracle completions",
                       oracle.count_completions(g, labeled), torus.b_rec(n, s, t))
    _check(out, "torus", "(n=2)", "reference value", 16, torus.count_torus(2))
    _check(out, "torus", "(n=3)", "reference value", 360, torus.count_torus(3))
    return out


def verify_twocycles(max_total: int = 16, max_part: int = 8, lemma_total: int = 12, progress=None) -> list[Check]:
    out: list[Check] = []
    for a1 in range(2, max_part + 1):
        for a2 in range(2, max_part + 1):
            for a3 in range(2, max_part + 1):
                total = a1 + a2 + a3
                if total > max_total:
                    continue
                inst = f"({a1}, {a2}, {a3})"
                if progress and a3 == 2:
                    progress(f"twocycles ({a1}, {a2}, *)")
                count = twocycles.count_two_cycles(a1, a2, a3)
                g = two_cycles(a1, a2, a3)
                _check(out, "twocycles", inst, "count_two_cycles == oracle",
                       oracle.count_labelings(g), count)
                _check(out, "twocycles", inst, "a1 <-> a3 symmetry",
                       twocycles.count_two_cycles(a3, a2, a1), count)
                if total > lemma_total:
                    continue
                left = vertex_at(g, "left_junction")
                right = vertex_at(g, "right_junction")
                _check(out, "twocycles", inst, "term_A == oracle from left junction",
                       oracle.count_labelings_from(g, left), twocycles.term_A(a1, a2, a3))
                for s in range(2, a2):
                    _check(out, "twocycles", f"{inst} s={s}", "term_B == constrained oracle",
                           oracle.count_labelings_from_before(g, vertex_at(g, (2, s)), left, right),
                           twocycles.term_B(a1, a2, a3, s))
                for s in range(1, a1 + 1):
                    _check(out, "twocycles", f"{inst} s={s}", "term_C == constrained oracle",
                           oracle.count_labelings_from_before(g, vertex_at(g, (1, s)), left, right),
                           twocycles.term_C(a1, a2, a3, s))
                for s in range(1, a3 + 1):
                    _check(out, "twocycles", f"{inst} s={s}", "swapped term_C == constrained oracle",
                           oracle.count_labelings_from_before(g, vertex_at(g, (3, s)), left, right),
                           twocycles.term_C(a3, a2, a1, s))
    return out


def report(checks: list[Check]) -> dict:
    """Fold check records into the JSON report the CLI prints."""
    failed = [c for c in checks if not c.ok]
    return {
        "total": len(checks),
        "failed": len(failed),
        "ok": not failed,
        "failures": [asdict(c) for c in failed],
    }
