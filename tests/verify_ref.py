"""The verify loops in the shape they were first written: the references
verify.verify_combs and verify.verify_twocycles are checked against.

- verify_combs: one oracle search of C(m, n, k) per k, which
  verify.verify_combs shares between k and its tooth-reversal mirror
  n - k + 1.
- verify_twocycles: one oracle search of S(a1, a2, a3) per ordered triple,
  which verify.verify_twocycles shares between (a1, a2, a3) and its
  row-swap mirror (a3, a2, a1).

Both return the same Check records in the same order, and print the same
progress lines.
"""

from __future__ import annotations

from walklabel import combs, oracle, twocycles
from walklabel.graphs import comb, two_cycles, vertex_at
from walklabel.verify import _LEMMA_MAX_M, _LEMMA_MAX_N, Check, _check

__all__ = ["verify_combs", "verify_twocycles"]


def verify_combs(max_mn: int = 16, progress=None) -> list[Check]:
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


def verify_twocycles(max_total: int = 16, max_part: int = 8, max_lemma_total: int = 12, progress=None) -> list[Check]:
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
                if total > max_lemma_total:
                    continue
                left = vertex_at(g, "left_junction")
                right = vertex_at(g, "right_junction")
                # (2, 1) is the left junction, and a source holding it gets its plain count: term_A
                starts = [(2, s) for s in range(1, a2)]
                starts += [(row, s) for row, a in ((1, a1), (3, a3)) for s in range(1, a + 1)]
                constrained = dict(zip(starts, oracle.count_completions_each(
                    g, [[vertex_at(g, start)] for start in starts], before=(left, right))))
                _check(out, "twocycles", inst, "term_A == oracle from left junction",
                       constrained[2, 1], twocycles.term_A(a1, a2, a3))
                for s in range(2, a2):
                    _check(out, "twocycles", f"{inst} s={s}", "term_B == constrained oracle",
                           constrained[2, s], twocycles.term_B(a1, a2, a3, s))
                for s in range(1, a1 + 1):
                    _check(out, "twocycles", f"{inst} s={s}", "term_C == constrained oracle",
                           constrained[1, s], twocycles.term_C(a1, a2, a3, s))
                for s in range(1, a3 + 1):
                    _check(out, "twocycles", f"{inst} s={s}", "swapped term_C == constrained oracle",
                           constrained[3, s], twocycles.term_C(a3, a2, a1, s))
    return out
