"""Command line interface.

Subcommands: count (closed-form counts per family), oracle (brute-force
counts for an edge-list file), verify (cross-verification harness, exit
status reports the outcome), series (generating function coefficients as
CSV or JSON) and oeis (b-file exports of the two sequences with published
candidates). Counts print as decimal strings. Exit codes: 0 success (and,
for verify, all checks passing), 1 domain errors, instances too large to
finish (recursion or memory exhausted) or failed verification, 2 usage
errors.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import dataclass

from . import combs, oracle, series, torus, trees, twocycles, verify
from .bigmath import to_decimal
from .graphs import Comb, parse_edge_list, PerfectTree, Torus, TwoCycles

__all__ = ["CommandResult", "main", "run"]


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    stdout: str


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walklabel",
        description="Exact counting of random walk labelings on structured graph families.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="closed-form count for one family instance")
    fam = count.add_subparsers(dest="family", required=True)
    tree = fam.add_parser("tree", help="perfect m-ary tree of height h")
    tree.add_argument("--h", type=int, required=True)
    tree.add_argument("--m", type=int, required=True)
    comb = fam.add_parser("comb", help="m teeth of n vertices joined at position k")
    comb.add_argument("--m", type=int, required=True)
    comb.add_argument("--n", type=int, required=True)
    comb.add_argument("--k", type=int, required=True)
    torus_p = fam.add_parser("torus", help="two n-cycles joined by a matching")
    torus_p.add_argument("--n", type=int, required=True)
    tc = fam.add_parser("twocycles", help="two cycles sharing a path of a2 vertices")
    tc.add_argument("--a1", type=int, required=True)
    tc.add_argument("--a2", type=int, required=True)
    tc.add_argument("--a3", type=int, required=True)
    for family_parser in (tree, comb, torus_p, tc):
        family_parser.add_argument("--json", action="store_true",
                                   help="print a JSON record instead of the bare count")

    orc = sub.add_parser("oracle", help="brute-force count for an edge-list file")
    orc.add_argument("--input", required=True, help="edge-list file (first line: vertex count)")
    orc.add_argument("--alg", choices=("dp", "perm"), default="dp")
    orc.add_argument("--from", dest="start", type=int, default=None, metavar="V",
                     help="count only labelings starting at vertex V")
    orc.add_argument("--completions", default=None, metavar="V1,V2,...",
                     help="count completions of the given already-labeled vertex set")

    ver = sub.add_parser("verify", help="run the cross-verification harness")
    ver.add_argument("--family", choices=("tree", "comb", "torus", "twocycles", "all"), required=True)
    ver.add_argument("--max-h", type=int, default=4, help="tree: maximum height")
    ver.add_argument("--max-m", type=int, default=4, help="tree: maximum arity")
    ver.add_argument("--max-vertices", type=int, default=22, help="tree: oracle size cap")
    ver.add_argument("--max-mn", type=int, default=16, help="comb: maximum m*n")
    ver.add_argument("--max-n", type=int, default=12, help="torus: closed-form range")
    ver.add_argument("--max-oracle-n", type=int, default=8, help="torus: oracle range")
    ver.add_argument("--max-total", type=int, default=16, help="twocycles: maximum a1+a2+a3")
    ver.add_argument("--max-lemma-total", type=int, default=12,
                     help="twocycles: per-start lemma oracle range")

    ser = sub.add_parser("series", help="generating function coefficients")
    ser.add_argument("--degree", type=int, required=True, help="total degree bound")
    ser.add_argument("--format", choices=("csv", "json"), default="csv")

    oeis = sub.add_parser("oeis", help="b-file export of a catalogued sequence")
    oeis.add_argument("sequence", choices=("tree-root", "comb-row"))
    oeis.add_argument("--count", type=int, required=True, help="number of terms")

    return parser


def _cmd_count(args) -> str:
    if args.family == "tree":
        spec = PerfectTree(args.h, args.m)
        value = trees.count_perfect_tree(args.h, args.m)
        params = {"h": args.h, "m": args.m}
    elif args.family == "comb":
        spec = Comb(args.m, args.n, args.k)
        value = combs.count_comb(args.m, args.n, args.k)
        params = {"m": args.m, "n": args.n, "k": args.k}
    elif args.family == "torus":
        spec = Torus(args.n)
        value = torus.count_torus(args.n)
        params = {"n": args.n}
    else:
        spec = TwoCycles(args.a1, args.a2, args.a3)
        value = twocycles.count_two_cycles(args.a1, args.a2, args.a3)
        params = {"a1": args.a1, "a2": args.a2, "a3": args.a3}
    del spec  # construction above validated the parameters
    if args.json:
        return json.dumps({"family": args.family, "params": params, "count": to_decimal(value)}) + "\n"
    return to_decimal(value) + "\n"


def _cmd_oracle(args) -> str:
    with open(args.input, encoding="utf-8") as fh:
        g = parse_edge_list(fh.read())
    if args.start is not None and args.completions is not None:
        raise ValueError("--from and --completions are mutually exclusive")
    if args.alg == "perm":
        if args.start is not None or args.completions is not None:
            raise ValueError("the permutation oracle only counts totals")
        return to_decimal(oracle.count_labelings_perm(g)) + "\n"
    if args.start is not None:
        return to_decimal(oracle.count_labelings_from(g, args.start)) + "\n"
    if args.completions is not None:
        try:
            labeled = [int(part) for part in args.completions.split(",") if part.strip() != ""]
        except ValueError:
            raise ValueError(f"invalid labeled set: {args.completions!r}") from None
        return to_decimal(oracle.count_completions(g, labeled)) + "\n"
    return to_decimal(oracle.count_labelings(g)) + "\n"


def _cmd_verify(args, progress) -> tuple[int, str]:
    if args.family == "tree":
        checks = verify.verify_trees(args.max_h, args.max_m, args.max_vertices, progress)
    elif args.family == "comb":
        checks = verify.verify_combs(args.max_mn, progress=progress)
    elif args.family == "torus":
        checks = verify.verify_torus(args.max_n, args.max_oracle_n, progress)
    elif args.family == "twocycles":
        checks = verify.verify_twocycles(args.max_total, lemma_total=args.max_lemma_total,
                                         progress=progress)
    else:
        checks = (
            verify.verify_trees(args.max_h, args.max_m, args.max_vertices, progress)
            + verify.verify_combs(args.max_mn, progress=progress)
            + verify.verify_torus(args.max_n, args.max_oracle_n, progress)
            + verify.verify_twocycles(args.max_total, lemma_total=args.max_lemma_total,
                                      progress=progress)
        )
    rep = verify.report(checks)
    return (0 if rep["ok"] else 1), json.dumps(rep, indent=2) + "\n"


def _cmd_series(args) -> str:
    if args.degree < 0:
        raise ValueError("parameter out of range: degree must be >= 0")
    expansion = series.expand_rational(series.two_cycles_gf(), args.degree)
    rows = series.export_coefficients(expansion)
    if args.format == "json":
        return json.dumps({
            "degree": args.degree,
            "terms": [
                {"a1": a1, "a2": a2, "a3": a3, "coefficient": to_decimal(c)}
                for a1, a2, a3, c in rows
            ],
        }) + "\n"
    buf = io.StringIO()
    buf.write("a1,a2,a3,coefficient\n")
    for a1, a2, a3, c in rows:
        buf.write(f"{a1},{a2},{a3},{to_decimal(c)}\n")
    return buf.getvalue()


def _cmd_oeis(args) -> str:
    if args.count < 1:
        raise ValueError("parameter out of range: --count must be >= 1")
    if args.sequence == "tree-root":
        values = trees.oeis_tree_root_sequence(args.count)
    else:
        values = combs.oeis_comb_row_sequence(args.count)
    return "".join(f"{i} {to_decimal(v)}\n" for i, v in enumerate(values, start=1))


def run(argv: list[str] | None = None) -> CommandResult:
    """Execute one CLI invocation and capture its stdout payload."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the usage message to stderr
        return CommandResult(int(exc.code or 0), "")
    progress = None if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    try:
        if args.command == "count":
            return CommandResult(0, _cmd_count(args))
        if args.command == "oracle":
            return CommandResult(0, _cmd_oracle(args))
        if args.command == "verify":
            code, payload = _cmd_verify(args, progress)
            return CommandResult(code, payload)
        if args.command == "series":
            return CommandResult(0, _cmd_series(args))
        return CommandResult(0, _cmd_oeis(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CommandResult(1, "")
    except RecursionError:
        print("error: instance too large: recursion limit exceeded", file=sys.stderr)
        return CommandResult(1, "")
    except MemoryError:
        print("error: instance too large: out of memory", file=sys.stderr)
        return CommandResult(1, "")


def main() -> int:
    result = run()
    sys.stdout.write(result.stdout)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
