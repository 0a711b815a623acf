"""Command line interface.

Subcommands: count (closed-form counts per family), oracle (brute-force
counts for an edge-list file), verify (cross-verification harness, exit
status reports the outcome), series (generating function coefficients as
CSV or JSON) and oeis (b-file exports of the two sequences with published
candidates). Counts print as decimal strings. Exit codes: 0 success (and,
for verify, all checks passing), 1 domain errors, instances too large to
finish (recursion or memory exhausted) or failed verification, 2 usage
errors.

One table, _FAMILIES, drives both count and verify: per family it names
the count parameters and closed form, and the verify function with its
grid flags. The count functions validate their own parameters. The verify
grid defaults live in the verify functions' signatures alone: a flag the
user leaves out is not passed on."""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import dataclass
from typing import Callable

from . import combs, oracle, series, torus, trees, twocycles, verify
from .bigmath import to_decimal
from .graphs import parse_edge_list

__all__ = ["CommandResult", "main", "run"]


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    stdout: str


@dataclass(frozen=True)
class _Family:
    """One family as the CLI exposes it: the count subcommand's integer
    parameters and closed form, and the verify function with its grid
    flags as (flag, keyword, help). count and verify look their target up
    at call time, so a wrapper bound later to the module global sees the
    call."""

    name: str
    help: str
    params: tuple[str, ...]
    count: Callable[..., int]
    verify: Callable[..., list]
    grid: tuple[tuple[str, str, str], ...]


_FAMILIES = (
    _Family("tree", "perfect m-ary tree of height h", ("h", "m"),
            lambda *p: trees.count_perfect_tree(*p),
            lambda **kw: verify.verify_trees(**kw),
            (("--max-h", "max_h", "tree: maximum height"),
             ("--max-m", "max_m", "tree: maximum arity"),
             ("--max-vertices", "oracle_vertex_limit", "tree: oracle size cap"))),
    _Family("comb", "m teeth of n vertices joined at position k", ("m", "n", "k"),
            lambda *p: combs.count_comb(*p),
            lambda **kw: verify.verify_combs(**kw),
            (("--max-mn", "max_mn", "comb: maximum m*n"),)),
    _Family("torus", "two n-cycles joined by a matching", ("n",),
            lambda *p: torus.count_torus(*p),
            lambda **kw: verify.verify_torus(**kw),
            (("--max-n", "max_exact_n", "torus: closed-form range"),
             ("--max-oracle-n", "max_oracle_n", "torus: oracle range"))),
    _Family("twocycles", "two cycles sharing a path of a2 vertices", ("a1", "a2", "a3"),
            lambda *p: twocycles.count_two_cycles(*p),
            lambda **kw: verify.verify_twocycles(**kw),
            (("--max-total", "max_total", "twocycles: maximum a1+a2+a3"),
             ("--max-lemma-total", "lemma_total", "twocycles: per-start lemma oracle range"))),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walklabel",
        description="Exact counting of random walk labelings on structured graph families.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="closed-form count for one family instance")
    fam = count.add_subparsers(dest="family", required=True)
    for family in _FAMILIES:
        family_parser = fam.add_parser(family.name, help=family.help)
        for name in family.params:
            family_parser.add_argument(f"--{name}", type=int, required=True)
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
    ver.add_argument("--family", choices=[f.name for f in _FAMILIES] + ["all"], required=True)
    for family in _FAMILIES:
        for flag, _, help_text in family.grid:
            ver.add_argument(flag, type=int, help=help_text)

    ser = sub.add_parser("series", help="generating function coefficients")
    ser.add_argument("--degree", type=int, required=True, help="total degree bound")
    ser.add_argument("--format", choices=("csv", "json"), default="csv")

    oeis = sub.add_parser("oeis", help="b-file export of a catalogued sequence")
    oeis.add_argument("sequence", choices=("tree-root", "comb-row"))
    oeis.add_argument("--count", type=int, required=True, help="number of terms")

    return parser


def _cmd_count(args) -> str:
    family = next(f for f in _FAMILIES if f.name == args.family)
    params = {name: getattr(args, name) for name in family.params}
    value = to_decimal(family.count(*params.values()))
    if args.json:
        return json.dumps({"family": args.family, "params": params, "count": value}) + "\n"
    return value + "\n"


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
    checks = []
    for family in _FAMILIES:
        if args.family in (family.name, "all"):
            # a flag left out keeps the verify function's own default
            given = {kw: getattr(args, flag[2:].replace("-", "_")) for flag, kw, _ in family.grid}
            checks += family.verify(progress=progress, **{kw: v for kw, v in given.items() if v is not None})
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
