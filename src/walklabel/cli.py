"""Command line interface.

Subcommands: count (closed-form counts per family), oracle (brute-force
counts for an edge-list file), verify (cross-verification harness, exit
status reports the outcome), series (generating function coefficients as
CSV or JSON) and oeis (b-file exports of the two sequences with published
candidates). Counts print as decimal strings. Exit codes: 0 success (and,
for verify, all checks passing), 1 domain errors, instances too large to
finish (recursion or memory exhausted, or a series degree above 100) or
failed verification, 2 usage errors.

One table, _FAMILIES, drives both count and verify: per family it names
the count parameters and closed form, and the verify function with its
grid flags as (flag, help) pairs. Each grid flag's argparse dest is the
verify function's keyword of the same name, so a given flag passes straight
through. The count functions validate their own parameters; verify
rejects a negative grid flag before any check runs. The verify grid
defaults live in the verify functions' signatures alone: a flag the user
leaves out is not passed on. Each subcommand names its handler where it is
declared; a handler takes the parsed arguments and returns the exit code
and the stdout payload."""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple

from . import combs, oracle, series, torus, trees, twocycles, verify
from .bigmath import to_decimal
from .graphs import parse_edge_list

__all__ = ["CommandResult", "main", "run"]

CommandResult = namedtuple("CommandResult", "exit_code stdout")

# One family as the CLI exposes it: the count subcommand's integer
# parameters and closed form, and the verify function with its grid flags.
# count and verify look their target up at call time, so a wrapper bound
# later to the module global sees the call.
_Family = namedtuple("_Family", "name help params count verify grid")

_FAMILIES = (
    _Family("tree", "perfect m-ary tree of height h", ("h", "m"),
            lambda *p: trees.count_perfect_tree(*p),
            lambda **kw: verify.verify_trees(**kw),
            (("--max-h", "tree: maximum height"),
             ("--max-m", "tree: maximum arity"),
             ("--max-vertices", "tree: oracle size cap"))),
    _Family("comb", "m teeth of n vertices joined at position k", ("m", "n", "k"),
            lambda *p: combs.count_comb(*p),
            lambda **kw: verify.verify_combs(**kw),
            (("--max-mn", "comb: maximum m*n"),)),
    _Family("torus", "two n-cycles joined by a matching", ("n",),
            lambda *p: torus.count_torus(*p),
            lambda **kw: verify.verify_torus(**kw),
            (("--max-n", "torus: closed-form range"),
             ("--max-oracle-n", "torus: oracle range"))),
    _Family("twocycles", "two cycles sharing a path of a2 vertices", ("a1", "a2", "a3"),
            lambda *p: twocycles.count_two_cycles(*p),
            lambda **kw: verify.verify_twocycles(**kw),
            (("--max-total", "twocycles: maximum a1+a2+a3"),
             ("--max-lemma-total", "twocycles: per-start lemma oracle range"))),
)


# series --degree 100 takes 1.0 s and 79 MB ru_maxrss (2 cores, Python
# 3.11.7; scripts/ladder.py point series100), about 0.6 s of it in the
# expansion; the work grows as the cube of the degree
_MAX_SERIES_DEGREE = 100


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walklabel",
        description="Exact counting of random walk labelings on structured graph families.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="closed-form count for one family instance")
    count.set_defaults(handler=_cmd_count)
    fam = count.add_subparsers(dest="family", required=True)
    for family in _FAMILIES:
        family_parser = fam.add_parser(family.name, help=family.help)
        for name in family.params:
            family_parser.add_argument(f"--{name}", type=int, required=True)
        family_parser.add_argument("--json", action="store_true",
                                   help="print a JSON record instead of the bare count")

    orc = sub.add_parser("oracle", help="brute-force count for an edge-list file")
    orc.set_defaults(handler=_cmd_oracle)
    orc.add_argument("--input", required=True, help="edge-list file (first line: vertex count)")
    orc.add_argument("--alg", choices=("dp", "perm"), default="dp")
    orc.add_argument("--from", dest="start", type=int, default=None, metavar="V",
                     help="count only labelings starting at vertex V")
    orc.add_argument("--completions", default=None, metavar="V1,V2,...",
                     help="count completions of the given already-labeled vertex set")

    ver = sub.add_parser("verify", help="run the cross-verification harness")
    ver.set_defaults(handler=_cmd_verify)
    ver.add_argument("--family", choices=[f.name for f in _FAMILIES] + ["all"], required=True)
    for family in _FAMILIES:
        for flag, help_text in family.grid:
            ver.add_argument(flag, type=int, help=help_text)

    ser = sub.add_parser("series", help="generating function coefficients")
    ser.set_defaults(handler=_cmd_series)
    ser.add_argument("--degree", type=int, required=True, help="total degree bound")
    ser.add_argument("--format", choices=("csv", "json"), default="csv")

    oeis = sub.add_parser("oeis", help="b-file export of a catalogued sequence")
    oeis.set_defaults(handler=_cmd_oeis)
    oeis.add_argument("sequence", choices=("tree-root", "comb-row"))
    oeis.add_argument("--count", type=int, required=True, help="number of terms")

    return parser


def _cmd_count(args) -> tuple[int, str]:
    family = next(f for f in _FAMILIES if f.name == args.family)
    params = {name: getattr(args, name) for name in family.params}
    value = to_decimal(family.count(*params.values()))
    if args.json:
        return 0, json.dumps({"family": args.family, "params": params, "count": value}) + "\n"
    return 0, value + "\n"


def _cmd_oracle(args) -> tuple[int, str]:
    if args.start is not None and args.completions is not None:
        raise ValueError("--from and --completions are mutually exclusive")
    if args.alg == "perm" and (args.start is not None or args.completions is not None):
        raise ValueError("the permutation oracle only counts totals")
    with open(args.input, encoding="utf-8") as fh:
        g = parse_edge_list(fh, oracle.check_size)
    if args.alg == "perm":
        return 0, to_decimal(oracle.count_labelings_perm(g)) + "\n"
    if args.start is not None:
        return 0, to_decimal(oracle.count_labelings_from(g, args.start)) + "\n"
    if args.completions is not None:
        try:
            labeled = [int(part) for part in args.completions.split(",") if part.strip() != ""]
        except ValueError:
            raise ValueError(f"invalid labeled set: {args.completions!r}") from None
        return 0, to_decimal(oracle.count_completions(g, labeled)) + "\n"
    return 0, to_decimal(oracle.count_labelings(g)) + "\n"


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _cmd_verify(args) -> tuple[int, str]:
    given = {flag: getattr(args, _dest(flag)) for f in _FAMILIES for flag, _ in f.grid}
    for flag, value in given.items():
        if value is not None and value < 0:
            raise ValueError(f"parameter out of range: {flag} must be >= 0")
    progress = None if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    checks = []
    for family in _FAMILIES:
        if args.family in (family.name, "all"):
            # a flag left out keeps the verify function's own default
            kwargs = {_dest(flag): given[flag] for flag, _ in family.grid if given[flag] is not None}
            checks += family.verify(progress=progress, **kwargs)
    rep = verify.report(checks)
    return (0 if rep["ok"] else 1), json.dumps(rep, indent=2) + "\n"


def _cmd_series(args) -> tuple[int, str]:
    if args.degree < 0:
        raise ValueError("parameter out of range: degree must be >= 0")
    if args.degree > _MAX_SERIES_DEGREE:
        raise ValueError(f"instance too large: series degree {args.degree} is above {_MAX_SERIES_DEGREE}")
    expansion = series.expand_rational(series.two_cycles_gf(), args.degree)
    rows = series.export_coefficients(expansion)
    if args.format == "json":
        return 0, json.dumps({
            "degree": args.degree,
            "terms": [
                {"a1": a1, "a2": a2, "a3": a3, "coefficient": to_decimal(c)}
                for a1, a2, a3, c in rows
            ],
        }) + "\n"
    lines = "".join(f"{a1},{a2},{a3},{to_decimal(c)}\n" for a1, a2, a3, c in rows)
    return 0, "a1,a2,a3,coefficient\n" + lines


def _cmd_oeis(args) -> tuple[int, str]:
    if args.count < 1:
        raise ValueError("parameter out of range: --count must be >= 1")
    if args.sequence == "tree-root":
        values = trees.oeis_tree_root_sequence(args.count)
    else:
        values = combs.oeis_comb_row_sequence(args.count)
    return 0, "".join(f"{i} {to_decimal(v)}\n" for i, v in enumerate(values, start=1))


def run(argv: list[str] | None = None) -> CommandResult:
    """Execute one CLI invocation and capture its stdout payload."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the usage message to stderr
        return CommandResult(int(exc.code or 0), "")
    try:
        return CommandResult(*args.handler(args))
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
