"""Command line interface.

Subcommands: count (closed-form counts per family), oracle (brute-force
counts for an edge-list file), verify (cross-verification harness, exit
status reports the outcome), series (generating function coefficients as
CSV or JSON) and oeis (b-file exports of the two sequences with published
candidates). Counts print as decimal strings. Exit codes: 0 success (and,
for verify, all checks passing), 1 domain errors, instances too large to
finish (recursion or memory exhausted, an integer overflow, or a series
degree above 100) or failed verification, 2 usage errors.

One table, _FAMILIES, drives both count and verify: per family it names
the count parameters and closed form, and the verify function with its
grid flags as (flag, help) pairs. Each grid flag's dest is the verify
function's keyword of the same name, so a given flag passes straight
through. The count functions validate their own parameters; verify
rejects a negative grid flag before any check runs. The verify grid
defaults live in the verify functions' signatures alone: a flag the user
leaves out is not passed on.

The same tables drive parsing and help. _COMMANDS declares each
subcommand as a _Level: its options (flag, field, what the value reads,
required or default, help), its positional and the handler it names; the
count families are levels built from _FAMILIES. _parse reads a line in
one of two ways, with the same fields either way. _read_plain reads a
plain line: only the exact flags of the level reached, each value as
the next word (--flag value) where it does not start with "-", and
exact subcommand and positional words. Every other line (-h, a prefix
of a flag, --flag=value, --, a negative or malformed value, an unknown
or missing argument) goes to an argparse tree built from the same tables
once per process, which prints the help, reads the rest by its own rules
and rejects a line with exit 2, a usage line and an error line on
stderr. The plain reader exists for speed: importing argparse and
building the tree costs 5-7 ms in a fresh interpreter, while a
walklabel count of the benchmark's closed-forms ladder takes about
1.2 ms, and every line that scripts and the benchmark run is plain. A
handler takes the parsed fields and returns the exit code and the
stdout payload."""

from __future__ import annotations

import functools
import json
import sys
from collections import namedtuple
from types import SimpleNamespace

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


# series --degree 100 takes 0.25 s and 67 MB ru_maxrss (2 cores, Python
# 3.11.7; scripts/ladder.py point series100), about 0.16 s of it in the
# expansion; the work grows as the cube of the degree
_MAX_SERIES_DEGREE = 100


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
    # the dict iterates in export order, so the text is built straight from it
    terms = series.expand_rational(series.two_cycles_gf(), args.degree).items()
    # str is safe here: a coefficient counts the labelings of a graph of at
    # most _MAX_SERIES_DEGREE vertices, so it is below 100! (158 digits),
    # under 640, the lowest int/str digit limit the interpreter accepts
    if args.format == "json":
        return 0, json.dumps({
            "degree": args.degree,
            "terms": [
                {"a1": a1, "a2": a2, "a3": a3, "coefficient": str(c)}
                for (a1, a2, a3), c in terms
            ],
        }) + "\n"
    lines = "".join(f"{a1},{a2},{a3},{c}\n" for (a1, a2, a3), c in terms)
    return 0, "a1,a2,a3,coefficient\n" + lines


def _cmd_oeis(args) -> tuple[int, str]:
    if args.count < 1:
        raise ValueError("parameter out of range: --count must be >= 1")
    if args.sequence == "tree-root":
        values = trees.oeis_tree_root_sequence(args.count)
    else:
        values = combs.oeis_comb_row_sequence(args.count)
    return 0, "".join(f"{i} {to_decimal(v)}\n" for i, v in enumerate(values, start=1))


# One option of a level: its flag, the field it fills, what its value
# reads (int, str or a tuple of choices; bool for a flag that takes no
# value and stores True), whether it must be given, the field's value
# when it is not, and its help.
_Option = namedtuple("_Option", "flag dest kind required default help")

# One level of the command line: its help, its options, its positional as
# (field, choices) or None, and the handler it names or None. Choices that
# are a dict of levels are subcommands: the one named reads the rest of
# the line.
_Level = namedtuple("_Level", "help options positional handler")

_JSON = _Option("--json", "json", bool, False, False, "print a JSON record instead of the bare count")

_COMMANDS = {
    "count": _Level("closed-form count for one family instance", (), ("family", {
        family.name: _Level(family.help, (
            *(_Option(f"--{name}", name, int, True, None, "") for name in family.params), _JSON,
        ), None, None)
        for family in _FAMILIES
    }), _cmd_count),
    "oracle": _Level("brute-force count for an edge-list file", (
        _Option("--input", "input", str, True, None, "edge-list file (first line: vertex count)"),
        _Option("--alg", "alg", ("dp", "perm"), False, "dp", "dynamic program or permutation filter"),
        _Option("--from", "start", int, False, None, "count only labelings starting at vertex START"),
        _Option("--completions", "completions", str, False, None,
                "count completions of a labeled vertex set, as V1,V2,..."),
    ), None, _cmd_oracle),
    "verify": _Level("run the cross-verification harness", (
        _Option("--family", "family", (*(family.name for family in _FAMILIES), "all"), True, None,
                "family to verify"),
        *(_Option(flag, _dest(flag), int, False, None, help_text)
          for family in _FAMILIES for flag, help_text in family.grid),
    ), None, _cmd_verify),
    "series": _Level("generating function coefficients", (
        _Option("--degree", "degree", int, True, None, "total degree bound"),
        _Option("--format", "format", ("csv", "json"), False, "csv", "output format"),
    ), None, _cmd_series),
    "oeis": _Level("b-file export of a catalogued sequence", (
        _Option("--count", "count", int, True, None, "number of terms"),
    ), ("sequence", ("tree-root", "comb-row")), _cmd_oeis),
}

_TOP = _Level("Exact counting of random walk labelings on structured graph families.", (
    _Option("--quiet", "quiet", bool, False, False, "suppress progress output on stderr"),
), ("command", _COMMANDS), None)


class _Stop(Exception):
    """The line ends before a handler runs: (exit code, stdout, stderr)."""


def _parse(argv: list[str]) -> SimpleNamespace:
    """The fields the handlers read, from the arguments after the program
    name. Raises _Stop with exit 0 and the help where -h is reached, or
    with exit 2 and a usage error for a line argparse rejects."""
    fields = _read_plain(argv)
    if fields is None:
        fields = vars(_argparser().parse_args(argv))
    return SimpleNamespace(**fields)


def _read_plain(argv: list[str]) -> dict | None:
    """The fields of a line made only of the exact flags of the level
    reached, each value the next word (--flag value, the value not
    starting with "-"), and exact words, read as argparse reads them;
    None for any other line, --flag=value included."""
    fields: dict = {}
    args = iter(argv)
    level = _TOP
    while level is not None:
        fields.update((option.dest, option.default) for option in level.options)
        if level.handler is not None:
            fields["handler"] = level.handler
        options = {option.flag: option for option in level.options}
        dest, words = level.positional or (None, ())
        level = None
        for arg in args:
            option = options.get(arg)
            if option is None:
                # no word starts with "-", so this rejects every other flag
                if arg not in words or dest in fields:
                    return None
                fields[dest] = arg
                if isinstance(words, dict):
                    # a subcommand reads the rest of the line
                    level = words[arg]
                    break
            elif option.kind is bool:
                fields[option.dest] = True
            else:
                # a missing value reads as "-", which is rejected
                text = next(args, "-")
                if text.startswith("-"):
                    return None
                if option.kind is int:
                    try:
                        text = int(text)
                    except ValueError:
                        return None
                elif option.kind is not str and text not in option.kind:
                    return None
                fields[option.dest] = text
        # a required option has no default, so its field still holds None
        if (dest is not None and dest not in fields) or any(
                option.required and fields[option.dest] is None for option in options.values()):
            return None
    return fields


@functools.cache
def _argparser():
    """The argparse tree of _TOP, whose help and usage errors raise _Stop."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def parse_known_args(self, args=None, namespace=None):
            namespace, extras = super().parse_known_args(args, namespace)
            for action in self._actions:
                # argparse stores --flag=-- as an empty list, which no
                # handler reads: the line fails unless the flag comes again
                if getattr(namespace, action.dest, None) == []:
                    self.error(str(argparse.ArgumentError(action, "expected one argument")))
            return namespace, extras

        def print_help(self, file=None):
            raise _Stop(0, self.format_help(), "")

        def error(self, message):
            raise _Stop(2, "", f"{self.format_usage()}{self.prog}: error: {message}\n")

    kinds = {bool: {"action": "store_true"}, int: {"type": int}, str: {}}

    def build(parser, level: _Level):
        for option in level.options:
            parser.add_argument(option.flag, dest=option.dest, required=option.required, default=option.default,
                                help=option.help, **kinds.get(option.kind, {"choices": option.kind}))
        if level.handler is not None:
            parser.set_defaults(handler=level.handler)
        if level.positional is not None:
            dest, words = level.positional
            if isinstance(words, dict):
                sub = parser.add_subparsers(dest=dest, required=True)
                for name, child in words.items():
                    build(sub.add_parser(name, help=child.help, description=child.help), child)
            else:
                parser.add_argument(dest, choices=words)
        return parser

    return build(Parser(prog="walklabel", description=_TOP.help), _TOP)


def run(argv: list[str] | None = None) -> CommandResult:
    """Execute one CLI invocation and capture its stdout payload, the help
    text included."""
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _Stop as stop:
        code, stdout, stderr = stop.args
        sys.stderr.write(stderr)
        return CommandResult(code, stdout)
    try:
        return CommandResult(*args.handler(args))
    except (ValueError, OSError) as exc:
        message = str(exc)
    except RecursionError:
        message = "instance too large: recursion limit exceeded"
    except MemoryError:
        message = "instance too large: out of memory"
    except OverflowError as exc:
        message = f"instance too large: {exc}"
    print(f"error: {message}", file=sys.stderr)
    return CommandResult(1, "")


def main() -> int:
    result = run()
    sys.stdout.write(result.stdout)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
