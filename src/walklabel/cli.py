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
grid flags as (flag, help) pairs. Each grid flag's dest is the verify
function's keyword of the same name, so a given flag passes straight
through. The count functions validate their own parameters; verify
rejects a negative grid flag before any check runs. The verify grid
defaults live in the verify functions' signatures alone: a flag the user
leaves out is not passed on.

The same tables drive parsing and help. _COMMANDS declares each
subcommand as a _Level: its options (flag, field, what the value reads,
required or default, help), its positional and the handler it names; the
count families are levels built from _FAMILIES. _parse reads a command
line by argparse's rules, without importing argparse: --flag value and
--flag=value, the last of repeated flags wins, negative numbers are
values, a unique prefix names a long flag, -- ends the options, -h
returns the help of the level it is reached in, and a rejected line
exits 2 with a usage line and an error line on stderr. A handler takes
the parsed fields and returns the exit code and the stdout payload."""

from __future__ import annotations

import json
import re
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


# series --degree 100 takes 1.0 s and 79 MB ru_maxrss (2 cores, Python
# 3.11.7; scripts/ladder.py point series100), about 0.6 s of it in the
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
    expansion = series.expand_rational(series.two_cycles_gf(), args.degree)
    rows = series.export_coefficients(expansion)
    # str is safe here: a coefficient counts the labelings of a graph of at
    # most _MAX_SERIES_DEGREE vertices, so it is below 100! (158 digits),
    # under 640, the lowest int/str digit limit the interpreter accepts
    if args.format == "json":
        return 0, json.dumps({
            "degree": args.degree,
            "terms": [
                {"a1": a1, "a2": a2, "a3": a3, "coefficient": str(c)}
                for a1, a2, a3, c in rows
            ],
        }) + "\n"
    lines = "".join(f"{a1},{a2},{a3},{c}\n" for a1, a2, a3, c in rows)
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

_HELP = _Option("-h/--help", None, bool, False, None, "show this help message and exit")
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

# argparse reads an argument that looks like a negative number as a value
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")
# a level's reading of its first "--": every argument after it is a word
_END = "--"


class _Stop(Exception):
    """The line ends before a handler runs: (exit code, stdout, stderr)."""


def _parse(argv: list[str]) -> SimpleNamespace:
    """The fields the handlers read, from the arguments after the program
    name. Raises _Stop with exit 0 and the help where -h is reached, or
    with exit 2 and a usage error for a line argparse rejects."""
    fields: dict = {}
    extras: list[str] = []
    _parse_level("walklabel", _TOP, argv, fields, extras)
    if extras:
        _fail("walklabel", _TOP, "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**fields)


def _parse_level(prog: str, level: _Level, argv: list[str], fields: dict, extras: list[str]) -> None:
    options = {"-h": _HELP, "--help": _HELP, **{option.flag: option for option in level.options}}
    # every argument is read before the first one takes effect, so an
    # ambiguous prefix anywhere fails before -h is reached
    kinds = []
    for i, arg in enumerate(argv):
        if arg == "--":
            kinds += [_END] + [None] * (len(argv) - i - 1)
            break
        kinds.append(_read(prog, level, options, arg))
    fields.update((option.dest, option.default) for option in level.options)
    if level.handler is not None:
        fields["handler"] = level.handler
    positional = level.positional
    if positional is not None:
        fields[positional[0]] = None
    i, n = 0, len(argv)
    while i < n:
        kind = kinds[i]
        if type(kind) is tuple:
            option, flag, value = kind
            i += 1
            if option is None:
                extras.append(flag)
                continue
            if option.kind is bool:
                # -h is the only single-dash flag, and -hh reads as -h -h
                if value is not None and (flag[1] == "-" or not value or value.strip("h")):
                    _fail(prog, level, f"argument {option.flag}: ignored explicit argument {value!r}")
                if option is _HELP:
                    raise _Stop(0, _help(prog, level), "")
                value = True
            else:
                if value is None:
                    if i == n or kinds[i] is not None:
                        _fail(prog, level, f"argument {option.flag}: expected one argument")
                    value = argv[i]
                    i += 1
                # argparse stores --flag=-- as an empty list, which no
                # handler reads: the line fails unless the flag comes again
                value = [] if value == "--" else _value(prog, level, option.flag, option.kind, value)
            fields[option.dest] = value
        elif positional is None or (kind is _END and i + 1 == n):
            extras.append(argv[i])
            i += 1
        elif isinstance(positional[1], dict):
            # a subcommand reads the rest of the line; a leading -- is read
            # as its name, as argparse reads it
            dest, commands = positional
            name = fields[dest] = _value(prog, level, dest, commands, argv[i])
            positional = None
            _parse_level(f"{prog} {name}", commands[name], argv[i + 1:], fields, extras)
            break
        else:
            # one word, and the -- before or after it
            dest, words = positional
            positional = None
            i += kind is _END
            fields[dest] = _value(prog, level, dest, words, argv[i])
            i += 1
            if i < n and kinds[i] is _END:
                i += 1
    for option in level.options:
        if fields[option.dest] == []:
            _fail(prog, level, f"argument {option.flag}: expected one argument")
    # a required option has no default, so its field still holds None
    missing = [option.flag for option in level.options if option.required and fields[option.dest] is None]
    if positional is not None:
        missing.append(positional[0])
    if missing:
        _fail(prog, level, "the following arguments are required: " + ", ".join(missing))


def _read(prog: str, level: _Level, options: dict, arg: str):
    """How argparse reads one argument: None for a word, else (option,
    flag, the value given with it or None), with option None for a flag
    this level does not know."""
    if arg in options:
        return options[arg], arg, None
    if not arg.startswith("-") or arg == "-":
        return None
    flag, eq, value = arg.partition("=")
    if eq and flag in options:
        return options[flag], flag, value
    if arg[1] == "-":
        matches = [known for known in options if known.startswith(flag)]
        value = value if eq else None
    else:
        matches = [arg[:2]] if arg[:2] in options else []
        value = arg[2:]
    if len(matches) > 1:
        _fail(prog, level, f"ambiguous option: {arg} could match {', '.join(matches)}")
    if matches:
        return options[matches[0]], matches[0], value
    if _NEGATIVE.match(arg) or " " in arg:
        return None
    return None, arg, None


def _value(prog: str, level: _Level, name: str, kind, text: str):
    if kind is int:
        try:
            return int(text)
        except ValueError:
            _fail(prog, level, f"argument {name}: invalid int value: {text!r}")
    if kind is not str and text not in kind:
        choices = ", ".join(map(repr, kind))
        _fail(prog, level, f"argument {name}: invalid choice: {text!r} (choose from {choices})")
    return text


def _fail(prog: str, level: _Level, message: str):
    raise _Stop(2, "", f"{_usage(prog, level)}{prog}: error: {message}\n")


def _metavar(option: _Option) -> str:
    if option.kind is bool:
        return ""
    if option.kind in (int, str):
        return " " + option.dest.upper()
    return " {" + ",".join(option.kind) + "}"


def _usage(prog: str, level: _Level) -> str:
    parts = ["[-h]"]
    for option in level.options:
        part = option.flag + _metavar(option)
        parts.append(part if option.required else f"[{part}]")
    if level.positional is not None:
        choices = level.positional[1]
        parts.append("{" + ",".join(choices) + "}" + (" ..." if isinstance(choices, dict) else ""))
    head = f"usage: {prog}"
    lines = [head]
    for part in parts:
        if len(lines[-1]) + 1 + len(part) > 78 and lines[-1].strip():
            lines.append(" " * len(head))
        lines[-1] += " " + part
    return "\n".join(lines) + "\n"


def _help(prog: str, level: _Level) -> str:
    rows = [_usage(prog, level), level.help, ""]
    if level.positional is not None:
        choices = level.positional[1]
        rows += ["positional arguments:", "  {" + ",".join(choices) + "}"]
        if isinstance(choices, dict):
            rows += [_row(f"    {name}", sub.help) for name, sub in choices.items()]
        rows.append("")
    rows += ["options:", _row("  -h, --help", _HELP.help)]
    rows += [_row(f"  {option.flag}{_metavar(option)}", option.help) for option in level.options]
    return "\n".join(rows) + "\n"


def _row(name: str, text: str) -> str:
    if not text:
        return name
    return f"{name:<24}{text}" if len(name) < 23 else f"{name}\n{'':24}{text}"


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
