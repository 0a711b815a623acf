"""The command line parser in the shape it was first written: the argparse
tree that cli._parse and its plain reader are checked against.

- build_parser: one ArgumentParser per subcommand and per count family,
  declared from the same cli._FAMILIES table, each subcommand naming its
  handler with set_defaults. parse_args on it gives the fields cli._parse
  and cli._read_plain must give, exits 0 on help and exits 2 on every line
  it rejects.
"""

from __future__ import annotations

import argparse

from walklabel import cli

__all__ = ["build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walklabel",
        description="Exact counting of random walk labelings on structured graph families.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="closed-form count for one family instance")
    count.set_defaults(handler=cli._cmd_count)
    fam = count.add_subparsers(dest="family", required=True)
    for family in cli._FAMILIES:
        family_parser = fam.add_parser(family.name, help=family.help)
        for name in family.params:
            family_parser.add_argument(f"--{name}", type=int, required=True)
        family_parser.add_argument("--json", action="store_true",
                                   help="print a JSON record instead of the bare count")

    orc = sub.add_parser("oracle", help="brute-force count for an edge-list file")
    orc.set_defaults(handler=cli._cmd_oracle)
    orc.add_argument("--input", required=True, help="edge-list file (first line: vertex count)")
    orc.add_argument("--alg", choices=("dp", "perm"), default="dp")
    orc.add_argument("--from", dest="start", type=int, default=None, metavar="V",
                     help="count only labelings starting at vertex V")
    orc.add_argument("--completions", default=None, metavar="V1,V2,...",
                     help="count completions of the given already-labeled vertex set")

    ver = sub.add_parser("verify", help="run the cross-verification harness")
    ver.set_defaults(handler=cli._cmd_verify)
    ver.add_argument("--family", choices=[f.name for f in cli._FAMILIES] + ["all"], required=True)
    for family in cli._FAMILIES:
        for flag, help_text in family.grid:
            ver.add_argument(flag, type=int, help=help_text)

    ser = sub.add_parser("series", help="generating function coefficients")
    ser.set_defaults(handler=cli._cmd_series)
    ser.add_argument("--degree", type=int, required=True, help="total degree bound")
    ser.add_argument("--format", choices=("csv", "json"), default="csv")

    oeis = sub.add_parser("oeis", help="b-file export of a catalogued sequence")
    oeis.set_defaults(handler=cli._cmd_oeis)
    oeis.add_argument("sequence", choices=("tree-root", "comb-row"))
    oeis.add_argument("--count", type=int, required=True, help="number of terms")

    return parser
