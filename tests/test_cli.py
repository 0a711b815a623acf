import argparse
import ast
import contextlib
import importlib.util
import inspect
import io
import json
import math
import os
import random
import shlex
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from cli_ref import build_parser
from series_ref import expand_rational as expand_rational_ref

from walklabel import cli, oracle, series, trees, verify
from walklabel.cli import run

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("ladder", ROOT / "scripts" / "ladder.py")
ladder = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ladder)


def test_count_tree():
    result = run(["count", "tree", "--h", "2", "--m", "2"])
    assert result.exit_code == 0
    assert result.stdout == "240\n"


def test_count_comb_json():
    result = run(["count", "comb", "--m", "2", "--n", "2", "--k", "1", "--json"])
    assert result.exit_code == 0
    record = json.loads(result.stdout)
    assert record == {"family": "comb", "params": {"m": 2, "n": 2, "k": 1}, "count": "8"}


def test_count_torus_and_twocycles():
    assert run(["count", "torus", "--n", "3"]).stdout == "360\n"
    assert run(["count", "twocycles", "--a1", "2", "--a2", "2", "--a3", "2"]).stdout == "208\n"


def test_count_torus_past_the_recursion_depth_is_a_closed_form(capsys):
    # torus.a_rec(400, 1) recurses past the default limit; count takes the
    # closed form n(n+2) (2n-2)!/(n-2)!, which does not recurse
    n = 400
    result = run(["count", "torus", "--n", str(n)])
    expected = n * (n + 2) * math.factorial(2 * n - 2) // math.factorial(n - 2)
    assert (result.exit_code, result.stdout) == (0, f"{expected}\n")
    assert capsys.readouterr().err == ""


def test_recursion_limit_exits_cleanly(monkeypatch, capsys):
    def too_deep(h, m):
        raise RecursionError

    monkeypatch.setattr(trees, "count_perfect_tree", too_deep)
    result = run(["count", "tree", "--h", "2", "--m", "2"])
    assert (result.exit_code, result.stdout) == (1, "")
    assert capsys.readouterr().err == "error: instance too large: recursion limit exceeded\n"


def test_no_library_module_changes_the_interpreter_limits():
    # the recursion limit and the int/str digit limit belong to the process
    # that imports walklabel: no module may set them, by any spelling
    setters = {"setrecursionlimit", "set_int_max_str_digits"}
    for path in sorted((ROOT / "src" / "walklabel").glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        assert not names & setters, path.name


@pytest.mark.parametrize("argv", [
    ["count", "torus", "--n", "100000000000000000000"],
    ["count", "comb", "--m", "100000000000000000000", "--n", "2", "--k", "1"],
    # the comb Horner loop, the two-cycle q-sums and a directly summed
    # binomial tail would each run about 10^20 times; a factorial or a power
    # of two taken before them overflows
    ["count", "comb", "--m", "2", "--n", "100000000000000000000", "--k", "1"],
    ["count", "twocycles", "--a1", "100000000000000000000", "--a2", "2", "--a3", "2"],
    ["count", "twocycles", "--a1", "100000000000000000000", "--a2", "1000000000000000000000", "--a3", "2"],
])
def test_integer_overflow_exits_cleanly(capsys, argv):
    started = time.perf_counter()
    result = run(argv)
    assert time.perf_counter() - started < 1
    assert (result.exit_code, result.stdout) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: instance too large: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_out_of_memory_exits_cleanly(monkeypatch, capsys):
    def exhausted(h, m):
        raise MemoryError

    monkeypatch.setattr(trees, "count_perfect_tree", exhausted)
    result = run(["count", "tree", "--h", "2", "--m", "2"])
    assert (result.exit_code, result.stdout) == (1, "")
    assert capsys.readouterr().err == "error: instance too large: out of memory\n"


def test_count_is_deterministic():
    argv = ["count", "tree", "--h", "4", "--m", "3"]
    assert run(argv).stdout == run(argv).stdout


def test_count_rejects_bad_parameters():
    result = run(["count", "comb", "--m", "2", "--n", "2", "--k", "5"])
    assert result.exit_code == 1
    assert result.stdout == ""


# per family: count argv, its --json params and count, and a bad argv
COUNT_CASES = {
    "tree": (["--h", "2", "--m", "2"], {"h": 2, "m": 2}, "240", ["--h", "2", "--m", "1"]),
    "comb": (["--m", "2", "--n", "2", "--k", "1"], {"m": 2, "n": 2, "k": 1}, "8",
             ["--m", "2", "--n", "2", "--k", "5"]),
    "torus": (["--n", "3"], {"n": 3}, "360", ["--n", "0"]),
    "twocycles": (["--a1", "2", "--a2", "3", "--a3", "2"], {"a1": 2, "a2": 3, "a3": 2}, "752",
                  ["--a1", "1", "--a2", "2", "--a3", "2"]),
}


@pytest.mark.parametrize("family", COUNT_CASES)
def test_count_json_and_bad_parameter_per_family(family, capsys):
    argv, params, count, bad = COUNT_CASES[family]
    result = run(["count", family, *argv, "--json"])
    assert result.exit_code == 0
    assert json.loads(result.stdout) == {"family": family, "params": params, "count": count}
    capsys.readouterr()
    result = run(["count", family, *bad])
    assert (result.exit_code, result.stdout) == (1, "")
    assert capsys.readouterr().err.startswith("error: parameter out of range")


VERIFY_FUNCTIONS = {
    "tree": "verify_trees",
    "comb": "verify_combs",
    "torus": "verify_torus",
    "twocycles": "verify_twocycles",
}


def test_verify_flags_default_to_the_verify_functions(monkeypatch):
    """A grid flag left out runs the verify function with its signature
    default; a flag given reaches its keyword and nothing else. The CLI
    must look the functions up when it runs, or the recorders below would
    never see a call."""
    calls = []
    defaults = {}
    for family, name in VERIFY_FUNCTIONS.items():
        signature = inspect.signature(getattr(verify, name))
        defaults[family] = {p: v.default for p, v in signature.parameters.items()}

        def recorder(*args, _family=family, _signature=signature, **kwargs):
            bound = _signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((_family, dict(bound.arguments)))
            return []

        monkeypatch.setattr(verify, name, recorder)

    assert run(["--quiet", "verify", "--family", "all"]).exit_code == 0
    assert calls == [(family, defaults[family]) for family in VERIFY_FUNCTIONS]
    for family in cli._FAMILIES:
        calls.clear()
        run(["--quiet", "verify", "--family", family.name])
        assert calls == [(family.name, defaults[family.name])]
        for flag, _ in family.grid:
            # the flag's argparse dest is the verify function's keyword
            keyword = flag[2:].replace("-", "_")
            assert keyword in defaults[family.name]
            calls.clear()
            run(["--quiet", "verify", "--family", family.name, flag, "3"])
            assert calls == [(family.name, {**defaults[family.name], keyword: 3})]


def test_usage_errors_exit_2():
    assert run(["count", "tree", "--h", "2"]).exit_code == 2
    assert run(["nonsense"]).exit_code == 2
    assert run([]).exit_code == 2


def test_help_exits_0():
    assert run(["--help"]).exit_code == 0


def test_main_writes_the_payload_and_returns_the_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["walklabel", "count", "tree", "--h", "2", "--m", "2"])
    assert cli.main() == 0
    assert capsys.readouterr() == ("240\n", "")
    monkeypatch.setattr(sys, "argv", ["walklabel", "--help"])
    assert cli.main() == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: walklabel [-h] [--quiet] {count,oracle,verify,series,oeis} ...\n")
    assert err == ""
    monkeypatch.setattr(sys, "argv", ["walklabel", "count", "tree", "--h", "x", "--m", "2"])
    assert cli.main() == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "usage: walklabel count tree [-h] --h H --m M [--json]",
        "walklabel count tree: error: argument --h: invalid int value: 'x'",
    ]


def _reference_levels(parser, path=()):
    """(argv prefix, parser) for the top parser and every subparser below it."""
    yield list(path), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _reference_levels(sub, (*path, name))


@pytest.mark.parametrize("path, parser", list(_reference_levels(build_parser())),
                         ids=lambda value: " ".join(value) if isinstance(value, list) else "")
def test_help_names_every_flag_and_choice(path, parser):
    result = run([*path, "-h"])
    assert result.exit_code == 0
    assert result.stdout.startswith(f"usage: {' '.join(['walklabel', *path])} [-h]")
    for action in parser._actions:
        for name in [*action.option_strings, *(action.choices or ())]:
            assert name in result.stdout


def test_an_option_given_only_as_double_dash_is_a_usage_error(capsys):
    # argparse stores --degree=-- as [], and the series handler raised a TypeError on it
    assert run(["series", "--degree=--"]) == (2, "")
    assert capsys.readouterr().err.endswith("error: argument --degree: expected one argument\n")
    assert run(["oracle", "--input=--"]) == (2, "")
    assert capsys.readouterr().err.endswith("error: argument --input: expected one argument\n")
    # given again, the last value wins as for any repeated flag
    assert run(["series", "--degree=--", "--degree", "6"]).exit_code == 0


_REFERENCE_FLAGS = sorted({
    "-h", "--help", "--quiet", "--json", "--input", "--alg", "--from", "--completions", "--family",
    "--degree", "--format", "--count", *(f"--{p}" for f in cli._FAMILIES for p in f.params),
    *(flag for f in cli._FAMILIES for flag, _ in f.grid),
})
_WORDS = ("0", "2", "3", "7", "-1", "-3", "+4", " 5", "1_0", "\u0663", "1.5", "-1.5", "-.5", "x", "",
          "-1 2", "-x", "--", "-h", "0,1", "dp", "perm", "csv", "json", "tree", "all", "tree-root",
          "comb-row")
_ODD = ("--bogus", "-x", "-", "", "-hh", "-hx", "-h=h", "-h=", "--help=1", "--quiet=1", "--json=",
        "--=3", "---", "--", "count", "tree", "verify", "-5", "--max-=3", "--a=1", "--he")


def _prefix(rng, flag):
    return flag[:rng.randint(2, len(flag))] if flag.startswith("--") else flag


def _option(rng, flag, value):
    """One flag and its value as --flag value, --flag=value or a prefix of the flag."""
    r = rng.random()
    if r < 0.2:
        return [f"{flag}={value}"]
    if r < 0.35:
        return [_prefix(rng, flag), value]
    if r < 0.42:
        return [f"{_prefix(rng, flag)}={value}"]
    return [flag, value]


_NUMBERS = ("2", "3", "1", "0", "-1", "4", "-2")


def _valid_line(rng):
    """A line argparse accepts, up to the values it reads."""
    command = rng.choice(["count", "count", "oracle", "verify", "series", "oeis"])
    head = ["--quiet"] * (rng.random() < 0.3) + [command]
    if command == "count":
        family = rng.choice(cli._FAMILIES)
        options = [_option(rng, f"--{p}", rng.choice(_NUMBERS)) for p in family.params]
        options += [["--json"]] * (rng.random() < 0.3)
        head.append(family.name)
    elif command == "oracle":
        options = [_option(rng, "--input", rng.choice(["g.txt", "-5", "-x y"]))]
        for flag, values in (("--alg", ["dp", "perm"]), ("--from", ["0", "2", "-1"]),
                             ("--completions", ["0,1", "1", "-1"])):
            options += [_option(rng, flag, rng.choice(values))] * (rng.random() < 0.4)
    elif command == "verify":
        options = [_option(rng, "--family", rng.choice(["tree", "comb", "torus", "twocycles", "all"]))]
        grid = [flag for f in cli._FAMILIES for flag, _ in f.grid]
        options += [_option(rng, flag, rng.choice(_NUMBERS)) for flag in rng.sample(grid, rng.randint(0, 3))]
    elif command == "series":
        options = [_option(rng, "--degree", rng.choice(_NUMBERS))]
        options += [_option(rng, "--format", rng.choice(["csv", "json"]))] * (rng.random() < 0.4)
    else:
        # the positional goes anywhere among the options, or last with a
        # "--" that ends the options just before or after it
        sequence = rng.choice(["tree-root", "comb-row"])
        if rng.random() < 0.3:
            return [*head, *_option(rng, "--count", rng.choice(_NUMBERS)),
                    *rng.choice([["--", sequence], [sequence, "--"]])]
        options = [_option(rng, "--count", rng.choice(_NUMBERS)), [sequence]]
    rng.shuffle(options)
    return head + [t for o in options for t in o]


def _token(rng):
    r = rng.random()
    if r < 0.3:
        return rng.choice(_REFERENCE_FLAGS)
    if r < 0.45:
        return _prefix(rng, rng.choice(_REFERENCE_FLAGS))
    if r < 0.6:
        return f"{_prefix(rng, rng.choice(_REFERENCE_FLAGS))}={rng.choice(_WORDS)}"
    if r < 0.8:
        return rng.choice(_WORDS)
    return rng.choice(_ODD)


def _mutated(rng, argv):
    """Up to three edits: a token inserted, deleted or replaced, a help flag
    inserted, or a flag and value appended (a repeated or foreign flag)."""
    for _ in range(rng.choice([0, 0, 1, 1, 1, 2, 3])):
        r = rng.random()
        at = rng.randint(0, len(argv))
        if r < 0.4 or not argv:
            argv.insert(at, _token(rng))
        elif r < 0.55:
            del argv[min(at, len(argv) - 1)]
        elif r < 0.75:
            argv[min(at, len(argv) - 1)] = _token(rng)
        elif r < 0.85:
            argv.insert(at, rng.choice(["-h", "--help", "--he", "-hh"]))
        else:
            argv += _option(rng, rng.choice(_REFERENCE_FLAGS), rng.choice(_WORDS))
    return argv


def _reference_outcome(parser, argv):
    """0 for help, 2 for a rejected line, else the parsed fields."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            fields = vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code
    # argparse stores --flag=-- as [], which no handler reads; cli rejects it
    return 2 if [] in fields.values() else fields


def _outcome(argv):
    try:
        return vars(cli._parse(argv))
    except cli._Stop as stop:
        return stop.args[0]


def test_parser_matches_argparse_on_generated_lines():
    parser = build_parser()
    rng = random.Random(15)
    seen = set()
    for _ in range(2400):
        argv = _mutated(rng, _valid_line(rng))
        expected = _reference_outcome(parser, list(argv))
        assert _outcome(list(argv)) == expected, argv
        plain = cli._read_plain(list(argv))
        assert plain is None or plain == expected, argv
        seen.add("argparse" if plain is None else "plain")
        parsed = isinstance(expected, dict)
        seen.add("parsed" if parsed else {0: "help", 2: "usage error"}[expected])
        if "-h" in argv:
            seen.add(f"-h at {argv.index('-h')}")
        for token in argv:
            flag = token.partition("=")[0]
            if parsed and token.startswith("--") and "=" in token:
                seen.add("parsed =value")
            if parsed and flag not in _REFERENCE_FLAGS and any(f.startswith(flag) for f in _REFERENCE_FLAGS):
                seen.add("parsed prefix")
            if token in ("--a", "--m", "--ma", "--max-", "--max-m="):
                seen.add("ambiguous prefix")
        if parsed and "--" in argv:
            seen.add("parsed --")
        if parsed and any(type(v) is int and v < 0 for v in expected.values()):
            seen.add("parsed negative int")
        if parsed and len({t.partition("=")[0] for t in argv if t.startswith("--")}) < sum(
                t.startswith("--") for t in argv):
            seen.add("parsed repeated flag")
        if any(t in ("x", "1.5", "-1.5", "", "-1 2") for t in argv):
            seen.add("bad int")
    assert seen >= {"help", "usage error", "parsed", "parsed =value", "parsed prefix", "ambiguous prefix",
                    "parsed --", "parsed negative int", "parsed repeated flag", "bad int", "plain", "argparse",
                    *(f"-h at {i}" for i in range(8))}


def _hot_lines():
    """The argument lists that scripts/ladder.py, README's command line
    section and perfbench's closed-forms and verify jobs run, by source."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8").partition("\n## Command line\n")[2]
    rows = readme.partition("\n## ")[0].splitlines()
    workloads = ladder._perfbench("workloads")
    jobs = [workloads.make_job(workload, seed) for seed in range(1, 11) for workload in ("closed-forms", "verify")]
    return {
        "ladder": [list(argv) for argv in ladder.POINTS.values()],
        "readme": [shlex.split(row, comments=True)[1:] for row in rows if row.startswith("walklabel ")],
        "perfbench": [op["argv"] for job in jobs for op in job["ops"] + job.get("probes", [])],
    }


def test_the_lines_scripts_docs_and_benchmark_run_take_the_plain_reader():
    # a cold argparse parse costs 5-7 ms, more than a closed-forms op
    parser = build_parser()
    for source, lines in _hot_lines().items():
        assert lines, source
        for argv in lines:
            assert cli._read_plain(list(argv)) == vars(parser.parse_args(argv)), (source, argv)


def test_only_a_line_that_is_not_plain_loads_argparse():
    code = (
        "import sys\n"
        "from walklabel import cli\n"
        "assert cli.run(['count', 'torus', '--n', '20']) == (0, '35944473450435194879410176000000\\n')\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
        "# the plain reader takes --flag value only; argparse reads --n=20 into the same field\n"
        "assert cli._read_plain(['count', 'torus', '--n=20']) is None\n"
        "assert cli.run(['count', 'torus', '--n=20']) == (0, '35944473450435194879410176000000\\n')\n"
        "print('argparse' in sys.modules)\n"
        "result = cli.run(['count', 'torus', '-h'])\n"
        "print(result.exit_code, result.stdout.splitlines()[0])\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    unwanted, loaded, help_line = out.stdout.splitlines()
    assert unwanted == "[]"
    assert loaded == "True"
    assert help_line.startswith("0 usage: walklabel count torus ")


def test_oracle_subcommand(tmp_path):
    f = tmp_path / "square.txt"
    f.write_text("4\n0 1\n1 2\n2 3\n3 0\n")
    assert run(["oracle", "--input", str(f)]).stdout == "16\n"
    assert run(["oracle", "--input", str(f), "--alg", "perm"]).stdout == "16\n"
    assert run(["oracle", "--input", str(f), "--from", "0"]).stdout == "4\n"
    assert run(["oracle", "--input", str(f), "--completions", "0,1"]).stdout == "2\n"


def test_oracle_flag_conflicts(tmp_path, capsys):
    f = tmp_path / "p2.txt"
    f.write_text("2\n0 1\n")
    assert run(["oracle", "--input", str(f), "--from", "0", "--completions", "1"]).exit_code == 1
    assert run(["oracle", "--input", str(f), "--alg", "perm", "--from", "0"]).exit_code == 1
    capsys.readouterr()
    # a conflict is an error before the input is read: no file is needed
    missing = str(tmp_path / "missing.txt")
    assert run(["oracle", "--input", missing, "--from", "0", "--completions", "1"]) == (1, "")
    assert capsys.readouterr().err == "error: --from and --completions are mutually exclusive\n"
    assert run(["oracle", "--input", missing, "--alg", "perm", "--completions", "1"]) == (1, "")
    assert capsys.readouterr().err == "error: the permutation oracle only counts totals\n"


def test_oracle_rejects_a_bad_labeled_set(tmp_path, capsys):
    f = tmp_path / "p2.txt"
    f.write_text("2\n0 1\n")
    assert run(["oracle", "--input", str(f), "--completions", "0,x"]) == (1, "")
    assert capsys.readouterr().err == "error: invalid labeled set: '0,x'\n"


def test_oracle_missing_file():
    assert run(["oracle", "--input", "/no/such/file"]).exit_code == 1


@pytest.mark.parametrize("text, message", [
    ("\u0663\n0 1\n1 2\n", "line 1: vertex count is not an integer"),  # an Arabic-Indic 3
    ("3\n0 1\n1 +2\n", "line 3: edge endpoints must be integers"),
    ("11\n" + "".join(f"{i} {i + 1}\n" for i in range(9)) + "0 1_0\n", "line 11: edge endpoints must be integers"),
])
def test_oracle_accepts_only_ascii_digits(tmp_path, capsys, text, message):
    # int() alone reads each of these as a number
    f = tmp_path / "g.txt"
    f.write_text(text, encoding="utf-8")
    assert run(["oracle", "--input", str(f)]) == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_oracle_rejects_disconnected_input(tmp_path):
    f = tmp_path / "discon.txt"
    f.write_text("4\n0 1\n2 3\n")
    assert run(["oracle", "--input", str(f)]).exit_code == 1


def test_oracle_rejects_an_oversized_header_before_building_the_graph(tmp_path, capsys):
    # building a million-vertex graph first takes seconds and hundreds of MB
    f = tmp_path / "huge.txt"
    f.write_text("1000000\n")
    tracemalloc.start()
    try:
        result = run(["oracle", "--input", str(f)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.exit_code, result.stdout) == (1, "")
    assert peak < 10 * 2**20
    assert capsys.readouterr().err == (
        f"error: instance too large: 1000000 vertices exceeds the DP limit {oracle.DP_LIMIT}\n")


def test_oracle_memory_follows_the_graph_not_the_file(tmp_path):
    # path(24) followed by 50,000 copies of one of its edges: the file is
    # read a line at a time and the repeated edge is kept once
    f = tmp_path / "repeated.txt"
    f.write_text("24\n" + "".join(f"{i} {i + 1}\n" for i in range(23)) + "0 1\n" * 50_000)
    tracemalloc.start()
    try:
        result = run(["oracle", "--input", str(f)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.exit_code, result.stdout) == (0, f"{2 ** 23}\n")
    assert peak < 2 * 2**20


def test_oracle_memory_does_not_follow_a_long_line(tmp_path, capsys):
    # path(24) with its first edge padded by 4 M spaces: the line is read
    # with a bounded length and rejected
    f = tmp_path / "padded.txt"
    f.write_text("24\n0" + " " * 4_000_000 + "1\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 23)))
    tracemalloc.start()
    try:
        result = run(["oracle", "--input", str(f)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.exit_code, result.stdout) == (1, "")
    assert peak < 2 * 2**20
    assert capsys.readouterr().err == "error: line 2: longer than 65536 characters\n"


def test_oracle_error_quotes_only_the_start_of_a_huge_line(tmp_path, capsys):
    # a malformed 64 kB edge line, just inside the line length limit, must
    # not be copied whole into the message
    f = tmp_path / "long.txt"
    f.write_text("3\n0 1\n" + "1 2 " * 16_000 + "\n")
    result = run(["oracle", "--input", str(f)])
    err = capsys.readouterr().err
    assert (result.exit_code, result.stdout) == (1, "")
    assert err.startswith("error: line 3: expected 'u v', got '1 2 1 2")
    assert len(err.encode()) < 1024


def test_oracle_error_quotes_a_short_line_whole(tmp_path, capsys):
    f = tmp_path / "short.txt"
    f.write_text("3 4\n")
    assert run(["oracle", "--input", str(f)]).exit_code == 1
    assert capsys.readouterr().err == "error: line 1: expected the vertex count, got '3 4'\n"


def test_oracle_layer_overflow_exits_cleanly(tmp_path, monkeypatch, capsys):
    # the hub joined to the path 1-...-7 goes to the first-gap recursion,
    # which stores 23 regions: a limit of 22 stops it, 23 lets it count
    f = tmp_path / "hub.txt"
    edges = [(0, v) for v in range(1, 8)] + [(v, v + 1) for v in range(1, 7)]
    f.write_text("8\n" + "".join(f"{u} {v}\n" for u, v in edges))
    monkeypatch.setattr(oracle, "LAYER_LIMIT", 22)
    assert run(["oracle", "--input", str(f)]) == (1, "")
    assert capsys.readouterr().err == "error: instance too large: more than 22 gap regions in one first-gap count\n"
    monkeypatch.setattr(oracle, "LAYER_LIMIT", 23)
    assert run(["oracle", "--input", str(f)]) == (0, "12416\n")


def test_oracle_counts_a_dense_graph_at_the_size_limit_within_a_second(tmp_path):
    # scripts/sweep24.py's random-d5: 24 vertices and 60 edges, which took
    # 13-19 s when the first-gap count ran a forward DP over the connected
    # sets for each gap vertex; the count is the one those DPs gave
    rng = random.Random(5)
    edges = {(rng.randrange(v), v) for v in range(1, 24)}
    rest = [(u, v) for v in range(24) for u in range(v) if (u, v) not in edges]
    edges.update(rng.sample(rest, 60 - len(edges)))
    f = tmp_path / "random-d5.txt"
    f.write_text("24\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges)))
    started = time.perf_counter()
    result = run(["oracle", "--input", str(f)])
    assert time.perf_counter() - started < 1.0
    assert result == (0, "5682135054616411805760\n")


def test_verify_streams_one_progress_line_per_group(capsys):
    grid = ["verify", "--family", "all", "--max-h", "1", "--max-m", "2", "--max-mn", "2", "--max-n", "2",
            "--max-oracle-n", "1", "--max-total", "6", "--max-lemma-total", "6"]
    loud = run(grid)
    assert loud.exit_code == 0 and json.loads(loud.stdout)["ok"]
    assert capsys.readouterr().err.splitlines() == [
        "trees (h=0, m=2)", "trees (h=1, m=2)", "combs (m=1, n=2)",
        "torus (n=2) exact", "torus (n=1) oracle", "twocycles (2, 2, *)",
    ]
    assert run(["--quiet", *grid]) == loud
    assert capsys.readouterr().err == ""


def test_verify_subcommand_small():
    result = run([
        "--quiet", "verify", "--family", "tree",
        "--max-h", "2", "--max-m", "2", "--max-vertices", "7",
    ])
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert report["ok"] is True and report["failed"] == 0 and report["total"] > 0


def test_verify_prints_the_values_of_a_failing_check_in_decimal(monkeypatch):
    # the report converts the values of failures only, past the
    # interpreter's 4,300-digit int/str cap too
    big = 7 * 10**5000 + 3
    checks = []
    verify._check(checks, "tree", "(h=0, m=2)", "passes", 10**6000, 10**6000)
    verify._check(checks, "tree", "(h=1, m=2)", "huge", big, big + 1)
    verify._check(checks, "tree", "(h=2, m=2)", "small", 42, -1)
    verify._check(checks, "tree", "(m=2)", "tuple", (4, 8, False), (4, 8, True))
    monkeypatch.setattr(verify, "verify_trees", lambda **kw: checks)
    result = run(["--quiet", "verify", "--family", "tree"])
    assert result.exit_code == 1
    report = json.loads(result.stdout)
    assert (report["total"], report["failed"], report["ok"]) == (4, 3, False)
    assert [(f["kind"], f["expected"], f["actual"], f["ok"]) for f in report["failures"]] == [
        ("huge", "7" + "0" * 4999 + "3", "7" + "0" * 4999 + "4", False),
        ("small", "42", "-1", False),
        ("tuple", "(4, 8, False)", "(4, 8, True)", False),
    ]


GRID_FLAGS = [(family.name, flag) for family in cli._FAMILIES for flag, _ in family.grid]


@pytest.mark.parametrize("family, flag", GRID_FLAGS)
def test_verify_rejects_a_negative_grid_flag(family, flag, capsys):
    result = run(["--quiet", "verify", "--family", family, flag, "-1"])
    assert (result.exit_code, result.stdout) == (1, "")
    assert capsys.readouterr().err == f"error: parameter out of range: {flag} must be >= 0\n"


def test_series_csv():
    result = run(["series", "--degree", "7"])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "a1,a2,a3,coefficient"
    assert lines[1] == "2,2,2,208"
    assert set(lines[2:]) == {"2,2,3,672", "2,3,2,752", "3,2,2,672"}


def test_series_json():
    result = run(["series", "--degree", "6", "--format", "json"])
    record = json.loads(result.stdout)
    assert record["degree"] == 6
    assert record["terms"] == [{"a1": 2, "a2": 2, "a3": 2, "coefficient": "208"}]


def test_series_prints_the_reference_expansion_in_export_order():
    # the text built from the dict sweep, sorted here by total degree and
    # then exponents, so the order does not rest on the CLI's expansion
    terms = sorted(expand_rational_ref(series.two_cycles_gf(), 12).items(), key=lambda t: (sum(t[0]), t[0]))
    assert len(terms) == 84
    csv = "a1,a2,a3,coefficient\n" + "".join(f"{a1},{a2},{a3},{c}\n" for (a1, a2, a3), c in terms)
    record = {"degree": 12, "terms": [{"a1": a1, "a2": a2, "a3": a3, "coefficient": str(c)}
                                      for (a1, a2, a3), c in terms]}
    assert run(["series", "--degree", "12"]) == (0, csv)
    assert run(["series", "--degree", "12", "--format", "json"]) == (0, json.dumps(record) + "\n")


def test_series_prints_the_same_bytes_under_the_lowest_digit_limit():
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = [run(["series", "--degree", "12", "--format", f]) for f in ("csv", "json")]
        sys.set_int_max_str_digits(640)
        got = [run(["series", "--degree", "12", "--format", f]) for f in ("csv", "json")]
    finally:
        sys.set_int_max_str_digits(before)
    assert got == expected
    assert [r.exit_code for r in got] == [0, 0]


def test_series_rejects_negative_degree():
    assert run(["series", "--degree", "-1"]).exit_code == 1


def test_series_rejects_a_degree_above_the_bound_at_once(capsys):
    started = time.perf_counter()
    result = run(["series", "--degree", "400"])
    assert time.perf_counter() - started < 1
    assert (result.exit_code, result.stdout) == (1, "")
    assert capsys.readouterr().err.startswith("error: instance too large: ")


def test_oeis_bfile_format():
    result = run(["oeis", "tree-root", "--count", "4"])
    assert result.stdout == "1 1\n2 2\n3 80\n4 21964800\n"
    result = run(["oeis", "comb-row", "--count", "4"])
    assert result.stdout == "1 2\n2 8\n3 72\n4 960\n"


def test_oeis_count_validation():
    assert run(["oeis", "tree-root", "--count", "0"]).exit_code == 1


def test_console_script_entry_point():
    exe = shutil.which("walklabel")
    if exe is None:
        pytest.skip("console script not on PATH")
    out = subprocess.run(
        [exe, "count", "tree", "--h", "2", "--m", "2"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout == "240\n"

