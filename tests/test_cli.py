import inspect
import json
import math
import shutil
import subprocess
import time
import tracemalloc

import pytest

from walklabel import _core_py, cli, oracle, trees, verify
from walklabel.cli import run


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


def test_count_torus_beyond_recursion_depth_exits_cleanly(capsys):
    n = 400
    result = run(["count", "torus", "--n", str(n)])
    if result.exit_code == 0:
        expected = n * (n + 2) * math.factorial(2 * n - 2) // math.factorial(n - 2)
        assert result.stdout == f"{expected}\n"
    else:
        assert result.exit_code == 1
        assert result.stdout == ""
        assert capsys.readouterr().err.startswith("error: ")


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
    # the hub joined to the path 1-...-7 goes to the connected-set engine,
    # whose layer of the path's 6 pairs outgrows a layer limit of 3
    f = tmp_path / "hub.txt"
    edges = [(0, v) for v in range(1, 8)] + [(v, v + 1) for v in range(1, 7)]
    f.write_text("8\n" + "".join(f"{u} {v}\n" for u, v in edges))
    monkeypatch.setattr(_core_py, "LAYER_LIMIT", 3)
    result = run(["oracle", "--input", str(f)])
    assert (result.exit_code, result.stdout) == (1, "")
    assert capsys.readouterr().err.startswith(
        "error: instance too large: more than 3 connected vertex sets")


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

