import inspect
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from walklabel import cli, trees, verify
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
        for flag, keyword, _ in family.grid:
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


def test_oracle_flag_conflicts(tmp_path):
    f = tmp_path / "p2.txt"
    f.write_text("2\n0 1\n")
    assert run(["oracle", "--input", str(f), "--from", "0", "--completions", "1"]).exit_code == 1
    assert run(["oracle", "--input", str(f), "--alg", "perm", "--from", "0"]).exit_code == 1


def test_oracle_missing_file():
    assert run(["oracle", "--input", "/no/such/file"]).exit_code == 1


def test_oracle_rejects_disconnected_input(tmp_path):
    f = tmp_path / "discon.txt"
    f.write_text("4\n0 1\n2 3\n")
    assert run(["oracle", "--input", str(f)]).exit_code == 1


def test_verify_subcommand_small():
    result = run([
        "--quiet", "verify", "--family", "tree",
        "--max-h", "2", "--max-m", "2", "--max-vertices", "7",
    ])
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert report["ok"] is True and report["failed"] == 0 and report["total"] > 0


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


def test_oeis_bfile_format():
    result = run(["oeis", "tree-root", "--count", "4"])
    assert result.stdout == "1 1\n2 2\n3 80\n4 21964800\n"
    result = run(["oeis", "comb-row", "--count", "4"])
    assert result.stdout == "1 2\n2 8\n3 72\n4 960\n"


def test_oeis_count_validation():
    assert run(["oeis", "tree-root", "--count", "0"]).exit_code == 1


def _cli_env(**extra):
    env = {k: v for k, v in os.environ.items() if k != "WALKLABEL_PURE"}
    env.update(extra)
    return env


def test_console_script_entry_point():
    exe = shutil.which("walklabel")
    if exe is None:
        pytest.skip("console script not on PATH")
    out = subprocess.run(
        [exe, "count", "tree", "--h", "2", "--m", "2"],
        capture_output=True, text=True, env=_cli_env(), check=True,
    )
    assert out.stdout == "240\n"


def test_pure_backend_env_switch():
    code = (
        "from walklabel import oracle; "
        "from walklabel.graphs import torus; "
        "print(oracle.backend()); "
        "print(oracle.count_labelings(torus(5)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=_cli_env(WALKLABEL_PURE="1"), check=True,
    )
    backend_name, count = out.stdout.split()
    assert backend_name == "pure-python"
    from walklabel import oracle
    from walklabel.graphs import torus
    assert int(count) == oracle.count_labelings(torus(5))
