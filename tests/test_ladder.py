"""scripts/ladder.py --repeat: how the runs of one point fold into one record;
--root: which checkout a point times."""

import hashlib
import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("ladder", Path(__file__).resolve().parent.parent / "scripts" / "ladder.py")
ladder = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ladder)


CALIBRATION_S = ladder._perfbench("run").CALIBRATION_S


def _run(seconds, maxrss_mb=20.0, sha256="a", calibration_s=(CALIBRATION_S, CALIBRATION_S)):
    return {"point": "comb80", "exit": 0, "seconds": seconds, "maxrss_mb": maxrss_mb, "digits": 3, "sha256": sha256,
            "calibration_s": list(calibration_s)}


def test_repeats_fold_into_the_median_and_quartiles():
    runs = [_run(0.5), _run(0.1, 21.5), _run(0.3), _run(0.2), _run(0.4)]
    record, agree = ladder._repeated(runs)
    assert agree
    assert record == {"point": "comb80", "exit": 0, "seconds": 0.3, "maxrss_mb": 21.5, "digits": 3,
                      "sha256": "a", "seconds_iqr": [0.2, 0.4], "runs": [0.5, 0.1, 0.3, 0.2, 0.4],
                      "seconds_scaled": 0.3}


def test_repeats_scale_each_run_by_its_own_calibration():
    # a repeat timed while the host ran at half speed reads twice as long,
    # and its calibration took twice as long too
    slow = (1.5 * CALIBRATION_S, 2.5 * CALIBRATION_S)
    runs = [_run(0.2), _run(0.4, calibration_s=slow), _run(0.4, calibration_s=slow), _run(0.21), _run(0.19)]
    record, agree = ladder._repeated(runs)
    assert agree and record["seconds"] == 0.21 and record["seconds_scaled"] == 0.2
    assert "calibration_s" not in record
    assert ladder._repeated([_run(0.1), _run(0.1, calibration_s=slow)])[1]


def test_a_calibrated_child_times_calibrate_around_its_point(capsys):
    assert ladder.main(["--one", "twocycles20"]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert ladder.main(["--one", "twocycles20", "--calibrate"]) == 0
    calibrated = json.loads(capsys.readouterr().out)
    before, after = calibrated.pop("calibration_s")
    assert before > 0 and after > 0
    assert list(calibrated) == list(plain) == ["point", "argv", "exit", "seconds", "maxrss_mb", "digits", "sha256"]
    assert calibrated["sha256"] == plain["sha256"]


def test_repeats_that_print_different_output_disagree():
    assert not ladder._repeated([_run(0.1), _run(0.1, sha256="b")])[1]
    failed = {"point": "comb80", "error": "exit 1: boom"}
    assert ladder._repeated([_run(0.1), failed]) == (failed, True)


def test_repeats_fold_a_sweep_batch_time_into_its_median():
    # scripts/sweep24.py's records also time an every-start batch
    runs = [{**_run(s), "batch_seconds": b} for s, b in ((0.1, 0.9), (0.2, 0.5), (0.3, 0.7))]
    record, agree = ladder._repeated(runs)
    assert agree and record["batch_seconds"] == 0.7 and record["seconds"] == 0.2


def test_a_root_times_the_walklabel_of_that_checkout(tmp_path, capsys):
    # a stub checkout whose cli echoes its argv: the child must import it,
    # not this checkout's walklabel, and --out must not record this commit
    package = tmp_path / "src" / "walklabel"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("from types import SimpleNamespace\n\n\n"
                                    "def run(argv):\n"
                                    "    return SimpleNamespace(exit_code=0, stdout=' '.join(argv) + '\\n')\n")
    out = tmp_path / "ladder.json"
    assert ladder.main(["--root", str(tmp_path), "--out", str(out), "comb500"]) == 0
    record = json.loads(capsys.readouterr().out)
    stdout = "count comb --m 500 --n 500 --k 250\n"
    assert record["sha256"] == hashlib.sha256(stdout.encode()).hexdigest()
    assert (record["exit"], record["digits"]) == (0, len(stdout.strip()))
    written = json.loads(out.read_text())
    assert written["points"] == [record]
    assert written["environment"]["commit"] is None  # the stub is no git checkout
    assert written["environment"]["src_lines"] == 5  # the stub cli.py; its __init__.py is empty
