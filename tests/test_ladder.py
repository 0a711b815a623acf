"""scripts/ladder.py --repeat: how the runs of one point fold into one record."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("ladder", Path(__file__).resolve().parent.parent / "scripts" / "ladder.py")
ladder = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ladder)


def _run(seconds, maxrss_mb=20.0, sha256="a"):
    return {"point": "comb80", "exit": 0, "seconds": seconds, "maxrss_mb": maxrss_mb, "digits": 3, "sha256": sha256}


def test_repeats_fold_into_the_median_and_quartiles():
    runs = [_run(0.5), _run(0.1, 21.5), _run(0.3), _run(0.2), _run(0.4)]
    record, agree = ladder._repeated(runs)
    assert agree
    assert record == {"point": "comb80", "exit": 0, "seconds": 0.3, "maxrss_mb": 21.5, "digits": 3,
                      "sha256": "a", "seconds_iqr": [0.2, 0.4], "runs": [0.5, 0.1, 0.3, 0.2, 0.4]}


def test_repeats_that_print_different_output_disagree():
    assert not ladder._repeated([_run(0.1), _run(0.1, sha256="b")])[1]
    failed = {"point": "comb80", "error": "exit 1: boom"}
    assert ladder._repeated([_run(0.1), failed]) == (failed, True)
