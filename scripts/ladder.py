"""Time the CLI on a size ladder per family, one fresh interpreter per
point.

    python scripts/ladder.py [--out PATH] [--repeat N] [--root DIR] [NAME ...]

The points are `walklabel count` on two-cycles (20,20,20), (40,40,40),
(80,80,80), (300,300,300) and (600,600,600), perfect trees (h, m) =
(12,2), (14,2) and (16,2), combs (m, n, k) = (80,80,40), (200,200,100)
and (500,500,250),
the torus n = 2000 and 100000, `walklabel series` at degrees 45, 80 and
100 (the CLI's top degree), and `walklabel --quiet verify --family all`
at its default grids (verifyall).
For each point the script prints one JSON line: the CLI argv, the
seconds `cli.run` takes (argument parsing, the work and its decimal
conversion), the child's peak RSS (ru_maxrss) in MB, the length of the
stripped stdout (the digit count of a count) and the sha256 of the CLI's
stdout, so two checkouts can be compared for both speed and output.
Points run one after another, so at most one holds memory at a time.
--out PATH also writes one JSON file: the environment (python version,
processor count, the checkout's git commit and the line count of its
src/walklabel/*.py, "src_lines") and the records of every point.
--repeat N runs each point in N fresh interpreters, one after another,
and prints one record for them: "seconds" is the median,
"seconds_iqr" the first and third quartiles and "runs" every run's
seconds, and "maxrss_mb" is the largest. Each repeat also times
perfbench's worker.calibrate() just before and just after its point, and
"seconds_scaled" is the median of seconds x CALIBRATION_S over that
repeat's mean calibration time, as perfbench scales its passes, so that
batches run while the host is slower can be compared. The script exits 1
if the repeats of a point differ in anything but time and memory (its
sha256, say). --root DIR times the walklabel of another checkout (default
this one): the children import it from DIR/src and the --out file records
DIR's commit, while the points and the calibration stay this script's, so
two checkouts are timed on the same points and scaled by the same code.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

POINTS = {
    **{f"twocycles{a}": ["count", "twocycles", "--a1", str(a), "--a2", str(a), "--a3", str(a)]
       for a in (20, 40, 80, 300, 600)},
    **{f"tree{h}": ["count", "tree", "--h", str(h), "--m", "2"] for h in (12, 14, 16)},
    "comb80": ["count", "comb", "--m", "80", "--n", "80", "--k", "40"],
    "comb200": ["count", "comb", "--m", "200", "--n", "200", "--k", "100"],
    "comb500": ["count", "comb", "--m", "500", "--n", "500", "--k", "250"],
    **{f"torus{n}": ["count", "torus", "--n", str(n)] for n in (2000, 100000)},
    **{f"series{d}": ["series", "--degree", str(d)] for d in (45, 80, 100)},
    "verifyall": ["--quiet", "verify", "--family", "all"],
}


def run_one(name: str) -> dict:
    # imported here, so that scripts/sweep24.py, whose children import this
    # module, never loads walklabel.cli
    from walklabel import cli

    argv = POINTS[name]
    started = time.perf_counter()
    result = cli.run(argv)
    seconds = time.perf_counter() - started
    return {
        "point": name,
        "argv": argv,
        "exit": result.exit_code,
        "seconds": round(seconds, 3),
        "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "digits": len(result.stdout.strip()),
        "sha256": hashlib.sha256(result.stdout.encode()).hexdigest(),
    }


def environment(root: Path = ROOT) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True).stdout.strip() or None
    except OSError:
        commit = None
    src_lines = sum(len(path.read_bytes().splitlines()) for path in (root / "src" / "walklabel").glob("*.py"))
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit, "src_lines": src_lines}


def _perfbench(module: str):
    """The perfbench module of that name: repeats are calibrated as
    perfbench calibrates its passes, with its code and its constant."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.append(str(ROOT / "perfbench"))
    return importlib.import_module(module)


def _child(script: str, name: str, noun: str, calibrate: bool, root: str | None = None) -> dict:
    """The record of one entry, run as `--one NAME` in a fresh interpreter
    of the script at that path, with `--root DIR` when it times another
    checkout and `--calibrate` when the record should carry calibration
    times."""
    argv = [sys.executable, script, "--one", name]
    argv += ["--root", root] * (root is not None) + ["--calibrate"] * calibrate
    child = subprocess.run(argv, capture_output=True, text=True)
    if child.returncode:
        return {noun: name, "error": f"exit {child.returncode}: {child.stderr.strip()[-200:]}"}
    return json.loads(child.stdout)


_MEASURED = ("seconds", "batch_seconds", "maxrss_mb", "calibration_s")


def _repeated(runs: list[dict]) -> tuple[dict, bool]:
    """One record for the repeats of an entry, and whether they agree in
    every field but _MEASURED; a failed repeat's record stands for all."""
    failed = [run for run in runs if "error" in run]
    if failed:
        return failed[0], True
    outputs = [{key: value for key, value in run.items() if key not in _MEASURED} for run in runs]
    seconds = [run["seconds"] for run in runs]
    q1, _, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    reference = _perfbench("run").CALIBRATION_S
    scaled = [run["seconds"] * reference / statistics.mean(run["calibration_s"]) for run in runs]
    record = {**runs[0], "seconds": round(statistics.median(seconds), 3),
              "seconds_iqr": [round(q1, 3), round(q3, 3)], "runs": seconds,
              "seconds_scaled": round(statistics.median(scaled), 3),
              "maxrss_mb": max(run["maxrss_mb"] for run in runs)}
    if "batch_seconds" in record:  # scripts/sweep24.py's every-start batch
        record["batch_seconds"] = round(statistics.median(run["batch_seconds"] for run in runs), 3)
    del record["calibration_s"]
    return record, all(output == outputs[0] for output in outputs)


def main(argv: list[str], table: dict = POINTS, one=run_one, noun: str = "point") -> int:
    """Run each named entry of table (default all) in a fresh interpreter
    of the script that defines one, as `--one NAME`, and print its record;
    scripts/sweep24.py runs its graphs through this too. Records and the
    --out file name the entries by noun: "point" and "points"."""
    if argv[:1] == ["--one"]:
        if argv[2:3] == ["--root"]:  # run_one imports walklabel only after this
            sys.path.insert(0, str(Path(argv[3]) / "src"))
            argv = argv[:2] + argv[4:]
        if argv[2:] == ["--calibrate"]:
            calibrate = _perfbench("worker").calibrate
            calibrate()  # the first call in a fresh interpreter runs cold
            before = calibrate()
            record = one(argv[1])
            record["calibration_s"] = [before, calibrate()]
        else:
            record = one(argv[1])
        print(json.dumps(record), flush=True)
        return 0
    script = one.__globals__  # the defining script's globals, registered in sys.modules or not
    parser = argparse.ArgumentParser(description=script["__doc__"].split("\n\n")[0])
    parser.add_argument("--out", metavar="PATH", help="also write the environment and every record as JSON")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help=f"run each {noun} in N fresh interpreters and record the median and quartiles "
                             "of its seconds")
    if one is run_one:  # scripts/sweep24.py imports walklabel before it parses
        parser.add_argument("--root", metavar="DIR",
                            help="time the walklabel of the checkout at DIR (default this one)")
    parser.add_argument("names", nargs="*", metavar="NAME", help=f"{noun}s to run (default all): {', '.join(table)}")
    args = parser.parse_args(argv)
    root = getattr(args, "root", None)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    names = args.names or list(table)
    unknown = [name for name in names if name not in table]
    if unknown:
        print(f"unknown {noun} {unknown[0]!r}; choose from {', '.join(table)}", file=sys.stderr)
        return 2
    records = []
    status = 0
    for name in names:
        runs = [_child(script["__file__"], name, noun, args.repeat > 1, root) for _ in range(args.repeat)]
        record, agree = _repeated(runs) if args.repeat > 1 else (runs[0], True)
        if not agree:
            print(f"{noun} {name!r}: the output differs between repeats", file=sys.stderr)
            status = 1
        records.append(record)
        print(json.dumps(record), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"environment": environment(Path(root or ROOT)), f"{noun}s": records}, fh, indent=1)
            fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
