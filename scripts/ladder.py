"""Time the CLI on a size ladder per family, one fresh interpreter per
point.

    python scripts/ladder.py [NAME ...]

The points are `walklabel count` on two-cycles (20,20,20), (40,40,40) and
(80,80,80), perfect trees (h, m) = (12,2), (14,2) and (16,2), combs
(m, n, k) = (80,80,40) and (200,200,100), and the torus n = 2000, and
`walklabel series` at degrees 45 and 80. For each point the script prints
one JSON line: the CLI argv, the seconds `cli.run` takes (argument
parsing, the work and its decimal conversion), the child's peak RSS
(ru_maxrss) in MB, the length of the stripped stdout (the digit count of
a count) and the sha256 of the CLI's stdout, so two checkouts can be
compared for both speed and output. Points run one after another, so at
most one holds memory at a time.
"""

from __future__ import annotations

import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from walklabel import cli  # noqa: E402

POINTS = {
    **{f"twocycles{a}": ["count", "twocycles", "--a1", str(a), "--a2", str(a), "--a3", str(a)]
       for a in (20, 40, 80)},
    **{f"tree{h}": ["count", "tree", "--h", str(h), "--m", "2"] for h in (12, 14, 16)},
    "comb80": ["count", "comb", "--m", "80", "--n", "80", "--k", "40"],
    "comb200": ["count", "comb", "--m", "200", "--n", "200", "--k", "100"],
    "torus2000": ["count", "torus", "--n", "2000"],
    **{f"series{d}": ["series", "--degree", str(d)] for d in (45, 80)},
}


def run_one(name: str) -> dict:
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


def main(argv: list[str]) -> int:
    if argv[:1] == ["--one"]:
        print(json.dumps(run_one(argv[1])), flush=True)
        return 0
    names = argv or list(POINTS)
    unknown = [name for name in names if name not in POINTS]
    if unknown:
        print(f"unknown point {unknown[0]!r}; choose from {', '.join(POINTS)}", file=sys.stderr)
        return 2
    for name in names:
        child = subprocess.run([sys.executable, __file__, "--one", name], capture_output=True, text=True)
        if child.returncode:
            print(json.dumps({"point": name, "error": f"exit {child.returncode}: {child.stderr.strip()[-200:]}"}))
        else:
            sys.stdout.write(child.stdout)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
