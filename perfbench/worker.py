"""One pass of a job in a fresh interpreter.

Reads {"job": ..., "trace": bool} from stdin, imports walklabel from the
checkout's src/, builds the job's graphs, runs its ops and prints one JSON
result. Each op is timed around the single walklabel call it makes; its
output goes back as text and the parent checks it. An op that raises is
reported with its error, not retried.

`ready` is time.monotonic() once set-up is done. CLOCK_MONOTONIC is shared
by all processes, so the parent subtracts its own reading taken before the
spawn to get interpreter start + import + input generation.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    request = json.load(sys.stdin)
    job = request["job"]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import walklabel
    from walklabel import cli, graphs, oracle

    if not os.path.abspath(walklabel.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"walklabel imported from {walklabel.__file__}, not from {ROOT}/src", file=sys.stderr)
        return 1
    backend = oracle.backend()
    tracer = None
    span = lambda layer, name: contextlib.nullcontext()  # noqa: E731
    if request["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        span = tracer.span
    with span("bench", "setup"):
        built = [workloads.build_graph(graphs, spec) for spec in job["graphs"]]
    ready = time.monotonic()

    # calibrate before the first op, between ops and after the last; the
    # first call in a fresh interpreter runs cold and is not kept
    calibrate()
    calib = [calibrate()]
    results = []
    for i, op in enumerate(job["ops"]):
        with span("bench", f"op{i}"):
            results.append(_run_op(op, built, cli, oracle))
        calib.append(calibrate())
    out = {
        "ready": ready,
        "calib": calib,
        "ops": results,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "backend": backend,
    }
    if tracer:
        out["spans"] = tracer.records()
        out["dp_calls"] = [[list(k), c] for k, c in tracer.dp_calls.items()]
        out["series_terms"] = tracer.series_terms
    json.dump(out, sys.stdout)
    return 0


def calibrate() -> float:
    """Seconds this process takes for a fixed mix of the interpreter work
    the workloads do: small-int bit loops over a list, dict updates, and
    big-int arithmetic."""
    t0 = time.perf_counter()
    table = [1] * 4096
    for c in range(1, 4096):
        rem = c
        while rem:
            low = rem & -rem
            rem ^= low
            table[c] += table[c ^ low] & 0xFFFF
    counts: dict[int, int] = {}
    for j in range(30_000):
        counts[j * 7919 % 4099] = counts.get(j * 7919 % 4099, 0) + j
    values = [3 ** (300 + j % 64) for j in range(3000)]
    acc = 1
    for v in values:
        acc = (acc * v) % (v + 1)
    return time.perf_counter() - t0


def _run_op(op: dict, built: list, cli, oracle) -> dict:
    kind = op["kind"]
    g = built[op["graph"]] if "graph" in op else None
    t0 = time.perf_counter()
    try:
        if kind == "total":
            value = oracle.count_labelings(g)
        elif kind == "from":
            value = oracle.count_labelings_from(g, op["start"])
        elif kind == "completions":
            value = oracle.count_completions(g, op["labeled"])
        else:
            res = cli.run(op["argv"])
            value = [res.exit_code, res.stdout]
    except Exception as exc:  # an op that raises is a failed op, reported to the parent
        return {"s": time.perf_counter() - t0, "error": f"{type(exc).__name__}: {exc}"[:300]}
    elapsed = time.perf_counter() - t0
    return {"s": elapsed, "value": value if kind == "cli" else str(value)}


if __name__ == "__main__":
    sys.exit(main())
