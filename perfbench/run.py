"""Layered benchmark for walklabel.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): dp-sparse, dp-dense, closed-forms, verify.
The op list comes from --seed. Passes repeat it, each in a fresh
interpreter (closed-forms: each op in its own interpreter, because the
torus recurrences are memoised per process and every `walklabel count`
call pays the cold cost). Passes run until the next one would overrun
--seconds; there is always at least one.

Times are scaled to a reference machine speed. On the shared 2-core host
this was tuned on, the same pass ran up to a quarter slower for minutes at
a time. Each worker times worker.calibrate() before, between and after its
ops, and every time of a pass is multiplied by CALIBRATION_S over the
median calibration time of the pass. The run record keeps each factor.

--trace 0 prints the end-to-end metrics:
  setup_s      median over interpreters of start + import walklabel + input
               generation
  wall_s       median over passes of the sum of the pass's op times
  op_p50_ms,   pooled over every op of the run (the summary line above the
  op_p90_ms    result gives the sample count)
  peak_rss_mb  median over passes of the pass process's ru_maxrss (the
               largest of a closed-forms pass's interpreters)
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced ones (see tracing.py); trace.overhead_s is traced
minus untraced wall_s, both as medians over passes.

Every op result is checked against a value computed without the code path
it times (reference.py). An op that raises or fails its check counts in
"failed"; failed/attempted on the last line is the failed ratio, which is
not a metric of its own because it is 0 when all is well. The run appends
a record with its environment to perfbench/results/runs.jsonl, and traced
runs write their spans to perfbench/results/spans-*.jsonl.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import reference
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKER = os.path.join(HERE, "worker.py")
# a run must end within 180 s; leave room for the summary
HARD_LIMIT_S = 170.0
SERIES_CHECKED_ROWS = 25
# worker.calibrate() on an idle core of a shared 2-core x86-64 host, Python 3.11
CALIBRATION_S = 0.014
VERIFY_SPANS = {"verify_trees": "tree", "verify_combs": "comb", "verify_torus": "torus", "verify_twocycles": "twocycles"}


class BenchError(RuntimeError):
    pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "walklabel", "__init__.py")):
        print(f"error: no walklabel sources under {ROOT}/src", file=sys.stderr)
        return 1
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from walklabel import graphs

    job = workloads.make_job(args.workload, args.seed, graphs)
    try:
        passes = run_passes(job, args.seconds, bool(args.trace), started)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # Only now compute the expected values: on Linux a child's ru_maxrss
    # starts at the peak RSS of the process that spawned it, so this
    # process stays small while workers run. The counts reach tens of
    # thousands of digits; this process only compares them.
    sys.set_int_max_str_digits(0)
    checks = expectations(job, graphs)

    attempted = failed = 0
    failures = []
    verdicts: dict = {}
    for p in passes:
        for i, res in enumerate(p["ops"]):
            attempted += 1
            key = (i, json.dumps(res.get("value")))
            if key not in verdicts:
                verdicts[key] = "error" not in res and checks[i](res["value"])
            if not verdicts[key]:
                failed += 1
                if len(failures) < 5:
                    failures.append({"op": job["ops"][i], "got": res.get("error", str(res.get("value"))[:200])})
    probes = [_probe_outcome(job, p) for p in passes if p.get("probes")]

    plain = [p for p in passes if not p["trace"]]
    env = environment(args.seed, passes[0]["backend"])
    op_samples = [r["s"] for p in plain for r in p["ops"]]
    samples = {"passes": len(plain), "ops": len(op_samples), "setups": sum(len(p["setups"]) for p in plain)}
    if args.trace:
        traced = [p for p in passes if p["trace"]]
        metrics = layer_metrics(traced, plain, job["ops"])
        metrics["probe.failed"] = (probes[-1] if probes else 0, "count")
        samples["traced_passes"] = len(traced)
        write_spans(args.workload, args.seed, traced)
    else:
        quantiles = statistics.quantiles(op_samples, n=10)
        metrics = {
            "setup_s": (statistics.median(s for p in plain for s in p["setups"]), "s"),
            "wall_s": (statistics.median(p["wall"] for p in plain), "s"),
            "op_p50_ms": (quantiles[4] * 1e3, "ms"),
            "op_p90_ms": (quantiles[8] * 1e3, "ms"),
            "peak_rss_mb": (statistics.median(p["rss_kb"] for p in plain) / 1024, "MB"),
        }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "samples": samples, "attempted": attempted, "failed": failed,
        "failures": failures, "probe_failures": probes, "pass_walls": [p["wall"] for p in passes],
        "speed_factors": [p["factor"] for p in passes],
        "op_s": [[r["s"] for r in p["ops"]] for p in plain],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    mismatch = save_record(record)
    print(f"# {args.workload} seed={args.seed}: {samples}; failed {failed}/{attempted}; "
          f"probe failures per pass {probes}; env {json.dumps(env)}")
    if mismatch:
        print(f"# WARNING: backend {env['backend']} differs from earlier results in "
              f"{RESULTS}/runs.jsonl ({', '.join(sorted(mismatch))}); do not compare those runs")
    for f in failures:
        print(f"# failed op: {json.dumps(f)[:300]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


# ---------------------------------------------------------------- checks

def expectations(job: dict, graphs) -> list:
    """One predicate per op over the op's returned value."""
    from walklabel import combs, series, trees, twocycles

    built = []
    for spec in job["graphs"]:
        if "edges" in spec:
            lines = spec["edges"].split("\n")
            n = int(lines[0])
            masks = [0] * n
            for line in lines[1:]:
                if line:
                    u, v = map(int, line.split())
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
            built.append((n, masks, None))
        else:
            g = workloads.build_graph(graphs, spec)
            built.append((g.n, list(g.masks), spec))
    gf = None
    checks = []
    for op in job["ops"]:
        kind = op["kind"]
        if kind == "total":
            n, masks, spec = built[op["graph"]]
            if spec is None:
                want = reference.forward_count(masks, n)[0]
            else:
                p = spec["params"]
                want = {"twocycles": lambda: twocycles.count_two_cycles(*p),
                        "torus": lambda: reference.torus_total(p[0]),
                        "comb": lambda: combs.count_comb(*p),
                        "tree": lambda: trees.count_perfect_tree(*p)}[spec["family"]]()
            checks.append(_equals(str(want)))
        elif kind in ("from", "completions"):
            n, masks, _ = built[op["graph"]]
            labeled = 1 << op["start"] if kind == "from" else sum(1 << v for v in op["labeled"])
            checks.append(_equals(str(reference.forward_count(masks, n, labeled)[0])))
        elif op["argv"][0] == "count":
            family, params = op["argv"][1], [int(x) for x in op["argv"][3::2]]
            if family == "torus":
                want = reference.torus_total(*params)
            elif family == "twocycles":
                if gf is None:
                    top = max(sum(p) for p in workloads.TWOCYCLES_LADDER)
                    gf = series.expand_rational(series.two_cycles_gf(), top)
                want = gf[tuple(params)]
            elif family == "comb":
                want = reference.tree_total(reference.comb_adj(*params))
            else:
                want = reference.tree_total(reference.perfect_tree_adj(*params))
            checks.append(_equals([0, f"{want}\n"]))
        elif op["argv"][0] == "series":
            checks.append(_series_check(int(op["argv"][2]), job["series_sample"], twocycles))
        else:
            grid = dict(zip(workloads.VERIFY_FLAGS, op["grid"]))
            want = reference.verify_check_count(*(grid[f] for f in workloads.VERIFY_FLAGS))
            checks.append(lambda value, want=want: value[0] == 0 and json.loads(value[1])["total"] == want)
    return checks


def _equals(want):
    return lambda value: value == want


def _series_check(degree: int, sample_seed: int, twocycles):
    """Row count C(degree - 3, 3) (every a_i >= 2 has a nonzero count) and
    a seeded sample of rows against the two-cycle closed form."""
    def check(value) -> bool:
        code, text = value
        rows = text.splitlines()
        if code != 0 or rows[0] != "a1,a2,a3,coefficient" or len(rows) - 1 != math.comb(degree - 3, 3):
            return False
        for row in random.Random(sample_seed).sample(rows[1:], SERIES_CHECKED_ROWS):
            a1, a2, a3, c = map(int, row.split(","))
            if twocycles.count_two_cycles(a1, a2, a3) != c:
                return False
        return True
    return check


def _probe_outcome(job: dict, p: dict) -> int:
    """Probe ops that raised or did not exit 0 with the torus formula."""
    bad = 0
    for op, res in zip(job["probes"], p["probes"]):
        n = int(op["argv"][3])
        bad += "error" in res or res["value"] != [0, f"{reference.torus_total(n)}\n"]
    return bad


# ---------------------------------------------------------------- passes

def run_passes(job: dict, seconds: float, trace: bool, started: float) -> list[dict]:
    deadline = time.monotonic() + seconds
    passes: list[dict] = []
    longest = 0.0
    while not passes or time.monotonic() + longest <= deadline:
        t0 = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            passes.append(run_pass(job, traced, started))
        longest = max(longest, time.monotonic() - t0)
    return passes


def run_pass(job: dict, trace: bool, started: float) -> dict:
    if job.get("probes"):
        # closed-forms: every op (and probe) in its own interpreter
        runs = [_spawn({"graphs": [], "ops": [op]}, trace, started) for op in job["ops"]]
        probes = [_spawn({"graphs": [], "ops": [op]}, False, started)["ops"][0] for op in job["probes"]]
    else:
        runs = [_spawn(job, trace, started)]
        probes = []
    # scale every time the pass measured to the reference speed
    factor = CALIBRATION_S / statistics.median(c for r in runs for c in r["calib"])
    ops = [dict(res, s=res["s"] * factor) for r in runs for res in r["ops"]]
    spans = []
    for r in runs:
        offset = len(spans)
        spans += [[s[0] + offset, s[1] + offset if s[1] >= 0 else -1, *s[2:6], s[6] * factor, s[7]]
                  for s in r.get("spans", [])]
    return {
        "trace": trace,
        "ops": ops,
        "probes": probes,
        "setups": [r["setup"] * factor for r in runs],
        "wall": sum(op["s"] for op in ops),
        "factor": factor,
        "rss_kb": max(r["rss_kb"] for r in runs),
        "backend": runs[0]["backend"],
        "spans": spans,
        "dp_calls": [c for r in runs for c in r.get("dp_calls", [])],
        "series_terms": sum(r.get("series_terms", 0) for r in runs),
    }


def _spawn(job: dict, trace: bool, started: float) -> dict:
    budget = started + HARD_LIMIT_S - time.monotonic()
    if budget <= 0:
        raise BenchError("time limit reached")
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER], input=json.dumps({"job": job, "trace": trace}),
                              capture_output=True, text=True, timeout=budget, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    out = json.loads(proc.stdout)
    out["setup"] = out["ready"] - t0
    return out


# ---------------------------------------------------------------- traced metrics

def layer_metrics(traced: list[dict], plain: list[dict], ops: list[dict]) -> dict:
    per_pass = [_pass_layers(p, ops) for p in traced]
    # times: median over traced passes; counts repeat exactly, take the last
    out = dict(per_pass[-1])
    for name, (_, unit) in out.items():
        if unit == "s":
            out[name] = (statistics.median(m[name][0] for m in per_pass), unit)
    oracle_self = out["oracle.self_s"][0]
    out["oracle.subsets_per_s"] = (out["oracle.dp_subsets"][0] / oracle_self if oracle_self else 0.0, "1/s")
    out["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                               - statistics.median(p["wall"] for p in plain), "s")
    return out


def _pass_layers(p: dict, ops: list[dict]) -> dict:
    spans = p["spans"]
    own = tracing.self_times(spans)
    out = {}
    for layer in tracing.LAYERS:
        mine = [i for i, s in enumerate(spans) if s[tracing.LAYER] == layer]
        out[f"{layer}.calls"] = (sum(spans[i][tracing.CALLS] for i in mine), "count")
        out[f"{layer}.self_s"] = (sum(own[i] for i in mine), "s")
    for fn, family in VERIFY_SPANS.items():
        out[f"verify.{family}.s"] = (sum(s[tracing.TOTAL] for s in spans if s[tracing.NAME] == fn), "s")
    out["verify.checks"] = (sum(json.loads(r["value"][1])["total"] for op, r in zip(ops, p["ops"])
                                if "grid" in op and "value" in r), "count")
    # DP work from each oracle call's arguments, counted after the pass: the
    # subset DP fills a table of 2^(free vertices) entries, while a DP over
    # connected sets would touch only the sets reference.forward_count visits
    subsets = states = biggest = 0
    for (name, n, masks, rest), count in p["dp_calls"]:
        free, labeled, require, forbid = _dp_shape(name, n, rest)
        if free is None:
            continue
        subsets += count << free
        biggest = max(biggest, 1 << free)
        states += count * _connected_states(tuple(masks), n, labeled, require, forbid)
    out["oracle.dp_subsets"] = (subsets, "count")
    out["oracle.connected_states"] = (states, "count")
    out["oracle.useful_ratio"] = (states / subsets if subsets else 0.0, "ratio")
    out["oracle.max_table_entries"] = (biggest, "count")
    out["series.terms"] = (p["series_terms"], "count")
    return out


def _dp_shape(name: str, n: int, rest: list):
    """(free vertices, labeled mask, require, forbid) of an oracle call;
    free is None when the call runs no DP."""
    if name == "count_labelings":
        return n, 0, -1, -1
    if name == "count_completions":
        labeled = sum(1 << v for v in rest[0])
        return n - labeled.bit_count(), labeled, -1, -1
    start = rest[0]
    if name == "count_labelings_from_before":
        u, v = rest[1], rest[2]
        if v == start:
            return None, 0, -1, -1
        if u != start:
            return n - 1, 1 << start, u, v
    return n - 1, 1 << start, -1, -1


@functools.cache
def _connected_states(masks: tuple, n: int, labeled: int, require: int, forbid: int) -> int:
    return reference.forward_count(masks, n, labeled, require, forbid)[1]


# ---------------------------------------------------------------- records

def environment(seed: int, backend: str) -> dict:
    import hashlib

    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "walklabel")
    for name in sorted(os.listdir(src)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "backend": backend,
        "WALKLABEL_PURE": os.environ.get("WALKLABEL_PURE"),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def save_record(record: dict) -> set:
    """Append the run's record; return the backends of earlier runs of the
    same workload that differ from this one."""
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "runs.jsonl")
    others = set()
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                old = json.loads(line)
                if old["workload"] == record["workload"] and old["env"]["backend"] != record["env"]["backend"]:
                    others.add(old["env"]["backend"])
    record["backend_mismatch"] = sorted(others)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return others


def write_spans(workload: str, seed: int, traced: list[dict]) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"spans-{workload}-seed{seed}.jsonl"), "w", encoding="utf-8") as fh:
        for k, p in enumerate(traced):
            own = tracing.self_times(p["spans"])
            for s, self_s in zip(p["spans"], own):
                fh.write(json.dumps({"pass": k, "id": s[0], "parent": s[1], "layer": s[2], "name": s[3],
                                     "first_start": s[4], "last_end": s[5], "total": s[6], "calls": s[7],
                                     "self": self_s}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
