"""leviflat benchmark.

    python3 bench/run.py --workload sweep_p20 [--seed 42] [--seconds 60] [--trace 0|1]

Run from the root of a checkout.  Each pass runs the workload in a fresh
process (``child.py``) through ``leviflat.cli.run`` and ``write_report``;
passes repeat until ``--seconds`` is spent, and the end-to-end times are
built from each scenario's and identity's median over passes.  Every
pass's reports are checked against ``expected.json`` as soon as the pass
ends, before the next pass overwrites them.

With ``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics (medians over traced passes) are printed instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

import gate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT = 170.0
TAIL_BEYOND = 10

UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "tol_digits": "digits",
}

# -log10 of the largest max_rel / tolerance over passing identities: the
# decimal digits by which the closest identity clears its tolerance.  The
# floor keeps the figure finite when every residual is exactly zero.
TOL_FLOOR = 1e-17


class BenchError(Exception):
    pass


def spawn(workload, seed, trace, deadline=None):
    """Run one pass in a fresh process; returns its record with the set-up
    time added."""
    os.makedirs(OUT, exist_ok=True)
    out = os.path.join(OUT, f"pass-{workload}-seed{seed}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [sys.executable, "-I", os.path.join(BENCH, "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out", out]
    timeout = CHILD_TIMEOUT if deadline is None else max(1.0, deadline - time.monotonic())
    started = time.monotonic()
    wall0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    wall = time.perf_counter() - wall0
    if proc.returncode != 0 or not os.path.exists(out):
        raise BenchError(f"pass failed with status {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        record = json.load(fh)
    record["setup_s"] = record["first_identity"] - started
    record["wall_s"] = wall
    return record


def grade(expected, record):
    """Gate every report of one pass while its files are still the pass's
    own.  Returns {attempted, failed, problems, tol_used, sha256}: tol_used
    is the largest max_rel / tolerance over passing identities, sha256 each
    report's digest."""
    attempted = failed = 0
    problems, tol_used, digests = [], 0.0, {}
    for item in record["items"]:
        with open(item["report"], encoding="utf-8") as fh:
            document = json.load(fh)
        a, f, p = gate.check(expected[item["scenario"]], item["scenario"], item["status"], document)
        attempted, failed = attempted + a, failed + f
        problems += p
        tol_used = max(
            [tol_used]
            + [r["max_rel"] / r["tolerance"] for r in document.get("results", ()) if r["passed"]]
        )
        digests[item["scenario"]] = gate.sha256_file(item["report"])
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "tol_used": tol_used, "sha256": digests}


def tally(records):
    """Gate totals over graded passes: (attempted, failed, problems), each
    problem listed once."""
    attempted = sum(r["grade"]["attempted"] for r in records)
    failed = sum(r["grade"]["failed"] for r in records)
    problems = list(dict.fromkeys(p for r in records for p in r["grade"]["problems"]))
    return attempted, failed, problems


def tail(values):
    """Highest percentile that keeps TAIL_BEYOND values beyond it: (value,
    percentile, n)."""
    ordered = sorted(values)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def pass_time(record):
    """run_s of one pass: its cli.run and write_report calls."""
    return sum(item["run_s"] + item["write_s"] for item in record["items"])


def end_to_end(passes):
    """Bounded end-to-end metrics of a run, and the unbounded figures.

    Each scenario's call time and each identity's time is first reduced to
    its median over the passes, so that a burst of machine noise during one
    scenario or identity of one pass does not move the figure.  The median
    and the tail are then taken across the workload's identities.
    """
    scenario_s = {}
    for record in passes:
        for item in record["items"]:
            scenario_s.setdefault(item["scenario"], []).append(item["run_s"] + item["write_s"])
    identity_s = {}
    for record in passes:
        for scenario, identity, seconds, _ in record["identities"]:
            identity_s.setdefault((scenario, identity), []).append(seconds)
    run_s = sum(statistics.median(v) for v in scenario_s.values())
    times = [statistics.median(v) for v in identity_s.values()]
    tail_s, pct, n = tail(times)
    tol_used = max(r["grade"]["tol_used"] for r in passes)
    values = {
        "run_s": run_s,
        "setup_s": statistics.median(r["setup_s"] for r in passes),
        "samples_per_s": passes[0]["samples"] / run_s,
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in passes) / 1024.0,
        "tol_digits": -math.log10(max(tol_used, TOL_FLOOR)),
    }
    # Printed and recorded, but not bounded; README.md says why.
    unbounded = {
        "identity_p50_s": statistics.median(times),
        "identity_tail_s": tail_s,
        "tol_used_max": tol_used,
        "tail_percentile": pct,
        "tail_n": n,
    }
    return values, unbounded


def machine_record():
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        model = platform.processor()
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
        "calibration_s": calibrate(),
    }


def calibrate():
    """Median time of a fixed pure-Python loop that, like the expression
    interpreter, evaluates a tree of small objects through a memo dict."""
    tree = [(i % 7) * 0.25 + 1.0 for i in range(4096)]
    while len(tree) > 1:
        tree = [(tree[i], tree[i + 1]) for i in range(0, len(tree), 2)]

    def ev(node, memo):
        if not isinstance(node, tuple):
            return node
        hit = memo.get(id(node))
        if hit is None:
            hit = memo[id(node)] = ev(node[0], memo) * 0.5 + ev(node[1], memo)
        return hit

    laps = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(20):
            ev(tree[0], {})
        laps.append(time.perf_counter() - t0)
    return statistics.median(laps)


def measure(expected, workload, seed, seconds, trace):
    """All passes of one run, each graded against expected (the workload's
    table) as soon as it ends; returns (passes, untraced passes run
    alongside traced ones for the trace overhead)."""
    begin = time.monotonic()
    deadline = begin + CHILD_TIMEOUT

    def graded(pass_trace):
        record = spawn(workload, seed, pass_trace, deadline=deadline)
        record["grade"] = grade(expected, record)
        return record

    passes, untraced = [], []
    while True:
        if trace:
            untraced.append(graded(0))
        passes.append(graded(trace))
        step = passes[-1]["wall_s"] + (untraced[-1]["wall_s"] if trace else 0.0)
        if time.monotonic() - begin + step > seconds:
            return passes, untraced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "leviflat", "__init__.py")):
        print(f"no leviflat sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    table = gate.load_expected()
    expected = table["workloads"][args.workload]
    machine = machine_record()
    try:
        passes, untraced = measure(expected, args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = tally(passes + untraced)
    problems += list(dict.fromkeys(p for record in passes for p in record.get("trace_problems", ())))

    extra = {}
    if args.trace:
        layers = {
            k: statistics.median(r["layers"][k] for r in passes) for k in passes[0]["layers"]
        }
        layers["trace.run_s"] = statistics.median(pass_time(r) for r in passes)
        layers["trace.overhead_s"] = layers["trace.run_s"] - statistics.median(
            pass_time(r) for r in untraced
        )
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        values, extra = end_to_end(passes)
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}

    machine["calibration_end_s"] = calibrate()
    shas = _sha_diagnostic(table, expected, passes + untraced, args.seed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine,
        "passes": len(passes),
        "pass_run_s": [pass_time(r) for r in passes],
        "untraced_passes": len(untraced),
        "failed_frac": failed / attempted,
        **extra,
        "report_sha256_changed": shas,
        "problems": problems,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"machine: {json.dumps(machine)}")
    print(f"workload={args.workload} seed={args.seed} passes={len(passes)} untraced_passes={len(untraced)}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'failed_frac':32s} {failed / attempted:.6g} ratio")
        print(f"  {'tol_used_max':32s} {extra['tol_used_max']:.6g} ratio")
        print(f"  {'identity_p50_s':32s} {extra['identity_p50_s']:.6g} s")
        print(f"  {'identity_tail_s':32s} {extra['identity_tail_s']:.6g} s "
              f"(p{extra['tail_percentile']:.1f} of n={extra['tail_n']} identity runs)")
    print(f"  reports differing from the recorded sha256: {shas}")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    # A run that measured exits 0 in both modes and carries its verdict in
    # "correct": the result line is read only from a run that exits 0.
    # Non-zero is kept for a run that could not measure (a pass crashed or
    # timed out, or the sources are missing).
    return 0


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_frac") or name.endswith("_per_sample"):
        return "ratio"
    return "count"


def _sha_diagnostic(table, expected, records, seed):
    """Scenarios whose report, in any pass, differs from the sha256 recorded
    at the same seed, or 'n/a' for another seed."""
    if seed != table["seed"]:
        return "n/a"
    return sorted({
        scenario
        for record in records
        for scenario, digest in record["grade"]["sha256"].items()
        if digest != expected[scenario]["sha256"]
    })


if __name__ == "__main__":
    raise SystemExit(main())
