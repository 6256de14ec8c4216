"""One benchmark pass in a fresh process.

Runs every scenario of a workload through ``leviflat.cli.run`` and
``leviflat.cli.write_report``, and writes what it measured to a JSON file:

    python3 -I bench/child.py --workload NAME --seed N --trace 0|1 --out PATH

The package is imported from ``src/`` of the checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


def import_leviflat():
    sys.path.insert(0, SRC)
    from leviflat import cli

    if not cli.__file__.startswith(SRC + os.sep):
        raise ImportError(f"leviflat imported from {cli.__file__}, not from {SRC}")
    return cli


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, BENCH)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    os.chdir(ROOT)
    cli = import_leviflat()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    result = {"identities": [], "items": [], "first_identity": None}
    lock = threading.Lock()
    run_identity = cli.run_identity

    def recorded(spec, scenario, *rest, **kwargs):
        start = time.monotonic()
        with lock:
            if result["first_identity"] is None:
                result["first_identity"] = start
        t0 = time.perf_counter()
        report = run_identity(spec, scenario, *rest, **kwargs)
        result["identities"].append(
            [scenario.name, spec.identity, time.perf_counter() - t0, start]
        )
        return report

    cli.run_identity = recorded

    report_dir = os.path.join(BENCH, "out", f"{workload.name}-seed{args.seed}")
    os.makedirs(report_dir, exist_ok=True)
    samples = 0
    for scenario in workload.scenarios:
        config = cli.RunConfig(
            scenario=scenario,
            suite=workload.suite,
            seed=args.seed,
            points=workload.points,
            workers=workload.workers,
        )
        t0 = time.perf_counter()
        if tracer is None:
            status, document = cli.run(config)
        else:
            status, document = tracer.root(cli.run, config)
        t1 = time.perf_counter()
        name = os.path.splitext(os.path.basename(scenario))[0]
        path = os.path.join(report_dir, f"{name}.json")
        cli.write_report(document, path)
        t2 = time.perf_counter()
        samples += sum(len(r["samples"]) for r in document.get("results", ()))
        result["items"].append(
            {"scenario": scenario, "status": status, "report": path, "run_s": t1 - t0, "write_s": t2 - t1}
        )

    result["samples"] = samples
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        layers, problems = tracer.layer_metrics(workload.name, workload.workers, samples)
        result["layers"] = layers
        result["trace_problems"] = problems
        tracer.save(os.path.join(BENCH, "out", f"spans-{workload.name}-seed{args.seed}.npz"))
    _write(args.out, result)
    return 0


def _write(path, result):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    raise SystemExit(main())
