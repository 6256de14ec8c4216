"""Run the benchmark untraced on seeds 1..runs and print each end-to-end
metric's median and quartile spread (the distance between the first and
third quartile as a share of the median).

    python3 bench/spread.py --workload sweep_p20 [--runs 10] [--seconds 60] [--log PATH]

Each run is a separate ``run.py`` process; with ``--log`` every result line
is appended to PATH, together with its seed and machine record.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("nan")


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--log")
    args = parser.parse_args(argv)
    rows = []
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds)],
            cwd=os.path.dirname(BENCH), capture_output=True, text=True, timeout=200,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        machine = json.loads(lines[0].split(":", 1)[1])
        row = {"seed": seed, "machine": machine, **result}
        rows.append(row)
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
        if args.log:
            with open(args.log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": args.workload, **row}) + "\n")
    print(f"{args.workload}: {len(rows)} runs, all correct: {all(r['correct'] for r in rows)}")
    for name in rows[0]["metrics"]:
        median, share = spread([r["metrics"][name]["value"] for r in rows])
        print(f"  {name:28s} median {median:.6g}  quartile spread {share:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
