"""Record expected.json: each workload's exit status, verdicts and sample
counts per scenario, and the sha256 of each report at the recorded seed.

    python3 bench/record_expected.py [--seed 42]

Run it only at a commit whose reports are known to be right; the benchmark
gates every later commit against the table it writes.
"""

from __future__ import annotations

import argparse
import json

import gate
from run import spawn
from workloads import WORKLOADS


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    table = {"seed": args.seed, "workloads": {}}
    for name in WORKLOADS:
        record = spawn(name, args.seed, 0)
        entries = {}
        for item in record["items"]:
            with open(item["report"], encoding="utf-8") as fh:
                document = json.load(fh)
            entries[item["scenario"]] = {
                "status": item["status"],
                "sha256": gate.sha256_file(item["report"]),
                "identities": gate.summarize(document),
            }
        table["workloads"][name] = entries
    with open(gate.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
