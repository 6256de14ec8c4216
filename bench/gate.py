"""Correctness gate: compare report documents with the expected table.

The table (``expected.json``) holds, for each workload and scenario, the
exit status and each identity's verdict and sample count, recorded from the
seed commit by ``record_expected.py``.  Verdicts and sample counts do not
depend on the seed.  The sha256 of each report at the recorded seed is kept
as a diagnostic only: an evaluator change may move residuals by ulps.
"""

from __future__ import annotations

import hashlib
import json
import os

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected(path=EXPECTED_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def summarize(document):
    """{identity: [passed, samples]} of one report document."""
    return {
        r["identity"]: [bool(r["passed"]) and not r.get("error"), len(r["samples"])]
        for r in document.get("results", ())
    }


def check(expected, scenario, status, document):
    """Check one scenario's report against its expected entry.

    Returns (attempted, failed, problems).  Every expected identity run is
    attempted; one whose verdict or sample count differs, that carries an
    error, or that is missing is failed; so is an identity the table does
    not know.
    """
    want = expected["identities"]
    got = summarize(document)
    problems = []
    failed = 0
    for identity, verdict in want.items():
        if got.get(identity) != verdict:
            failed += 1
            problems.append(f"{scenario}: {identity} expected {verdict}, got {got.get(identity)}")
    extra = sorted(set(got) - set(want))
    for identity in extra:
        problems.append(f"{scenario}: unexpected identity {identity}")
    if status != expected["status"]:
        problems.append(f"{scenario}: exit status {status}, expected {expected['status']}")
    return len(want) + len(extra), failed + len(extra), problems


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
