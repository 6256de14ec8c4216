"""Tests of the benchmark itself; not part of the tier-1 suite.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import run  # noqa: E402


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def broken_report():
    from leviflat import cli

    status, document = cli.run(cli.RunConfig(scenario="broken_nonintegrable", points=20))
    return status, json.loads(json.dumps(document))


def test_gate_accepts_seed_report_and_expected_frobenius_fail(broken_report):
    status, document = broken_report
    expected = gate.load_expected()["workloads"]["sweep_p20"]["broken_nonintegrable"]
    assert expected["identities"]["frobenius"][0] is False
    attempted, failed, problems = gate.check(expected, "broken_nonintegrable", status, document)
    assert (attempted, failed, problems) == (4, 0, [])


def test_gate_counts_identity_missing_samples(broken_report):
    status, document = broken_report
    doctored = copy.deepcopy(document)
    victim = next(r for r in doctored["results"] if r["passed"])
    victim["samples"] = victim["samples"][:-1]
    expected = gate.load_expected()["workloads"]["sweep_p20"]["broken_nonintegrable"]
    attempted, failed, problems = gate.check(expected, "broken_nonintegrable", status, doctored)
    assert failed / attempted > 0
    assert victim["identity"] in problems[0]


def test_gate_counts_missing_and_errored_identities(broken_report):
    status, document = broken_report
    doctored = copy.deepcopy(document)
    doctored["results"].pop()
    doctored["results"][0]["error"] = "ValueError: boom"
    expected = gate.load_expected()["workloads"]["sweep_p20"]["broken_nonintegrable"]
    _, failed, _ = gate.check(expected, "broken_nonintegrable", status, doctored)
    assert failed == 2


def test_gate_grades_every_pass_before_the_next_overwrites(broken_report, tmp_path, monkeypatch):
    # Every pass writes its reports to the same path; only the first pass's
    # report is doctored, and the run must still fail.
    status, document = broken_report
    doctored = copy.deepcopy(document)
    victim = next(r for r in doctored["results"] if r["passed"])
    victim["samples"] = victim["samples"][:-1]
    path = tmp_path / "broken_nonintegrable.json"
    calls = []

    def fake_spawn(workload, seed, trace, deadline=None):
        calls.append(trace)
        path.write_text(json.dumps(doctored if len(calls) == 1 else document))
        return {
            "items": [{"scenario": "broken_nonintegrable", "status": status, "report": str(path),
                       "run_s": 1.0, "write_s": 0.0}],
            "identities": [], "samples": 1, "setup_s": 0.1,
            # the third pass ends the run
            "wall_s": 100.0 if len(calls) == 3 else 0.0,
        }

    monkeypatch.setattr(run, "spawn", fake_spawn)
    expected = gate.load_expected()["workloads"]["sweep_p20"]
    passes, untraced = run.measure(expected, "sweep_p20", 1, 10.0, 0)
    assert len(passes) == 3 and untraced == []
    attempted, failed, problems = run.tally(passes)
    assert (attempted, failed) == (12, 1)
    assert victim["identity"] in problems[0]


def test_tail_keeps_ten_values_beyond():
    value, pct, n = run.tail(list(range(100)))
    assert (value, n) == (89, 100)
    assert pct == 90.0
    assert sum(v > value for v in range(100)) == run.TAIL_BEYOND


TRACED = r"""
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from leviflat import cli
from tracer import Tracer
tracer = Tracer()
tracer.install()
status, doc = tracer.root(cli.run, cli.RunConfig(scenario="t3_flat", suite="excalc.*,flow.pullback_identity", points=3))
samples = sum(len(r["samples"]) for r in doc["results"])
layers, problems = tracer.layer_metrics("t3_flat", 1, samples)
sp = tracer.spans()
roots = sp[sp[:, 1] == 0]
layers["root_s"] = float((roots[:, 3] - roots[:, 2]).sum())
print(json.dumps([status, layers, problems]))
"""


def test_traced_self_times_account_for_the_run():
    proc = subprocess.run(
        [sys.executable, "-I", "-c", TRACED, os.path.join(ROOT, "src"), BENCH],
        capture_output=True, text=True, timeout=120, check=True,
    )
    status, layers, problems = json.loads(proc.stdout.splitlines()[-1])
    assert status == 0 and problems == []
    assert layers["suites.identities"] == 4
    assert layers["flows.integrate_calls"] > 0
    assert layers["symfield.eval_calls"] > 0 and layers["symfield.dag_nodes"] > 0
    assert layers["trace.accounted_s"] == pytest.approx(layers["root_s"], rel=1e-9)
    declared = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    printed = set(layers) - {"root_s"} | {"trace.overhead_s", "trace.run_s"}
    assert printed == set(declared)
    assert all(run.layer_unit(k) == u for k, u in declared.items())
    layer_self = sum(
        layers[k] for k in layers
        if k.endswith("_s") and k.split(".")[-1] not in ("integrate_incl_s", "pool_wait_s", "accounted_s", "concurrent_s")
        and k != "root_s"
    )
    assert layer_self <= layers["root_s"]


FLOW_STEPS = r"""
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from leviflat import cli, flows
from leviflat.excalc import basis_vector
from leviflat.scenarios import builtin
from tracer import Tracer
tracer = Tracer()
tracer.install()
E_X = basis_vector(builtin("t3_flat").structure.chart, 0)
p = (0.2, 0.3, 0.4)
tracer.root(lambda: [flows.integrate_flow(E_X, 0.35, p, h=0.05),   # 7 steps
                     flows.integrate_flow(E_X, 0.0, p),             # none
                     flows.integrate_flow(E_X, -0.1, p, h=0.03)])   # 4 steps
layers, problems = tracer.layer_metrics("t3_flat", 1, 1)
print(json.dumps([layers["flows.rk4_steps"], layers["flows.integrate_calls"], problems]))
"""


def test_rk4_steps_are_counted_from_the_flow():
    proc = subprocess.run(
        [sys.executable, "-I", "-c", FLOW_STEPS, os.path.join(ROOT, "src"), BENCH],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == [11, 3, []]


def test_smoke_run_prints_result_line():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "flows_t3", "--seed", "3",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["attempted"] == 30 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "flows_t3", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
